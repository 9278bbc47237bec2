//! The load generator: ingest over one connection (a writer thread and a
//! reader thread, like `geosocial_serve::loadgen`), closed-loop historical
//! reads over a second one, and the control requests around them.
//!
//! Paced ingest waits with `thread::sleep`, never with a socket read
//! timeout: on Linux a read timeout is rounded up to whole scheduler ticks
//! (8 ms measured on a 2-vCPU host), far coarser than a frame schedule.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use geosocial_serve::loadgen::control_request;
use geosocial_serve::protocol::{read_frame_into, Request, Response, ServerStats};
use geosocial_serve::wire;

use crate::inputs::Inputs;
use crate::spec::WINDOW;

/// How long any single response may take before the run fails.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// The read side of a connection.
struct Responses {
    r: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Responses {
    /// Block until the next response arrives.
    fn next(&mut self) -> io::Result<Response> {
        match read_frame_into(&mut self.r, &mut self.buf)? {
            Some(len) => Ok(wire::decode_response(&self.buf[..len])?),
            None => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed")),
        }
    }
}

/// One client connection.
struct Conn {
    w: BufWriter<TcpStream>,
    responses: Responses,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        let w = BufWriter::with_capacity(64 * 1024, stream.try_clone()?);
        Ok(Conn { w, responses: Responses { r: BufReader::new(stream), buf: Vec::new() } })
    }

    /// Send one frame and wait for its answer.
    fn exchange(&mut self, frame: &[u8]) -> io::Result<Response> {
        self.w.write_all(frame)?;
        self.w.flush()?;
        self.responses.next()
    }

    /// Send one binary request and wait for its answer.
    fn request(&mut self, req: &Request) -> io::Result<Response> {
        let mut frame = Vec::new();
        wire::encode_request_frame(&mut frame, req, wire::WireFormat::Binary)?;
        self.exchange(&frame)
    }
}

/// What one ingest phase measured.
#[derive(Debug, Default)]
pub struct IngestStats {
    /// Frames written (and acknowledged).
    pub frames: usize,
    /// Events those frames carried.
    pub events: u64,
    /// First write to last ack.
    pub elapsed: Duration,
    /// Paced ingest: how far behind its due time the latest frame was sent
    /// (a full window holds frames back). Zero in a closed loop.
    pub late: Duration,
    /// `Error` acks, in order.
    pub errors: Vec<String>,
}

impl IngestStats {
    /// Events acknowledged per second of the phase.
    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Send `inputs.frames[range]` over one fresh connection, at most
/// [`WINDOW`] frames in flight, and collect every ack. With `rate`
/// (events/s) each frame waits until the events before it are due at that
/// rate; without, it goes as soon as the window allows. The writer runs on
/// its own thread; acks are read on this one.
pub fn ingest(
    addr: SocketAddr,
    inputs: &Inputs,
    range: Range<usize>,
    rate: Option<f64>,
) -> io::Result<IngestStats> {
    let mut conn = Conn::open(addr)?;
    let mut hello = Vec::new();
    wire::encode_request_frame(&mut hello, &inputs.hello, inputs.workload.wire)?;
    match conn.exchange(&hello)? {
        Response::Ok => {}
        other => return Err(io::Error::other(format!("hello: unexpected reply {other:?}"))),
    }
    let Conn { w: mut writer, responses: mut acks } = conn;

    // Writer → reader: one token per frame written.
    let (sent_tx, sent_rx) = mpsc::channel::<()>();
    // Reader → writer: one permit per ack.
    let (permit_tx, permit_rx) = mpsc::channel::<()>();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let write = scope.spawn(move || -> io::Result<(usize, u64, Duration)> {
            let mut next = range.start;
            let mut in_flight = 0usize;
            let mut events = 0u64;
            let mut late = Duration::ZERO;
            while next < range.end {
                in_flight -= permit_rx.try_iter().count();
                if in_flight >= WINDOW {
                    // The server cannot ack what is still buffered.
                    writer.flush()?;
                    if permit_rx.recv().is_err() {
                        break;
                    }
                    in_flight -= 1;
                }
                if let Some(rate) = rate {
                    let due = start + Duration::from_secs_f64(events as f64 / rate);
                    let now = Instant::now();
                    if due > now {
                        writer.flush()?;
                        std::thread::sleep(due - now);
                    } else {
                        late = now - due;
                    }
                }
                writer.write_all(inputs.frame(next))?;
                in_flight += 1;
                events += inputs.frames[next].events();
                next += 1;
                if sent_tx.send(()).is_err() {
                    break;
                }
            }
            writer.flush()?;
            Ok((next - range.start, events, late))
        });

        let mut stats = IngestStats::default();
        let mut last_ack = start;
        let mut read_err = None;
        for () in sent_rx.iter() {
            match acks.next() {
                Ok(resp) => {
                    last_ack = Instant::now();
                    if let Response::Error { message } = resp {
                        stats.errors.push(message);
                    }
                    let _ = permit_tx.send(());
                }
                Err(e) => {
                    read_err = Some(e);
                    break;
                }
            }
        }
        drop(sent_rx);
        drop(permit_tx);
        let (frames, events, late) =
            write.join().map_err(|_| io::Error::other("ingest writer panicked"))??;
        if let Some(e) = read_err {
            return Err(e);
        }
        stats.frames = frames;
        stats.events = events;
        stats.late = late;
        stats.elapsed = last_ack.duration_since(start);
        Ok(stats)
    })
}

/// What a run of historical reads measured.
#[derive(Debug, Default)]
pub struct QueryStats {
    /// Per-read latency, microseconds.
    pub lat_us: Vec<u64>,
    /// Reads answered with an error or an unexpected response.
    pub errors: Vec<String>,
    /// `AsOf` answers: `(user, applied)` — the store's event count.
    pub applied: Vec<(u32, u64)>,
}

/// Issue `draws` one at a time over one connection, cycling through them,
/// each sent when the previous one is answered, until `done(count)` says
/// to stop.
pub fn queries(
    addr: SocketAddr,
    draws: &[Request],
    mut done: impl FnMut(usize) -> bool,
) -> io::Result<QueryStats> {
    let mut conn = Conn::open(addr)?;
    let mut stats = QueryStats::default();
    let mut i = 0;
    while !done(i) {
        let req = &draws[i % draws.len()];
        let from = Instant::now();
        let answer = conn.request(req)?;
        stats.lat_us.push(from.elapsed().as_micros() as u64);
        match (req, answer) {
            (Request::AsOf { user, .. }, Response::AsOf { applied, .. }) => {
                stats.applied.push((*user, applied));
            }
            (Request::Window { .. }, Response::Compositions { .. }) => {}
            (_, other) => stats.errors.push(format!("{req:?}: {other:?}")),
        }
        i += 1;
    }
    Ok(stats)
}

/// `Stats` through the entry point.
pub fn stats(addr: SocketAddr) -> io::Result<ServerStats> {
    match control_request(addr, &Request::Stats)? {
        Response::Stats { stats } => Ok(stats),
        other => Err(io::Error::other(format!("stats: unexpected reply {other:?}"))),
    }
}

/// `Finish` through the entry point: finalize every pending verdict.
pub fn finish(addr: SocketAddr) -> io::Result<()> {
    match control_request(addr, &Request::Finish)? {
        Response::Verdicts { .. } | Response::Ok => Ok(()),
        other => Err(io::Error::other(format!("finish: unexpected reply {other:?}"))),
    }
}

/// Median round trip of `n` sequential `User` reads of `user`,
/// microseconds: one frame in flight on an otherwise idle server.
pub fn unloaded_rtt_us(addr: SocketAddr, user: u32, n: usize) -> io::Result<f64> {
    let mut conn = Conn::open(addr)?;
    let req = Request::User { user };
    let mut lat = Vec::with_capacity(n);
    for _ in 0..n {
        let sent = Instant::now();
        conn.request(&req)?;
        lat.push(sent.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(crate::stats::median(&mut lat))
}
