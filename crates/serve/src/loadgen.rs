//! Load generator: replays a generated scenario against a running
//! `geosocial-serve` instance and measures throughput and latency.
//!
//! The replay opens several client connections and assigns each user to one
//! connection with the same splitmix64 hash the server uses for sharding,
//! so every user's events stay in order end to end. Each connection
//! pipelines up to `window` requests: a writer sends frames while a reader
//! thread consumes the strictly-ordered responses and returns a permit per
//! response. Latency is measured per request (send to response) through
//! that FIFO discipline.
//!
//! # Retries
//!
//! Every event carries a per-user sequence number, so delivery is at-least
//! -once on the wire and exactly-once on the server. When a connection
//! dies (injected fault or real), the lane backs off with deterministic
//! seeded equal-jitter exponential delay ([`geosocial_fault::backoff_ms`]),
//! reconnects, re-sends `Hello`, and resumes from the last *acknowledged*
//! event — responses are strictly 1:1 in order, so the ack count is exact.
//! When the failure also destroyed acknowledgments (an aborted
//! connection), the lane first asks the server how far each user's ingest
//! actually got — the `AsOf` reply carries the event store's applied count
//! — and fast-forwards its ack frontier past frames the server already
//! holds, so store-backed resume spares those events a redelivery. Any
//! events still re-sent are deduplicated by sequence number and the
//! verdict stream is unperturbed.
//!
//! A non-inert [`FaultPlan`] decides, per frame and per delivery attempt,
//! whether to truncate the frame and kill the connection, abort it, or
//! stall past the server's read timeout — the controlled noise behind the
//! chaos equivalence test. The default plan never fires.
//!
//! After the replay, a control connection finalizes the stream (`Finish`),
//! snapshots the server counters (`Stats`), and — with `verify` — diffs the
//! served per-user compositions against the batch pipeline run locally on
//! the same scenario.

use geosocial_core::classify::ClassifyConfig;
use geosocial_core::matching::{match_checkins, MatchConfig};
use geosocial_core::prevalence::user_compositions;
use geosocial_fault::{backoff_ms, FaultPlan, FrameFault};
use geosocial_obs::counter;
use geosocial_obs::trace::{
    promote_flags, SpanRecord, TraceContext, DEFAULT_SAMPLE_DENOM, DEFAULT_SLOW_US, FLAG_SAMPLED,
    PROMOTE_MASK,
};
use geosocial_scenario::PopulationConfig;
use geosocial_stream::{dataset_events, StreamEvent};
use geosocial_trace::{Dataset, UserId};
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::protocol::{
    read_frame_into, read_msg, write_msg, Request, Response, ServerStats, ShardMapInfo, WireFix,
};
use crate::server::shard_of;
use crate::wire::{self, WireFormat};

/// When and how hard a lane retries a dead connection.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Reconnect attempts per lane before giving up.
    pub max_retries: u32,
    /// Base backoff window, milliseconds (attempt 0 waits about half this).
    pub base_ms: u64,
    /// Backoff window cap, milliseconds.
    pub max_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_retries: 8, base_ms: 10, max_ms: 2_000 }
    }
}

/// Replay parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Registered scenario family to replay (`--scenario`). The default,
    /// `baseline`, generates exactly the pre-registry primary cohort.
    pub scenario: String,
    /// Scenario cohort size.
    pub users: u32,
    /// Scenario duration, days.
    pub days: u32,
    /// Scenario seed.
    pub seed: u64,
    /// Parallel client connections.
    pub connections: usize,
    /// Pipeline depth per connection (in-flight requests).
    pub window: usize,
    /// Diff served compositions against the batch pipeline afterwards.
    pub verify: bool,
    /// Reconnect/backoff behavior on connection failure.
    pub retry: RetryPolicy,
    /// Client-side fault plan (default inert).
    pub fault: FaultPlan,
    /// Payload encoding for replayed frames (`--wire json|binary`).
    pub wire: WireFormat,
    /// Batch up to this many consecutive GPS fixes per user into one
    /// `GpsRun` frame; 0 or 1 disables batching (one frame per fix).
    pub run_len: usize,
    /// Head-sampling denominator: mint a trace per frame and record
    /// 1/`trace_sample` of them end to end (0 disables tracing, 1 traces
    /// everything). Retried deliveries are force-recorded regardless.
    pub trace_sample: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            scenario: "baseline".to_string(),
            users: 64,
            days: 7,
            seed: 1,
            connections: 4,
            window: 256,
            verify: false,
            retry: RetryPolicy::default(),
            fault: FaultPlan::none(),
            wire: WireFormat::Json,
            run_len: 1,
            trace_sample: DEFAULT_SAMPLE_DENOM,
        }
    }
}

/// What the replay measured — serialized to loadgen's `--out` report.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// Scenario family replayed.
    pub scenario: String,
    /// Scenario cohort size.
    pub users: u32,
    /// Scenario duration, days.
    pub days: u32,
    /// Scenario seed.
    pub seed: u64,
    /// Client connections used.
    pub connections: usize,
    /// Pipeline depth per connection.
    pub window: usize,
    /// Payload encoding used for the replay (`"json"` or `"binary"`).
    pub wire: String,
    /// GPS-run batch length used (0/1 = unbatched).
    pub run_len: usize,
    /// GPS fixes replayed.
    pub gps_events: usize,
    /// Checkins replayed.
    pub checkin_events: usize,
    /// All replayed events (fixes + checkins).
    pub total_events: usize,
    /// Frames sent on ingest lanes (== events when unbatched; fewer with
    /// `GpsRun` batching).
    pub frames_sent: usize,
    /// Replay wall time, seconds.
    pub seconds: f64,
    /// Ingest throughput, events per second.
    pub events_per_sec: f64,
    /// Client-side encode time across all lanes, seconds. Spent *before*
    /// each frame's latency clock starts, so round-trip latency below
    /// measures wire + server cost, not client serialization.
    pub encode_seconds: f64,
    /// Framed request bytes written by ingest lanes (length prefixes
    /// included; retried deliveries counted again — it is wire traffic).
    pub bytes_sent: u64,
    /// Framed response bytes read by ingest lanes.
    pub bytes_recv: u64,
    /// Median request round-trip latency (send to response, encode
    /// excluded), microseconds.
    pub p50_us: u64,
    /// 95th-percentile request latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
    /// Lane reconnects (each is one backoff + resume-from-acked).
    pub retries: u32,
    /// Events re-sent after a reconnect (deduplicated server-side).
    pub resent_events: usize,
    /// Events a reconnect skipped re-sending because the server's event
    /// store already held them (`AsOf` fast-forward past destroyed acks).
    pub resumed_events: usize,
    /// Frames the fault plan truncated (connections half-closed mid-frame).
    pub fault_truncated: u64,
    /// Connections the fault plan aborted (acknowledgments destroyed).
    pub fault_aborted: u64,
    /// Frames the fault plan stalled.
    pub fault_stalled: u64,
    /// Shard workers the fault plan killed.
    pub fault_kills: u64,
    /// Client root spans that were head-sampled (1/`trace_sample`).
    pub traces_sampled: usize,
    /// Client root spans force-kept by tail rules (retry, dedup, slow…).
    pub traces_tail_promoted: usize,
    /// Per-request-path latency percentiles derived from the collected
    /// client root spans — a sampled subset of the frame latencies above,
    /// cross-checkable against the server's `serve.latency_us.*` series.
    pub trace_paths: Vec<TracePathLatency>,
    /// Final server counters after `Finish`.
    pub server: ServerStats,
    /// Batch-vs-served verification outcome (absent when not requested).
    pub verified: Option<bool>,
    /// Human-readable verification mismatches (empty when clean).
    pub mismatches: Vec<String>,
    /// The cluster shard map when the peer was a `geosocial-router`
    /// (absent against a single server). Filled by `--router` mode.
    pub cluster: Option<ShardMapInfo>,
}

/// Root-span latency percentiles for one request path (`client.request.
/// gps|run|checkin`), computed from the traces the replay recorded.
#[derive(Debug, Clone, Serialize)]
pub struct TracePathLatency {
    /// Root span name (request path).
    pub path: String,
    /// Root spans collected for this path.
    pub count: usize,
    /// Median root-span duration, microseconds.
    pub p50_us: u64,
    /// 95th-percentile root-span duration, microseconds.
    pub p95_us: u64,
    /// 99th-percentile root-span duration, microseconds.
    pub p99_us: u64,
}

/// One connection's slice of the replay, each event stamped with its
/// per-user ingest sequence number. With `run_len > 1`, maximal runs of up
/// to `run_len` consecutive GPS fixes per user collapse into one
/// [`Request::GpsRun`] frame. A user's run is cut by their own checkin
/// (their event order is the sequence contract) but not by other users'
/// events — per-user state is independent, so holding one user's open run
/// while another user's events flush cannot change any verdict.
/// Returns the lanes plus the GPS-fix and checkin counts.
pub fn partition_events(
    ds: &Dataset,
    connections: usize,
    run_len: usize,
) -> (Vec<Vec<Request>>, usize, usize) {
    let run_len = run_len.clamp(1, wire::MAX_RUN_LEN);
    let mut lanes: Vec<Vec<Request>> = vec![Vec::new(); connections.max(1)];
    let mut seqs: HashMap<UserId, u64> = HashMap::new();
    // Open (not yet emitted) GPS run per user: first seq + fixes so far.
    let mut open: HashMap<UserId, (u64, Vec<WireFix>)> = HashMap::new();
    let mut gps = 0;
    let mut checkins = 0;
    let flush = |lanes: &mut Vec<Vec<Request>>,
                 user: UserId,
                 (first_seq, fixes): (u64, Vec<WireFix>)| {
        let lane = shard_of(user, lanes.len());
        if fixes.len() == 1 {
            // A run of one is just a fix; skip the run framing.
            let f = fixes[0];
            lanes[lane].push(Request::Gps { user, seq: first_seq, t: f.t, lat: f.lat, lon: f.lon });
        } else {
            lanes[lane].push(Request::GpsRun { user, first_seq, fixes });
        }
    };
    for ev in dataset_events(ds) {
        let user = ev.user();
        let seq = seqs.entry(user).or_insert(0);
        match ev {
            StreamEvent::Gps { user, point } => {
                gps += 1;
                let run = open.entry(user).or_insert_with(|| (*seq, Vec::with_capacity(run_len)));
                run.1.push(WireFix { t: point.t, lat: point.pos.lat, lon: point.pos.lon });
                if run.1.len() >= run_len {
                    let run = open.remove(&user).expect("run just extended");
                    flush(&mut lanes, user, run);
                }
            }
            StreamEvent::Checkin { user, checkin } => {
                checkins += 1;
                if let Some(run) = open.remove(&user) {
                    flush(&mut lanes, user, run);
                }
                let lane = shard_of(user, lanes.len());
                lanes[lane].push(Request::Checkin {
                    user,
                    seq: *seq,
                    t: checkin.t,
                    poi: checkin.poi,
                    lat: checkin.location.lat,
                    lon: checkin.location.lon,
                });
            }
        }
        *seq += 1;
    }
    // Residual open runs, flushed in user-id order so lane contents are
    // deterministic regardless of hash-map iteration order.
    let mut residual: Vec<(UserId, (u64, Vec<WireFix>))> = open.into_iter().collect();
    residual.sort_unstable_by_key(|(user, _)| *user);
    for (user, run) in residual {
        flush(&mut lanes, user, run);
    }
    (lanes, gps, checkins)
}

/// Ingest events one frame carries (0 for control requests).
fn events_in(req: &Request) -> usize {
    match req {
        Request::GpsRun { fixes, .. } => fixes.len(),
        Request::Gps { .. } | Request::Checkin { .. } => 1,
        _ => 0,
    }
}

/// `(user, one past the frame's last sequence number)` of an ingest frame.
fn frame_span(req: &Request) -> Option<(UserId, u64)> {
    match req {
        Request::Gps { user, seq, .. } | Request::Checkin { user, seq, .. } => {
            Some((*user, seq + 1))
        }
        Request::GpsRun { user, first_seq, fixes } => Some((*user, first_seq + fixes.len() as u64)),
        _ => None,
    }
}

/// After a dead connection, ask the server how far each user's ingest
/// actually got — the `AsOf` reply carries the event store's applied count
/// — and advance the ack frontier over sent frames whose events the server
/// already holds. Acknowledgments a fault destroyed don't have to be
/// re-earned by redelivery. Best-effort: any query failure just leaves the
/// frontier where plain resume-from-acked put it.
///
/// Works identically against a single server and the cluster router:
/// `AsOf` is user-addressed, so the router forwards each query to the
/// user's owning shard process. All queries for one pass share one
/// control connection with a per-user answer cache — lanes interleave
/// users, so the old single-slot cache plus fresh-connection-per-query
/// scheme degenerated to one TCP connect (and, through a router, one
/// whole link fabric) per sent frame.
fn fast_forward(addr: SocketAddr, lane: &[Request], acked: usize, sent_high: usize) -> usize {
    let mut acked = acked;
    let mut cached: HashMap<UserId, u64> = HashMap::new();
    let mut conn: Option<(BufReader<TcpStream>, BufWriter<TcpStream>)> = None;
    while acked < sent_high {
        let Some((user, end_seq)) = frame_span(&lane[acked]) else { break };
        let applied = match cached.get(&user).copied() {
            Some(applied) => applied,
            None => {
                let mut exchange = || -> io::Result<u64> {
                    if conn.is_none() {
                        let stream = TcpStream::connect(addr)?;
                        stream.set_nodelay(true)?;
                        conn = Some((BufReader::new(stream.try_clone()?), BufWriter::new(stream)));
                    }
                    let (r, w) = conn.as_mut().expect("connected above");
                    write_msg(w, &Request::AsOf { user, t: i64::MAX })?;
                    w.flush()?;
                    match read_msg::<Response, _>(r)? {
                        Some(Response::AsOf { applied, .. }) => Ok(applied),
                        other => Err(io::Error::other(format!("as-of: unexpected {other:?}"))),
                    }
                };
                match exchange() {
                    Ok(applied) => {
                        cached.insert(user, applied);
                        applied
                    }
                    Err(_) => break,
                }
            }
        };
        if applied < end_seq {
            break;
        }
        acked += 1;
    }
    acked
}

/// Per-attempt tracing parameters.
#[derive(Clone, Copy)]
struct TraceCfg {
    /// Trace-id mint seed (the scenario seed, so runs are reproducible).
    seed: u64,
    /// Head-sampling denominator (0 = tracing off).
    denom: u64,
    /// Frames below this lane index were written on an earlier attempt:
    /// re-sending one is a retried delivery and is force-recorded with
    /// [`geosocial_obs::trace::FLAG_RETRY`].
    resend_below: usize,
}

/// The root span name for an ingest frame — the trace "path".
fn trace_path(req: &Request) -> &'static str {
    match req {
        Request::Gps { .. } => "client.request.gps",
        Request::GpsRun { .. } => "client.request.run",
        Request::Checkin { .. } => "client.request.checkin",
        _ => "client.request.other",
    }
}

/// Why a delivery attempt ended short of the full lane.
enum AttemptFailure {
    /// The connection died (or was killed by the fault plan): retryable.
    Conn(io::Error),
    /// The server answered `Error`: the lane is wrong, not unlucky.
    Server(String),
}

/// One connection lifetime's worth of progress.
struct AttemptOutcome {
    /// Lane frames acknowledged after this attempt (absolute).
    acked: usize,
    /// Index one past the last frame written this attempt (absolute).
    sent_up_to: usize,
    /// Latency samples from this attempt, microseconds.
    latencies: Vec<u64>,
    /// Client-side encode time this attempt, nanoseconds.
    encode_ns: u64,
    /// Framed request bytes written (length prefixes included).
    bytes_sent: u64,
    /// Framed response bytes read.
    bytes_recv: u64,
    /// Client root spans closed this attempt (one per acked traced frame).
    roots: Vec<SpanRecord>,
    failure: Option<AttemptFailure>,
}

/// Send `lane[base..]` over one fresh connection, pipelined `window` deep.
/// `Hello` is re-sent synchronously first — shards must know the origin
/// before any ingest, and its ack confirms the connection is live.
#[allow(clippy::too_many_arguments)]
fn replay_attempt(
    addr: SocketAddr,
    hello: &Request,
    lane: &[Request],
    base: usize,
    window: usize,
    lane_idx: u64,
    plan: &FaultPlan,
    attempt: u32,
    wire_fmt: WireFormat,
    trace: TraceCfg,
) -> AttemptOutcome {
    let mut out = AttemptOutcome {
        acked: base,
        sent_up_to: base,
        latencies: Vec::new(),
        encode_ns: 0,
        bytes_sent: 0,
        bytes_recv: 0,
        roots: Vec::new(),
        failure: None,
    };
    let conn_fail = |e: io::Error| Some(AttemptFailure::Conn(e));

    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            out.failure = conn_fail(e);
            return out;
        }
    };
    stream.set_nodelay(true).ok();
    let (reader_stream, writer_stream) = match (stream.try_clone(), stream.try_clone()) {
        (Ok(r), Ok(w)) => (r, w),
        (Err(e), _) | (_, Err(e)) => {
            out.failure = conn_fail(e);
            return out;
        }
    };
    let mut r = BufReader::new(reader_stream);
    let mut w = BufWriter::new(writer_stream);

    // Frame scratch, reused across the attempt: encode-then-write lets the
    // fault plan truncate a real frame and the byte counters see framed
    // sizes.
    let mut frame_buf: Vec<u8> = Vec::new();
    let mut resp_buf: Vec<u8> = Vec::new();

    // Synchronous Hello: idempotent (same origin every time), and a failed
    // ack here means the connection never came up.
    {
        let enc = Instant::now();
        frame_buf.clear();
        if let Err(e) = wire::encode_request_frame(&mut frame_buf, hello, wire_fmt) {
            out.failure = conn_fail(e);
            return out;
        }
        out.encode_ns += enc.elapsed().as_nanos() as u64;
    }
    if let Err(e) = w.write_all(&frame_buf).and_then(|()| w.flush()) {
        out.failure = conn_fail(e);
        return out;
    }
    out.bytes_sent += frame_buf.len() as u64;
    match read_frame_into(&mut r, &mut resp_buf) {
        Ok(Some(len)) => {
            out.bytes_recv += len as u64 + 4;
            match wire::decode_response(&resp_buf[..len]) {
                Ok(Response::Ok) => {}
                Ok(Response::Error { message }) => {
                    out.failure = Some(AttemptFailure::Server(message));
                    return out;
                }
                Ok(other) => {
                    out.failure =
                        Some(AttemptFailure::Server(format!("hello: unexpected {other:?}")));
                    return out;
                }
                Err(e) => {
                    out.failure = conn_fail(e.into());
                    return out;
                }
            }
        }
        Ok(None) => {
            out.failure = conn_fail(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed during hello",
            ));
            return out;
        }
        Err(e) => {
            out.failure = conn_fail(e);
            return out;
        }
    }

    // Pipelined phase. In-flight bookkeeping: send instants (and the
    // trace context of recorded frames) queued FIFO, permits returned per
    // response. Responses never carry a context — the strict 1:1 order is
    // the correlation, so the reader closes each root span by position.
    let remaining = lane.len() - base;
    type SentEntry = (Instant, Option<(TraceContext, &'static str)>);
    let sent_times = Arc::new(Mutex::new(VecDeque::<SentEntry>::new()));
    let (permit_tx, permit_rx) = mpsc::channel::<()>();
    for _ in 0..window.max(1) {
        permit_tx.send(()).expect("preload permits");
    }
    let sent_r = Arc::clone(&sent_times);
    type ReaderEnd = (usize, Vec<u64>, Option<String>, Option<io::Error>, u64, Vec<SpanRecord>);
    let reader = std::thread::spawn(move || -> ReaderEnd {
        let mut acks = 0usize;
        let mut latencies = Vec::new();
        let mut roots: Vec<SpanRecord> = Vec::new();
        let mut bytes = 0u64;
        let mut buf: Vec<u8> = Vec::new();
        while acks < remaining {
            match read_frame_into(&mut r, &mut buf) {
                Ok(Some(len)) => {
                    bytes += len as u64 + 4;
                    match wire::decode_response(&buf[..len]) {
                        Ok(Response::Error { message }) => {
                            return (acks, latencies, Some(message), None, bytes, roots);
                        }
                        Ok(_) => {
                            acks += 1;
                            if let Some((at, traced)) = sent_r.lock().unwrap().pop_front() {
                                let us = at.elapsed().as_micros() as u64;
                                latencies.push(us);
                                if let Some((ctx, path)) = traced {
                                    // The ack closes the root span; tail-
                                    // promote on its send→ack duration.
                                    roots.push(SpanRecord {
                                        trace_id: ctx.trace_id,
                                        span_id: ctx.span_id,
                                        parent: 0,
                                        name: path.to_string(),
                                        start_us: ctx.start_us,
                                        dur_us: us,
                                        flags: promote_flags(ctx.flags, us, DEFAULT_SLOW_US),
                                        shard: -1,
                                    });
                                }
                            }
                            let _ = permit_tx.send(());
                        }
                        Err(e) => return (acks, latencies, None, Some(e.into()), bytes, roots),
                    }
                }
                Ok(None) => {
                    let e =
                        io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-replay");
                    return (acks, latencies, None, Some(e), bytes, roots);
                }
                Err(e) => return (acks, latencies, None, Some(e), bytes, roots),
            }
        }
        (acks, latencies, None, None, bytes, roots)
    });

    let mut write_err: Option<io::Error> = None;
    let mut killed_by_fault = false;
    let mut sent = base;
    'writer: for (i, req) in lane.iter().enumerate().skip(base) {
        // Take a permit, flushing first if we must block: the server
        // cannot answer requests still sitting in our buffer.
        match permit_rx.try_recv() {
            Ok(()) => {}
            Err(TryRecvError::Empty) => {
                if let Err(e) = w.flush() {
                    write_err = Some(e);
                    break 'writer;
                }
                if permit_rx.recv().is_err() {
                    // The reader exited; it carries the real failure.
                    break 'writer;
                }
            }
            Err(TryRecvError::Disconnected) => break 'writer,
        }
        // Encode before the latency clock starts: the round-trip numbers
        // measure wire + server cost, and `encode_ns` carries the client
        // serialization cost separately.
        let enc = Instant::now();
        frame_buf.clear();
        // Every frame gets a deterministic trace identity; only recorded
        // ones (head-sampled, or a retried delivery) pay for the envelope
        // — the rest go out byte-identical to an untraced run.
        let mut ctx: Option<TraceContext> = None;
        if trace.denom != 0 && geosocial_obs::trace::enabled() {
            let mut c = TraceContext::mint(trace.seed, lane_idx, i as u64, trace.denom);
            if attempt > 0 && i < trace.resend_below {
                c = c.for_attempt(attempt);
            }
            if c.recorded() {
                ctx = Some(c);
            }
        }
        let encoded = match &ctx {
            Some(c) => wire::encode_traced_request_frame(&mut frame_buf, c, req, wire_fmt),
            None => wire::encode_request_frame(&mut frame_buf, req, wire_fmt),
        };
        if let Err(e) = encoded {
            write_err = Some(e);
            break 'writer;
        }
        out.encode_ns += enc.elapsed().as_nanos() as u64;
        match plan.frame_fault(lane_idx, i as u64, attempt) {
            FrameFault::None => {}
            FrameFault::Stall { ms } => {
                geosocial_obs::debug!("loadgen", "fault: stall"; lane = lane_idx, index = i, attempt = attempt);
                // Go quiet with the frame unsent — long enough and the
                // server's read timeout closes the connection under us.
                if let Err(e) = w.flush() {
                    write_err = Some(e);
                    break 'writer;
                }
                std::thread::sleep(Duration::from_millis(ms));
            }
            FrameFault::Truncate => {
                geosocial_obs::debug!("loadgen", "fault: truncate"; lane = lane_idx, index = i, attempt = attempt);
                // Deliver everything buffered, then half a frame, then
                // half-close: the server sees a mid-frame EOF and drops the
                // session. Only the write side is shut down — responses the
                // server already sent stay readable, exactly like a peer
                // that crashed mid-write. (A full `Shutdown::Both` would
                // discard every ack already sitting in our receive buffer,
                // and since the writer runs `window` frames ahead of the
                // reader, that turns most truncated attempts into
                // zero-progress attempts and starves the retry budget.)
                let _ = w
                    .flush()
                    .and_then(|()| w.get_mut().write_all(&frame_buf[..frame_buf.len().max(2) / 2]));
                let _ = w.get_ref().shutdown(Shutdown::Write);
                killed_by_fault = true;
                break 'writer;
            }
            FrameFault::Abort => {
                geosocial_obs::debug!("loadgen", "fault: abort"; lane = lane_idx, index = i, attempt = attempt);
                // Tear the connection down in both directions, destroying
                // every acknowledgment still sitting in our receive buffer.
                // The server has applied events we will never know were
                // acked, so the retry redelivers them — the fault that
                // proves the per-user seq dedup actually runs.
                let _ = w.flush();
                let _ = w.get_ref().shutdown(Shutdown::Both);
                killed_by_fault = true;
                break 'writer;
            }
        }
        sent_times.lock().unwrap().push_back((Instant::now(), ctx.map(|c| (c, trace_path(req)))));
        if let Err(e) = w.write_all(&frame_buf) {
            write_err = Some(e);
            break 'writer;
        }
        out.bytes_sent += frame_buf.len() as u64;
        sent = i + 1;
    }
    if write_err.is_none() && !killed_by_fault && sent == lane.len() {
        if let Err(e) = w.flush().and_then(|()| w.get_ref().shutdown(Shutdown::Write)) {
            write_err = Some(e);
        }
    }

    let (acks, latencies, server_err, conn_err, bytes_recv, roots) =
        reader.join().unwrap_or_else(|_| {
            (0, Vec::new(), None, Some(io::Error::other("reader panicked")), 0, Vec::new())
        });
    out.acked = base + acks;
    out.sent_up_to = sent;
    out.latencies = latencies;
    out.bytes_recv += bytes_recv;
    out.roots = roots;
    out.failure = if let Some(message) = server_err {
        Some(AttemptFailure::Server(message))
    } else if killed_by_fault {
        // The reader's EOF is just the echo of our own half-close; name
        // the real cause.
        conn_fail(io::Error::new(
            io::ErrorKind::ConnectionAborted,
            "connection killed by injected fault",
        ))
    } else if let Some(e) = conn_err {
        conn_fail(e)
    } else if let Some(e) = write_err {
        conn_fail(e)
    } else if out.acked < lane.len() {
        conn_fail(io::Error::other("lane ended short of full ack"))
    } else {
        None
    };
    out
}

/// What one lane delivered, across every connection attempt.
struct LaneReport {
    latencies: Vec<u64>,
    /// Client root spans from every recorded trace on this lane.
    roots: Vec<SpanRecord>,
    retries: u32,
    /// Events (not frames) redelivered after reconnects.
    resent: usize,
    /// Events a reconnect skipped via the store-backed `AsOf` fast-forward.
    resumed: usize,
    encode_ns: u64,
    bytes_sent: u64,
    bytes_recv: u64,
}

/// Replay one lane to completion: deliver every event at least once and
/// collect every ack, reconnecting with deterministic backoff on failure.
#[allow(clippy::too_many_arguments)]
fn replay_lane(
    addr: SocketAddr,
    hello: Request,
    lane: Vec<Request>,
    window: usize,
    lane_idx: u64,
    plan: FaultPlan,
    retry: RetryPolicy,
    wire_fmt: WireFormat,
    seed: u64,
    trace_sample: u64,
) -> io::Result<LaneReport> {
    let mut report = LaneReport {
        latencies: Vec::new(),
        roots: Vec::new(),
        retries: 0,
        resent: 0,
        resumed: 0,
        encode_ns: 0,
        bytes_sent: 0,
        bytes_recv: 0,
    };
    // events_before[i] = ingest events carried by frames [0, i): translates
    // the frame-indexed ack/send frontier into the event counts the report
    // speaks in (a resent `GpsRun` frame is fixes.len() resent events).
    let events_before: Vec<usize> = {
        let mut acc = 0usize;
        let mut prefix = Vec::with_capacity(lane.len() + 1);
        prefix.push(0);
        for req in &lane {
            acc += events_in(req);
            prefix.push(acc);
        }
        prefix
    };
    let mut acked = 0usize;
    let mut sent_high = 0usize;
    // Two counters with different jobs: `attempt` only ever grows and keys
    // the fault plan's per-frame decisions, so a retried frame is re-rolled
    // and the same fault can never pin the same index forever; `stalled_for`
    // counts *consecutive* attempts that advanced nothing and drives both
    // the backoff and the give-up bound.
    let mut attempt = 0u32;
    let mut stalled_for = 0u32;
    loop {
        let already_sent = sent_high;
        let already_acked = acked;
        let trace = TraceCfg { seed, denom: trace_sample, resend_below: sent_high };
        let out = replay_attempt(
            addr, &hello, &lane, acked, window, lane_idx, &plan, attempt, wire_fmt, trace,
        );
        report.latencies.extend(out.latencies);
        report.roots.extend(out.roots);
        report.encode_ns += out.encode_ns;
        report.bytes_sent += out.bytes_sent;
        report.bytes_recv += out.bytes_recv;
        // Frames below the previous high-water mark were deliveries the
        // server (may) have already applied — the seq dedup's workload,
        // counted in events.
        let resent_frames_to = out.sent_up_to.min(already_sent);
        if resent_frames_to > acked {
            report.resent += events_before[resent_frames_to] - events_before[acked];
        }
        sent_high = sent_high.max(out.sent_up_to);
        acked = acked.max(out.acked);
        match out.failure {
            None => {
                debug_assert_eq!(acked, lane.len());
                return Ok(report);
            }
            Some(AttemptFailure::Server(message)) => {
                return Err(io::Error::other(format!("server: {message}")));
            }
            Some(AttemptFailure::Conn(e)) => {
                // Events the server already applied but whose acks died
                // with the connection can be skipped, not redelivered.
                let ff = fast_forward(addr, &lane, acked, sent_high);
                if ff > acked {
                    report.resumed += events_before[ff] - events_before[acked];
                    acked = ff;
                    if acked >= lane.len() {
                        return Ok(report);
                    }
                }
                // `max_retries` bounds *consecutive* no-progress failures:
                // an attempt that advanced the ack frontier resets the
                // budget (and the backoff), so a long lane under a high
                // fault rate still completes as long as each connection
                // makes progress.
                let progressed = acked > already_acked;
                if !progressed && stalled_for >= retry.max_retries {
                    return Err(io::Error::new(
                        e.kind(),
                        format!("lane {lane_idx}: gave up after {stalled_for} retries: {e}"),
                    ));
                }
                attempt += 1;
                stalled_for = if progressed { 0 } else { stalled_for + 1 };
                let wait =
                    backoff_ms(plan.seed, lane_idx, stalled_for, retry.base_ms, retry.max_ms);
                geosocial_obs::info!("loadgen", "lane reconnecting";
                    lane = lane_idx, attempt = attempt, stalled_for = stalled_for,
                    backoff_ms = wait, acked = acked, cause = e);
                counter("loadgen.retries").inc();
                std::thread::sleep(Duration::from_millis(wait));
                report.retries += 1;
            }
        }
    }
}

/// Group client root spans by path and compute latency percentiles,
/// sorted by path for deterministic report output.
fn path_latencies(roots: &[SpanRecord]) -> Vec<TracePathLatency> {
    let mut by_path: HashMap<&str, Vec<u64>> = HashMap::new();
    for s in roots {
        by_path.entry(s.name.as_str()).or_default().push(s.dur_us);
    }
    let mut out: Vec<TracePathLatency> = by_path
        .into_iter()
        .map(|(path, mut durs)| {
            durs.sort_unstable();
            TracePathLatency {
                path: path.to_string(),
                count: durs.len(),
                p50_us: percentile(&durs, 0.50),
                p95_us: percentile(&durs, 0.95),
                p99_us: percentile(&durs, 0.99),
            }
        })
        .collect();
    out.sort_by(|a, b| a.path.cmp(&b.path));
    out
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One request on a fresh control connection.
pub fn control_request(addr: SocketAddr, req: &Request) -> io::Result<Response> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut w = BufWriter::new(stream.try_clone()?);
    write_msg(&mut w, req)?;
    w.flush()?;
    let mut r = BufReader::new(stream);
    read_msg::<Response, _>(&mut r)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no response"))
}

/// Diff the served state against the batch pipeline on the same dataset.
fn verify_against_batch(
    addr: SocketAddr,
    ds: &Dataset,
    stats: &ServerStats,
) -> io::Result<Vec<String>> {
    let outcome = match_checkins(ds, &MatchConfig::paper());
    let batch = user_compositions(ds, &outcome, &ClassifyConfig::default());
    let mut mismatches = Vec::new();

    let agg = &stats.composition;
    let mut check = |field: &str, served: usize, expected: usize| {
        if served != expected {
            mismatches.push(format!("aggregate {field}: served {served}, batch {expected}"));
        }
    };
    check("total", agg.total_checkins, outcome.total_checkins);
    check("honest", agg.honest, outcome.honest.len());
    check("extraneous", agg.extraneous(), outcome.extraneous.len());
    check("visits", agg.visits_total, outcome.total_visits);
    check("missing", agg.missing_visits, outcome.missing.len());

    for bc in &batch {
        let served = match control_request(addr, &Request::User { user: bc.user })? {
            Response::Composition { composition } => composition,
            Response::Error { message } => {
                mismatches.push(format!("user {}: query failed: {message}", bc.user));
                continue;
            }
            other => {
                mismatches.push(format!("user {}: unexpected reply {other:?}", bc.user));
                continue;
            }
        };
        let fields: [(&str, usize, usize); 6] = [
            ("total", served.total_checkins, bc.total),
            ("honest", served.honest, bc.honest),
            ("superfluous", served.superfluous, bc.superfluous),
            ("remote", served.remote, bc.remote),
            ("driveby", served.driveby, bc.driveby),
            ("unclassified", served.unclassified, bc.unclassified),
        ];
        for (field, got, want) in fields {
            if got != want {
                mismatches.push(format!("user {} {field}: served {got}, batch {want}", bc.user));
            }
        }
    }
    Ok(mismatches)
}

/// Generate the scenario, replay it against `addr`, finalize, snapshot
/// stats, and (optionally) verify against the batch pipeline.
pub fn run(addr: SocketAddr, cfg: &LoadgenConfig) -> io::Result<BenchReport> {
    let pop_cfg = PopulationConfig::small(cfg.users, cfg.days);
    let population =
        geosocial_scenario::populate(&cfg.scenario, &pop_cfg, cfg.seed).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "unknown scenario {:?}; registered: {}",
                    cfg.scenario,
                    geosocial_scenario::names().join(", ")
                ),
            )
        })?;
    let ds = &population.dataset;
    let origin = ds.pois.projection().origin();
    let hello = Request::Hello { origin_lat: origin.lat, origin_lon: origin.lon };

    let (lanes, gps_events, checkin_events) = partition_events(ds, cfg.connections, cfg.run_len);
    let total_events = gps_events + checkin_events;
    let frames_sent: usize = lanes.iter().map(Vec::len).sum();

    let started = Instant::now();
    let mut workers = Vec::new();
    for (lane_idx, lane) in lanes.into_iter().enumerate() {
        let hello = hello.clone();
        let window = cfg.window;
        let plan = cfg.fault.clone();
        let retry = cfg.retry.clone();
        let wire_fmt = cfg.wire;
        let seed = cfg.seed;
        let trace_sample = cfg.trace_sample;
        workers.push(std::thread::spawn(move || {
            replay_lane(
                addr,
                hello,
                lane,
                window,
                lane_idx as u64,
                plan,
                retry,
                wire_fmt,
                seed,
                trace_sample,
            )
        }));
    }
    let mut latencies: Vec<u64> = Vec::with_capacity(frames_sent);
    let mut roots: Vec<SpanRecord> = Vec::new();
    let mut retries = 0u32;
    let mut resent_events = 0usize;
    let mut resumed_events = 0usize;
    let mut encode_ns = 0u64;
    let mut bytes_sent = 0u64;
    let mut bytes_recv = 0u64;
    for worker in workers {
        let lane_report = worker.join().map_err(|_| io::Error::other("lane panicked"))??;
        latencies.extend(lane_report.latencies);
        roots.extend(lane_report.roots);
        retries += lane_report.retries;
        resent_events += lane_report.resent;
        resumed_events += lane_report.resumed;
        encode_ns += lane_report.encode_ns;
        bytes_sent += lane_report.bytes_sent;
        bytes_recv += lane_report.bytes_recv;
    }
    counter("loadgen.resent").add(resent_events as u64);
    counter("loadgen.resumed").add(resumed_events as u64);
    let seconds = started.elapsed().as_secs_f64();

    // Feed the collected root spans to the in-process collector (so a
    // timeline/Chrome export after the run sees the client legs too) and
    // derive the trace-side latency view.
    let traces_sampled = roots.iter().filter(|s| s.flags & FLAG_SAMPLED != 0).count();
    let traces_tail_promoted = roots.iter().filter(|s| s.flags & PROMOTE_MASK != 0).count();
    let trace_paths = path_latencies(&roots);
    let coll = geosocial_obs::trace::collector();
    for s in roots {
        coll.record(s);
    }

    // Finalize, then snapshot.
    match control_request(addr, &Request::Finish)? {
        Response::Verdicts { .. } | Response::Ok => {}
        Response::Error { message } => {
            return Err(io::Error::other(format!("finish: {message}")));
        }
        other => {
            return Err(io::Error::other(format!("finish: unexpected reply {other:?}")));
        }
    }
    let stats = match control_request(addr, &Request::Stats)? {
        Response::Stats { stats } => stats,
        other => {
            return Err(io::Error::other(format!("stats: unexpected reply {other:?}")));
        }
    };

    let (verified, mismatches) = if cfg.verify {
        let mismatches = verify_against_batch(addr, ds, &stats)?;
        (Some(mismatches.is_empty()), mismatches)
    } else {
        (None, Vec::new())
    };

    let injected = cfg.fault.injected();
    latencies.sort_unstable();
    Ok(BenchReport {
        scenario: cfg.scenario.clone(),
        users: cfg.users,
        days: cfg.days,
        seed: cfg.seed,
        connections: cfg.connections,
        window: cfg.window,
        wire: cfg.wire.label().to_string(),
        run_len: cfg.run_len,
        gps_events,
        checkin_events,
        total_events,
        frames_sent,
        seconds,
        events_per_sec: if seconds > 0.0 { total_events as f64 / seconds } else { 0.0 },
        encode_seconds: encode_ns as f64 / 1e9,
        bytes_sent,
        bytes_recv,
        p50_us: percentile(&latencies, 0.50),
        p95_us: percentile(&latencies, 0.95),
        p99_us: percentile(&latencies, 0.99),
        retries,
        resent_events,
        resumed_events,
        fault_truncated: injected.truncated,
        fault_aborted: injected.aborted,
        fault_stalled: injected.stalled,
        fault_kills: injected.kills,
        traces_sampled,
        traces_tail_promoted,
        trace_paths,
        server: stats,
        verified,
        mismatches,
        cluster: None,
    })
}

/// Ask the peer for its cluster shard map. A `geosocial-router` answers
/// with the versioned map; a plain shard server answers `Error` (the
/// request is router-only), reported as `Ok(None)` — which is how
/// `--router` mode tells the two apart before replaying anything.
pub fn cluster_info(addr: SocketAddr) -> io::Result<Option<ShardMapInfo>> {
    match control_request(addr, &Request::ShardMap)? {
        Response::ShardMap { map } => Ok(Some(map)),
        Response::Error { .. } => Ok(None),
        other => Err(io::Error::other(format!("shard-map: unexpected reply {other:?}"))),
    }
}

/// Ask the server to stop accepting and exit.
pub fn shutdown_server(addr: SocketAddr) -> io::Result<()> {
    match control_request(addr, &Request::Shutdown)? {
        Response::Ok => Ok(()),
        other => Err(io::Error::other(format!("shutdown: unexpected reply {other:?}"))),
    }
}
