//! The `geosocial-serve` TCP server: accept, route and merge.
//!
//! Architecture: one acceptor thread, one handler thread per connection,
//! and a fixed pool of **shard worker threads**, each a thin loop over one
//! [`Shard`] — the socket-free step function that
//! owns the per-user auditing state, the event store and the trace stream
//! of the users hashed to it. Users are assigned to shards by a
//! splitmix64 hash (the same derivation style `geosocial-par` and the
//! scenario generator use for deterministic fan-out), so a user's events
//! always serialize through one shard regardless of which connection
//! delivers them.
//!
//! Handlers never touch auditor state: every request is routed to its
//! shard over an `mpsc` channel together with a reply sender, keeping the
//! request/response discipline strictly 1:1 and in order per connection.
//! Routing follows [`crate::wire::route_of`], the same route classes the
//! cluster router uses: user-addressed requests go to the user's shard,
//! broadcasts fan out to every shard and merge their replies
//! ([`crate::merge`]), and control requests are answered by the handler.
//!
//! # Robustness
//!
//! The serving layer assumes the transport is as noisy as the checkin
//! streams it audits:
//!
//! * **Idle timeouts** — every accepted connection gets read/write
//!   timeouts; a stalled peer is disconnected instead of pinning a handler
//!   thread forever.
//! * **Bounded accept backpressure** — at most
//!   [`ServerConfig::max_connections`] handlers run at once; the acceptor
//!   stops accepting (kernel backlog takes the overflow) until a slot
//!   frees, so a connection flood cannot exhaust threads.
//! * **Exactly-once ingest, durability, crash recovery and time-travel
//!   reads** are the shard's ([`crate::shard`]). A shard that cannot
//!   open its store or decode its history answers every request with an
//!   error instead of serving a guessed state.
//!
//! Shutdown is cooperative and std-only: a `Shutdown` request flips a flag
//! and self-connects to unblock the acceptor; shard workers exit when the
//! last channel sender drops, closing their shards (both stores flushed),
//! and the final per-shard counters are dumped to stderr before `run_with`
//! returns. (There is no SIGTERM hook — `std` exposes no signal API — so
//! `finish`/`stats`/`shutdown` requests are the supported ways to quiesce
//! a live server.)

use geosocial_fault::FaultPlan;
use geosocial_obs::trace::TraceContext;
use geosocial_obs::{counter, gauge, Gauge, Stopwatch};
use geosocial_trace::UserId;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::protocol::{
    read_frame_into, MetricsHistoryReport, Request, Response, SeriesRate, ServerStats,
};
use crate::shard::Shard;
use crate::wire::{self, RoutePeek, WireFormat};

/// Cached handles to the serving layer's fixed-name metric series.
/// Per-shard series (`serve.shard.N.*`) are indexed by shard count and
/// live in [`crate::shard`] instead, except the queue-depth gauge.
mod metrics {
    use geosocial_obs::cached;

    cached!(queries, counter, Counter, "serve.queries");
    cached!(conn_timeouts, counter, Counter, "serve.conn.timeouts");
    cached!(latency_hello, histogram, Histogram, "serve.latency_us.hello");
    cached!(latency_gps, histogram, Histogram, "serve.latency_us.gps");
    cached!(latency_run, histogram, Histogram, "serve.latency_us.run");
    cached!(latency_checkin, histogram, Histogram, "serve.latency_us.checkin");
    cached!(latency_user, histogram, Histogram, "serve.latency_us.user");
    cached!(latency_asof, histogram, Histogram, "serve.latency_us.asof");
    cached!(latency_window, histogram, Histogram, "serve.latency_us.window");
    cached!(latency_stats, histogram, Histogram, "serve.latency_us.stats");
    cached!(latency_finish, histogram, Histogram, "serve.latency_us.finish");
    cached!(latency_metrics, histogram, Histogram, "serve.latency_us.metrics");
    cached!(latency_traces, histogram, Histogram, "serve.latency_us.traces");
    cached!(latency_history, histogram, Histogram, "serve.latency_us.history");
    // Per-wire-format series: each served request also lands in the
    // histogram of the format it arrived in, and the byte counters track
    // framed sizes (length prefix included) per direction and format.
    cached!(latency_wire_json, histogram, Histogram, "serve.latency_us.wire_json");
    cached!(latency_wire_binary, histogram, Histogram, "serve.latency_us.wire_binary");
    cached!(bytes_in_json, counter, Counter, "serve.bytes_in.json");
    cached!(bytes_in_binary, counter, Counter, "serve.bytes_in.binary");
    cached!(bytes_out_json, counter, Counter, "serve.bytes_out.json");
    cached!(bytes_out_binary, counter, Counter, "serve.bytes_out.binary");
}

/// The shard's request-queue depth gauge — the one shard series handlers
/// also touch, so it goes through the registry (same name → same handle).
fn queue_gauge(shard: usize) -> Arc<Gauge> {
    gauge(&format!("serve.shard.{shard}.queue"))
}

/// Server-side knobs: shard count and the robustness knobs (timeouts,
/// backpressure, checkpoint cadence, fault plan). There are no audit
/// knobs: every shard audits with the paper's thresholds,
/// [`geosocial_stream::AuditConfig::paper`] at the origin the client's `Hello` fixes, so a
/// shard's configuration is a function of its stored origin alone.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker shards owning per-user state.
    pub shards: usize,
    /// When set, a background thread writes the metrics exposition text to
    /// stderr every this many seconds until shutdown.
    pub metrics_every_s: Option<u64>,
    /// Per-connection read timeout; a peer idle longer is disconnected.
    /// `None` = wait forever (the pre-robustness behavior).
    pub read_timeout: Option<Duration>,
    /// Per-connection write timeout; a peer not draining its socket longer
    /// than this is disconnected.
    pub write_timeout: Option<Duration>,
    /// Maximum concurrently served connections; the acceptor stops
    /// accepting beyond this (bounded backpressure).
    pub max_connections: usize,
    /// Shard checkpoint cadence: applied mutations between durable store
    /// snapshots. Lower = shorter crash replay, more frequent state
    /// serialization cost.
    pub snapshot_every: usize,
    /// Event-store root. Each shard logs and snapshots under
    /// `<store_dir>/shard-N/`; reopening a server on the same directory
    /// restores the audited state. `None` = an ephemeral
    /// per-process directory under the system temp dir, removed at
    /// shutdown.
    pub store_dir: Option<PathBuf>,
    /// Event-store segment roll threshold, bytes: a segment at or past
    /// this size is sealed and a new one started after the next durable
    /// flush.
    pub segment_bytes: usize,
    /// Event-store flush threshold, bytes: buffered appends are written
    /// through to the active segment once they reach this size. `0`
    /// flushes every append, making each acked event durable against a
    /// SIGKILL of the whole process — the setting the cluster chaos suite
    /// runs shard processes with.
    pub flush_bytes: usize,
    /// Fault-injection plan (default inert). The `geosocial-serve` binary
    /// has no flag for it: only in-process hosts (tests, `geosocial-loadgen
    /// --spawn`) arm one. Shards consult the shard-kill entry and their
    /// stores the flush rates; frame faults are client-side.
    pub fault: FaultPlan,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            metrics_every_s: None,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_connections: 256,
            snapshot_every: 1024,
            store_dir: None,
            segment_bytes: 4 * 1024 * 1024,
            flush_bytes: geosocial_store::FLUSH_THRESHOLD,
            fault: FaultPlan::none(),
        }
    }
}

/// Deterministic user→shard assignment: splitmix64 of the user id, modulo
/// the shard count. Every layer (server, load generator, tests) uses this
/// same map, giving clients per-user connection affinity for free.
pub fn shard_of(user: UserId, shards: usize) -> usize {
    (geosocial_fault::mix64(user as u64) % shards.max(1) as u64) as usize
}

/// A request routed to one shard, with the channel its answer goes back
/// on and the trace context it arrived under (None = untraced frame; the
/// shard then records nothing for it).
struct ShardMsg {
    req: Request,
    ctx: Option<TraceContext>,
    reply: mpsc::Sender<Response>,
}

/// One shard worker: open the shard's stores under `store_dir` (restoring
/// its state), answer every routed request through [`Shard::apply`] until
/// the last sender hangs up, then close the shard. A shard that fails to
/// open answers every request with an error instead of hanging
/// connections on a dead channel.
fn shard_worker(
    shard: usize,
    config: Arc<ServerConfig>,
    store_dir: PathBuf,
    rx: mpsc::Receiver<ShardMsg>,
) {
    let queue = queue_gauge(shard);
    let mut opened = Shard::open(shard, &store_dir, &config).map_err(|e| {
        geosocial_obs::error!("serve", "shard failed to open, answering errors";
            shard = shard, dir = format!("{}", store_dir.display()), cause = format!("{e}"));
    });
    while let Ok(ShardMsg { req, ctx, reply }) = rx.recv() {
        queue.dec();
        let resp = match &mut opened {
            Ok(s) => s.apply(&req, ctx),
            Err(()) => Response::Error { message: format!("shard {shard} store unavailable") },
        };
        // A dropped reply receiver means the connection died; keep serving.
        let _ = reply.send(resp);
    }
    if let Ok(s) = opened {
        if let Err(e) = s.close() {
            geosocial_obs::warn!("serve", "final shard flush failed"; shard = shard, cause = format!("{e}"));
        }
    }
}

/// Bounded-concurrency accounting for connection handlers: the acceptor
/// blocks in [`ConnSlots::acquire`] while `max` handlers are live, and
/// shutdown waits in [`ConnSlots::wait_idle`] for the last handler to
/// finish (handlers are detached threads; the slot count is the join).
struct ConnSlots {
    max: usize,
    active: Mutex<usize>,
    cv: Condvar,
    gauge: Arc<Gauge>,
}

impl ConnSlots {
    /// Take a slot; returns `false` if shutdown began while waiting.
    fn acquire(&self, shutdown: &AtomicBool) -> bool {
        let mut active = self.active.lock().expect("slots lock");
        while *active >= self.max {
            if shutdown.load(Ordering::SeqCst) {
                return false;
            }
            let (guard, _) =
                self.cv.wait_timeout(active, Duration::from_millis(50)).expect("slots lock");
            active = guard;
        }
        *active += 1;
        self.gauge.inc();
        true
    }

    fn release(&self) {
        let mut active = self.active.lock().expect("slots lock");
        *active = active.saturating_sub(1);
        self.gauge.dec();
        self.cv.notify_all();
    }

    /// Block until every handler has released its slot.
    fn wait_idle(&self) {
        let mut active = self.active.lock().expect("slots lock");
        while *active > 0 {
            let (guard, _) =
                self.cv.wait_timeout(active, Duration::from_millis(50)).expect("slots lock");
            active = guard;
        }
    }
}

/// RAII slot release for a handler thread.
struct SlotGuard(Arc<ConnSlots>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// The accept loop both serving tiers run (`tier` is `"serve"` or
/// `"router"`: the log target and the prefix of the `<tier>.connections`
/// gauge and `<tier>.conn.errors` counter). Accepts on `listener` until
/// `shutdown` is set — whoever sets it self-connects to unblock `accept`
/// — serving each connection with `handle` on its own thread. Bounded
/// backpressure: a handler slot is taken before accepting, so at most
/// `max_connections` connections are serviced at once and the kernel
/// backlog takes the overflow. `tick` runs once up front and then every
/// second on a ticker thread until the loop ends (the metrics-history
/// ring, plus whatever the tier samples into it). Returns once every
/// handler has finished.
pub(crate) fn accept_loop<H>(
    listener: TcpListener,
    tier: &'static str,
    max_connections: usize,
    shutdown: &AtomicBool,
    mut tick: impl FnMut() + Send + 'static,
    handle: H,
) where
    H: Fn(TcpStream) -> io::Result<()> + Send + Sync + 'static,
{
    let slots = Arc::new(ConnSlots {
        max: max_connections.max(1),
        active: Mutex::new(0),
        cv: Condvar::new(),
        gauge: gauge(&format!("{tier}.connections")),
    });
    let conn_errors = counter(&format!("{tier}.conn.errors"));
    let handle = Arc::new(handle);

    tick();
    let ticker_stop = Arc::new(AtomicBool::new(false));
    let ticker = {
        let stop = Arc::clone(&ticker_stop);
        std::thread::Builder::new()
            .name(format!("geosocial-{tier}-ticker"))
            .spawn(move || {
                let mut ticks = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(100));
                    ticks += 1;
                    if ticks.is_multiple_of(10) {
                        tick();
                    }
                }
            })
            .expect("spawn ticker thread")
    };

    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        if !slots.acquire(shutdown) {
            break; // shutdown began while the tier was at capacity
        }
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) => {
                slots.release();
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                geosocial_obs::warn!(tier, "accept failed: {e}");
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            slots.release();
            break;
        }
        let guard = SlotGuard(Arc::clone(&slots));
        let handle = Arc::clone(&handle);
        let conn_errors = Arc::clone(&conn_errors);
        let spawned =
            std::thread::Builder::new().name(format!("geosocial-{tier}-conn")).spawn(move || {
                let _guard = guard; // released when the handler exits
                let result = handle(stream);
                // Release the handler's captures (the server's shard
                // senders) before the slot: once every slot is free, only
                // this loop still holds them.
                drop(handle);
                if let Err(e) = result {
                    // Peers hanging up mid-frame is routine under churn (and
                    // constant under fault injection): count it, log it
                    // quietly.
                    conn_errors.inc();
                    geosocial_obs::debug!(tier, "connection dropped: {e}");
                }
            });
        if spawned.is_err() {
            // The guard moved into the closure that never ran; the slot
            // was released by its drop. Nothing else to undo.
            geosocial_obs::warn!(tier, "could not spawn a connection handler");
        }
    }
    drop(listener);
    ticker_stop.store(true, Ordering::SeqCst);
    let _ = ticker.join();
    // Handlers are detached; the slot count is their join.
    slots.wait_idle();
}

/// True when an I/O error is an idle-timeout expiry rather than a peer
/// hangup or protocol violation.
pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Per-connection handler: frames in, frames out, strictly 1:1 in order.
/// `queries` is the server-wide count of queries served, which a `Stats`
/// answer reports.
fn handle_conn(
    stream: TcpStream,
    config: &ServerConfig,
    shards: &[mpsc::Sender<ShardMsg>],
    shutdown: &AtomicBool,
    self_addr: SocketAddr,
    queries: &AtomicUsize,
    queues: &[Arc<Gauge>],
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(config.read_timeout)?;
    stream.set_write_timeout(config.write_timeout)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let (reply_tx, reply_rx) = mpsc::channel::<Response>();
    let n = shards.len();
    // Frame buffers reused across the connection: requests decode straight
    // out of `in_buf` (no intermediate String/Value allocation on the
    // binary path) and responses are framed into `out_buf` before one
    // write.
    let mut in_buf: Vec<u8> = Vec::new();
    let mut out_buf: Vec<u8> = Vec::new();

    loop {
        let len = match read_frame_into(&mut reader, &mut in_buf) {
            Ok(Some(len)) => len,
            Ok(None) => break,
            Err(e) if is_timeout(&e) => {
                metrics::conn_timeouts().inc();
                geosocial_obs::info!("serve", "connection idle past the read timeout, dropping");
                break;
            }
            Err(e) => return Err(e),
        };
        // Decode straight from the connection buffer; the format tag picks
        // the codec per frame, so JSON and binary clients share the port
        // (and a client may interleave formats). A trace-context envelope,
        // when present, peels off here and rides the shard message.
        let (req, wire_fmt, ctx) = wire::decode_request_traced(&in_buf[..len])?;
        match wire_fmt {
            WireFormat::Json => metrics::bytes_in_json().add(len as u64 + 4),
            WireFormat::Binary => metrics::bytes_in_binary().add(len as u64 + 4),
        }
        // Timed from post-decode to response-ready: routing + shard work,
        // excluding socket read/write.
        let mut clock = Stopwatch::start();
        let (latency, query) = match req {
            Request::Hello { .. } => (metrics::latency_hello(), false),
            Request::Gps { .. } => (metrics::latency_gps(), false),
            Request::GpsRun { .. } => (metrics::latency_run(), false),
            Request::Checkin { .. } => (metrics::latency_checkin(), false),
            Request::User { .. } => (metrics::latency_user(), true),
            Request::AsOf { .. } => (metrics::latency_asof(), true),
            Request::Window { .. } => (metrics::latency_window(), true),
            Request::Stats => (metrics::latency_stats(), true),
            Request::Metrics => (metrics::latency_metrics(), true),
            Request::Traces { .. } => (metrics::latency_traces(), true),
            Request::MetricsHistory { .. } => (metrics::latency_history(), true),
            Request::Finish | Request::Shutdown => (metrics::latency_finish(), false),
            // Cluster control answered with an error below; bucket with
            // the other control queries.
            Request::ShardMap | Request::Handoff { .. } => (metrics::latency_stats(), false),
        };
        if query {
            queries.fetch_add(1, Ordering::Relaxed);
            metrics::queries().inc();
        }
        // Route exactly as the cluster router does (`wire::route_of`): one
        // shard for user-addressed requests, every shard for broadcasts,
        // inline for control.
        let resp = match (wire::route_of(&req), req) {
            (RoutePeek::User(user), req) => {
                let shard = shard_of(user, n);
                queues[shard].inc();
                if shards[shard].send(ShardMsg { req, ctx, reply: reply_tx.clone() }).is_ok() {
                    reply_rx.recv().unwrap_or_else(|_| shard_gone())
                } else {
                    shard_gone()
                }
            }
            (_, Request::Traces { trace_id: Some(id), .. })
                if geosocial_obs::trace::parse_trace_id(&id).is_none() =>
            {
                Response::Error {
                    message: format!("bad trace id {id:?}: want up to 32 hex digits"),
                }
            }
            (RoutePeek::Broadcast, req) => {
                let slowest = match req {
                    Request::Traces { slowest, .. } => Some(slowest),
                    _ => None,
                };
                // Broadcasts stay untraced: fanning one context out to
                // every shard would record N copies of the same leg, and
                // the traced acceptance path (ingest) is always
                // single-shard.
                for (shard, tx) in shards.iter().enumerate() {
                    queues[shard].inc();
                    let _ =
                        tx.send(ShardMsg { req: req.clone(), ctx: None, reply: reply_tx.clone() });
                }
                let replies = replies(&reply_rx, n);
                let mut resp = match slowest {
                    Some(slowest) => crate::merge::merge_trace_responses(replies, slowest),
                    None => crate::merge::merge_responses(replies),
                };
                // Shards count events; the handlers count queries.
                if let Response::Stats { stats } = &mut resp {
                    stats.queries = queries.load(Ordering::Relaxed);
                }
                resp
            }
            // Metrics and history are served here, never routed: a scrape
            // must stay cheap and answerable even while every shard queue
            // is deep.
            (RoutePeek::Control, Request::Metrics) => {
                Response::Metrics { text: geosocial_obs::render_text() }
            }
            (RoutePeek::Control, Request::MetricsHistory { last }) => {
                Response::MetricsHistory { report: history_report(last) }
            }
            (RoutePeek::Control, Request::Shutdown) => {
                shutdown.store(true, Ordering::SeqCst);
                // Unblock the acceptor so it can observe the flag.
                let _ = TcpStream::connect(self_addr);
                Response::Ok
            }
            (RoutePeek::Control, _) => Response::Error {
                message: "cluster control request sent to a shard server \
                          (connect to geosocial-router instead)"
                    .into(),
            },
        };
        let us = clock.lap_us();
        latency.observe(us);
        match wire_fmt {
            WireFormat::Json => metrics::latency_wire_json().observe(us),
            WireFormat::Binary => metrics::latency_wire_binary().observe(us),
        }
        // Answer in the format the request arrived in (control-plane
        // responses stay JSON; see `crate::wire`).
        out_buf.clear();
        wire::encode_response_frame(&mut out_buf, &resp, wire_fmt)?;
        match wire_fmt {
            WireFormat::Json => metrics::bytes_out_json().add(out_buf.len() as u64),
            WireFormat::Binary => metrics::bytes_out_binary().add(out_buf.len() as u64),
        }
        writer.write_all(&out_buf)?;
        writer.flush()?;
    }
    Ok(())
}

use crate::merge::shard_gone;

/// The `n` replies to one broadcast, awaited in arrival order (a hung-up
/// worker answers [`shard_gone`]); merged by [`crate::merge`], which the
/// cluster router shares.
fn replies(rx: &mpsc::Receiver<Response>, n: usize) -> impl Iterator<Item = Response> + '_ {
    (0..n).map(|_| rx.recv().unwrap_or_else(|_| shard_gone()))
}

/// Build a `MetricsHistory` answer from the obs history ring: the last
/// `last` snapshots (0 = all), with per-counter delta and rate computed
/// between the oldest and newest returned points.
pub(crate) fn history_report(last: usize) -> MetricsHistoryReport {
    let points = geosocial_obs::history(last);
    let Some((first, rest)) = points.split_first() else {
        return MetricsHistoryReport { points: 0, span_s: 0.0, rates: Vec::new() };
    };
    let newest = rest.last().unwrap_or(first);
    let span_s = newest.at_us.saturating_sub(first.at_us) as f64 / 1e6;
    let rates = newest
        .snap
        .counters
        .iter()
        .map(|(name, &v1)| {
            let v0 = first.snap.counters.get(name).copied().unwrap_or(0);
            let delta = v1.saturating_sub(v0);
            SeriesRate {
                name: name.clone(),
                last: v1,
                delta,
                per_sec: if span_s > 0.0 { delta as f64 / span_s } else { 0.0 },
            }
        })
        .collect();
    MetricsHistoryReport { points: points.len(), span_s, rates }
}

/// A running server bound to a local address.
pub struct ServerHandle {
    addr: SocketAddr,
    thread: JoinHandle<io::Result<ServerStats>>,
}

impl ServerHandle {
    /// The address the server accepts on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for the server to stop (a client must send `Shutdown`) and
    /// return the final counters.
    pub fn join(self) -> io::Result<ServerStats> {
        self.thread.join().map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve in a
/// background thread.
pub fn spawn(config: ServerConfig, addr: &str) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let thread = std::thread::Builder::new()
        .name("geosocial-serve".into())
        .spawn(move || run_with(listener, config))?;
    Ok(ServerHandle { addr: local, thread })
}

/// Serve on an already-bound listener until a client requests `Shutdown`.
/// Returns the final merged counters, after dumping them to stderr.
pub fn run_with(listener: TcpListener, config: ServerConfig) -> io::Result<ServerStats> {
    let config = Arc::new(config);
    let self_addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let queries = Arc::new(AtomicUsize::new(0));
    let queues: Vec<Arc<Gauge>> = (0..config.shards.max(1)).map(queue_gauge).collect();

    // Event-store root: the configured directory, or an ephemeral
    // per-process one (unique even across servers in one process) that is
    // removed after the workers exit.
    static EPHEMERAL_STORE_SEQ: AtomicU64 = AtomicU64::new(0);
    let (store_root, ephemeral) = match &config.store_dir {
        Some(dir) => (dir.clone(), false),
        None => {
            let seq = EPHEMERAL_STORE_SEQ.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("geosocial-serve-{}-{seq}", std::process::id()));
            (dir, true)
        }
    };
    std::fs::create_dir_all(&store_root)?;

    // Shard workers.
    let mut shard_txs = Vec::with_capacity(config.shards.max(1));
    let mut shard_threads = Vec::new();
    for shard in 0..config.shards.max(1) {
        let (tx, rx) = mpsc::channel::<ShardMsg>();
        let cfg = Arc::clone(&config);
        let dir = store_root.join(format!("shard-{shard}"));
        shard_threads.push(
            std::thread::Builder::new()
                .name(format!("geosocial-shard-{shard}"))
                .spawn(move || shard_worker(shard, cfg, dir, rx))?,
        );
        shard_txs.push(tx);
    }

    // Ticker: snapshot the registry into the obs history ring once a
    // second, so `MetricsHistory` can answer with rates (the first tick
    // lands at once, so the ring is never empty), and — when
    // `metrics_every_s` is set — dump the whole registry to stderr on that
    // cadence, for operators who tail the log instead of polling `Metrics`.
    let expo_every_s = config.metrics_every_s.map(|s| s.max(1));
    let mut secs = 0u64;
    let tick = move || {
        geosocial_obs::history_tick();
        if expo_every_s.is_some_and(|every| secs > 0 && secs.is_multiple_of(every)) {
            geosocial_obs::info!("serve", "periodic metrics exposition");
            eprint!("{}", geosocial_obs::render_text());
            io::stderr().flush().ok();
        }
        secs += 1;
    };
    let handle = {
        let (config, shutdown, queries) =
            (Arc::clone(&config), Arc::clone(&shutdown), Arc::clone(&queries));
        let shards = shard_txs.clone();
        move |stream| handle_conn(stream, &config, &shards, &shutdown, self_addr, &queries, &queues)
    };
    accept_loop(listener, "serve", config.max_connections, &shutdown, tick, handle);

    // Collect final stats, then let the workers exit.
    let (reply_tx, reply_rx) = mpsc::channel::<Response>();
    for tx in &shard_txs {
        let _ = tx.send(ShardMsg { req: Request::Stats, ctx: None, reply: reply_tx.clone() });
    }
    drop(reply_tx);
    let mut final_stats = match crate::merge::merge_responses(replies(&reply_rx, shard_txs.len())) {
        Response::Stats { stats } => stats,
        _ => ServerStats::default(),
    };
    final_stats.queries = queries.load(Ordering::Relaxed);
    drop(shard_txs);
    for t in shard_threads {
        let _ = t.join();
    }
    if ephemeral {
        // Nothing asked for persistence; don't leak temp-dir segments.
        let _ = std::fs::remove_dir_all(&store_root);
    }

    // The shutdown dump: one structured line per shard plus the aggregate.
    for s in &final_stats.per_shard {
        geosocial_obs::info!("serve", "shard final counters";
            shard = s.shard,
            users = s.users,
            gps = s.gps_events,
            checkins = s.checkin_events,
            verdicts = s.verdicts,
            duplicates = s.duplicates,
            recoveries = s.recoveries,
        );
    }
    geosocial_obs::info!("serve", "server final counters";
        users = final_stats.users,
        gps = final_stats.gps_events,
        checkins = final_stats.checkin_events,
        verdicts = final_stats.verdicts,
        queries = final_stats.queries,
        duplicates = final_stats.duplicates,
        recoveries = final_stats.recoveries,
        honest = final_stats.composition.honest,
        extraneous = final_stats.composition.extraneous(),
    );
    io::stderr().flush().ok();
    Ok(final_stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::WireFix;
    use geosocial_store::{EventStore, StoreOptions};

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("geosocial-serve-server-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Frame shape does not matter: the same events sent one fix per
    /// `Gps` frame or batched into `GpsRun`s give the same verdicts, the
    /// same shard state and the same store records, and the batched
    /// shard's store restores to that state.
    #[test]
    fn frame_shape_does_not_change_verdicts_state_or_store() {
        let config = ServerConfig::default();
        let user = 7;
        // A 40-minute stay near the origin, a checkin at its end (an
        // honest verdict), then a move away.
        let fixes: Vec<WireFix> = (0..12)
            .map(|i| WireFix {
                t: 300 * i,
                lat: if i < 9 { 34.42 + 0.00001 * (i % 3) as f64 } else { 34.44 + 0.01 * i as f64 },
                lon: -119.86,
            })
            .collect();
        let hello = Request::Hello { origin_lat: 34.42, origin_lon: -119.86 };
        let checkin =
            Request::Checkin { user, seq: 9, t: 2_450, poi: 3, lat: 34.4201, lon: -119.86 };
        let gps = |i: usize| Request::Gps {
            user,
            seq: if i < 9 { i } else { i + 1 } as u64,
            t: fixes[i].t,
            lat: fixes[i].lat,
            lon: fixes[i].lon,
        };
        let mut per_fix = vec![hello.clone()];
        per_fix.extend((0..9).map(gps));
        per_fix.push(checkin.clone());
        per_fix.extend((9..12).map(gps));
        per_fix.push(Request::Finish);
        let batched = vec![
            hello,
            Request::GpsRun { user, first_seq: 0, fixes: fixes[..9].to_vec() },
            checkin,
            Request::GpsRun { user, first_seq: 10, fixes: fixes[9..10].to_vec() },
            Request::GpsRun { user, first_seq: 11, fixes: fixes[10..].to_vec() },
            Request::Finish,
        ];

        let mut outcomes = Vec::new();
        for (tag, reqs) in [("per-fix", &per_fix), ("batched", &batched)] {
            let dir = fresh_dir(tag);
            let mut shard = Shard::open(0, &dir, &config).expect("open shard");
            let mut verdicts = Vec::new();
            for req in reqs {
                match shard.apply(req, None) {
                    Response::Verdicts { verdicts: v } => verdicts.extend(v),
                    Response::Ok if matches!(req, Request::Hello { .. }) => {}
                    other => panic!("{tag}: expected Verdicts, got {other:?}"),
                }
            }
            let state = crate::snapshot::encode_state(shard.state());
            shard.close().expect("close shard");
            // Fewer records than `snapshot_every`: the delta is the log.
            let records: Vec<(u32, i64, Vec<u8>)> = EventStore::open(&dir, StoreOptions::default())
                .and_then(|store| store.replay_delta())
                .expect("read the log")
                .into_iter()
                .map(|r| (r.user, r.t, r.payload))
                .collect();
            let restored = Shard::open(0, &dir, &config).expect("reopen shard");
            outcomes.push((
                format!("{verdicts:?}"),
                state,
                records,
                crate::snapshot::encode_state(restored.state()),
            ));
            drop(restored);
            let _ = std::fs::remove_dir_all(&dir);
        }
        let (per_fix, batched) = (&outcomes[0], &outcomes[1]);
        assert!(per_fix.0.contains("AuditVerdict"), "the stream produced no verdict");
        assert_eq!(per_fix.0, batched.0, "verdicts differ by frame shape");
        assert_eq!(per_fix.1, batched.1, "shard state differs by frame shape");
        // Hello sentinel, 13 events, Finish sentinel.
        assert_eq!(per_fix.2.len(), 15);
        assert_eq!(per_fix.2, batched.2, "store records differ by frame shape");
        assert_eq!(batched.3, batched.1, "restoring the batched store changed the state");
    }

    /// A shard whose history does not decode degrades to answering every
    /// request with an error, and the worker still exits when the server
    /// hangs up.
    #[test]
    fn worker_with_an_unreadable_history_answers_errors() {
        let dir = fresh_dir("unreadable");
        let mut store = EventStore::open(&dir, StoreOptions::default()).expect("open store");
        store.snapshot(&[0xFF; 8]).expect("write a CRC-valid, undecodable snapshot");
        drop(store);
        let (tx, rx) = mpsc::channel();
        let worker = {
            let dir = dir.clone();
            std::thread::spawn(move || shard_worker(0, Arc::new(ServerConfig::default()), dir, rx))
        };
        let (reply_tx, reply_rx) = mpsc::channel();
        for req in [Request::Stats, Request::User { user: 7 }] {
            queue_gauge(0).inc();
            tx.send(ShardMsg { req, ctx: None, reply: reply_tx.clone() }).expect("worker alive");
            match reply_rx.recv().expect("worker answers") {
                Response::Error { message } => {
                    assert!(message.contains("unavailable"), "{message}")
                }
                other => panic!("an unreadable shard answered {other:?}"),
            }
        }
        drop(tx);
        worker.join().expect("worker exits cleanly");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
