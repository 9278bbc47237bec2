//! The `geosocial-serve` TCP server.
//!
//! Architecture: one acceptor thread, one handler thread per connection,
//! and a fixed pool of **shard worker threads** that own the per-user
//! auditing state. Users are assigned to shards by a splitmix64 hash (the
//! same derivation style `geosocial-par` and the scenario generator use for
//! deterministic fan-out), so a user's events always serialize through one
//! shard regardless of which connection delivers them.
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
//! * **Exactly-once ingest** — ingest requests carry a per-user sequence
//!   number; a shard applies `seq == next`, acknowledges `seq < next`
//!   without re-applying, and rejects gaps. Clients may therefore retry
//!   over fresh connections ad libitum without perturbing any verdict.
//! * **Durable event store** — every applied mutation is appended to a
//!   per-shard log-structured store (`geosocial-store`): CRC-framed
//!   records in append-only segments, with the shard state checkpointed
//!   into a compacted snapshot every [`ServerConfig::snapshot_every`]
//!   mutations. Segments are never deleted — the log *is* the history —
//!   which is what powers the time-travel reads below.
//! * **Crash recovery** — a panic while applying a command (injected by a
//!   `geosocial-fault` plan or genuine) is caught by the worker's
//!   supervisor loop, the state is rebuilt from the store's last snapshot
//!   plus its replay delta — the auditors are deterministic, so the
//!   rebuilt shard reconverges to identical verdicts — and the offending
//!   command is retried once. With a persistent
//!   [`ServerConfig::store_dir`], the same decode-and-replay path
//!   restores state across full process restarts.
//! * **Time-travel audits** — `AsOf { user, t }` re-audits a user's
//!   stored events with `t_event <= t` through a fresh auditor (equal to
//!   a batch audit truncated at that watermark) and `Window { cohort,
//!   t0, t1 }` answers cohort compositions over a time range — both
//!   online, while ingest and replay continue.
//! * **Graceful drain** — the `Drain` request reports residual state
//!   (pending checkins, open visits/windows) and,
//!   when asked to finalize, flushes it all before the operator sends
//!   `Shutdown`.
//!
//! Shutdown is cooperative and std-only: a `Shutdown` request flips a flag
//! and self-connects to unblock the acceptor; shard workers exit when the
//! last channel sender drops, and the final per-shard counters are dumped
//! to stderr before `run_with` returns. (There is no SIGTERM hook — `std`
//! exposes no signal API — so `drain`/`stats`/`shutdown` requests are the
//! supported ways to quiesce a live server.)

use geosocial_fault::FaultPlan;
use geosocial_geo::LatLon;
use geosocial_obs::trace::{
    now_us, promote_flags, task_end, task_mark, task_span, SpanRecord, TraceContext,
    DEFAULT_SLOW_US, FLAG_DEDUP, FLAG_RECOVERY, FLAG_RETRY,
};
use geosocial_obs::{counter, gauge, Counter, Gauge, Stopwatch};
use geosocial_store::{EventStore, StoreOptions, SENTINEL_USER};
use geosocial_stream::{AuditConfig, AuditVerdict, OnlineAuditor, StreamComposition};
use geosocial_trace::{Checkin, GpsPoint, PoiCategory, UserId};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::iter;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::protocol::{
    read_frame_into, DrainReport, MetricsHistoryReport, Request, Response, SeriesRate, ServerStats,
    ShardStats, TraceDump, TraceSpan, WireFix,
};
use crate::wire::{self, RoutePeek, WireFormat};

/// Cached handles to the serving layer's fixed-name metric series.
/// Per-shard series (`serve.shard.N.*`) are indexed by shard count and
/// live in [`ShardMetrics`] instead.
mod metrics {
    use geosocial_obs::{counter, histogram, Counter, Histogram};
    use std::sync::{Arc, OnceLock};

    macro_rules! cached {
        ($fn_name:ident, $ctor:ident, $ty:ty, $name:literal) => {
            pub(super) fn $fn_name() -> &'static $ty {
                static H: OnceLock<Arc<$ty>> = OnceLock::new();
                H.get_or_init(|| $ctor($name))
            }
        };
    }

    cached!(events_gps, counter, Counter, "serve.events.gps");
    cached!(events_checkin, counter, Counter, "serve.events.checkin");
    cached!(queries, counter, Counter, "serve.queries");
    cached!(verdicts, counter, Counter, "serve.verdicts");
    cached!(duplicates, counter, Counter, "serve.duplicates");
    cached!(recoveries, counter, Counter, "serve.recoveries");
    cached!(conn_timeouts, counter, Counter, "serve.conn.timeouts");
    cached!(drains, counter, Counter, "serve.drains");
    cached!(latency_hello, histogram, Histogram, "serve.latency_us.hello");
    cached!(latency_gps, histogram, Histogram, "serve.latency_us.gps");
    cached!(latency_run, histogram, Histogram, "serve.latency_us.run");
    cached!(latency_checkin, histogram, Histogram, "serve.latency_us.checkin");
    cached!(latency_user, histogram, Histogram, "serve.latency_us.user");
    cached!(latency_asof, histogram, Histogram, "serve.latency_us.asof");
    cached!(latency_window, histogram, Histogram, "serve.latency_us.window");
    cached!(latency_stats, histogram, Histogram, "serve.latency_us.stats");
    cached!(latency_finish, histogram, Histogram, "serve.latency_us.finish");
    cached!(latency_drain, histogram, Histogram, "serve.latency_us.drain");
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

/// One shard's exported series. Created once per worker; the queue gauge
/// is shared with every connection handler (inc on send, dec on receive).
pub(crate) struct ShardMetrics {
    queue: Arc<Gauge>,
    users: Arc<Gauge>,
    late_dropped: Arc<Gauge>,
    forced: Arc<Gauge>,
    verdicts: Arc<Counter>,
}

impl ShardMetrics {
    fn new(shard: usize) -> Self {
        Self {
            queue: queue_gauge(shard),
            users: gauge(&format!("serve.shard.{shard}.users")),
            late_dropped: gauge(&format!("serve.shard.{shard}.late_dropped")),
            forced: gauge(&format!("serve.shard.{shard}.forced")),
            verdicts: counter(&format!("serve.shard.{shard}.verdicts")),
        }
    }

    /// Refresh the composition-derived gauges from the live auditor slab.
    /// O(users) over contiguous memory, so the worker calls it amortized
    /// (every [`GAUGE_REFRESH_EVERY`] ingests) and on `Stats`/`Finish`.
    fn refresh(&self, auditors: &[OnlineAuditor]) {
        self.users.set(auditors.len() as i64);
        let mut late = 0i64;
        let mut forced = 0i64;
        for a in auditors {
            let c = a.composition();
            late += c.late_dropped as i64;
            forced += c.forced as i64;
        }
        self.late_dropped.set(late);
        self.forced.set(forced);
    }
}

/// Ingests between composition-gauge refreshes on a shard.
const GAUGE_REFRESH_EVERY: usize = 256;

/// The shard's request-queue depth gauge — the one shard series handlers
/// also touch, so it goes through the registry (same name → same handle).
fn queue_gauge(shard: usize) -> Arc<Gauge> {
    gauge(&format!("serve.shard.{shard}.queue"))
}

/// Server-side knobs: shard count and the robustness knobs (timeouts,
/// backpressure, checkpoint cadence, fault plan). There are no audit
/// knobs: every shard audits with the paper's thresholds,
/// [`AuditConfig::paper`] at the origin the client's `Hello` fixes, so a
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
    /// Fault-injection plan (inert unless built with `fault-inject` and
    /// given non-zero rates). The server consults only the shard-kill
    /// entry; frame faults are client-side.
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
/// worker then records nothing for it).
struct ShardMsg {
    cmd: ShardCmd,
    ctx: Option<TraceContext>,
    reply: mpsc::Sender<Response>,
}

/// A request as a shard worker sees it: every request that reaches a
/// worker, and nothing else — metrics, shutdown and cluster control are
/// answered by the connection handler.
#[derive(Clone)]
pub(crate) enum ShardCmd {
    SetOrigin { origin: LatLon },
    Gps { user: UserId, seq: u64, point: GpsPoint },
    GpsRun { user: UserId, first_seq: u64, fixes: Vec<WireFix> },
    Checkin { user: UserId, seq: u64, checkin: Checkin },
    Query { user: UserId },
    AsOf { user: UserId, t: i64 },
    Window { cohort: Vec<UserId>, t0: i64, t1: i64 },
    Traces { trace_id: Option<u128>, slowest: usize, path: Option<String> },
    Stats,
    Drain { finalize: bool },
    Finish,
}

/// The shard command a request becomes, or `None` for the requests the
/// connection handler answers itself. Shared by the live connection
/// handler, crash replay and historical reads: the event store logs one
/// record per applied event, and every reader decodes each record back
/// into a [`Request`] ([`crate::snapshot::decode_event`]) and converts it
/// here exactly like a fresh delivery. A malformed `Traces` id filters
/// nothing here; the handler rejects it before routing.
fn shard_cmd(req: Request) -> Option<ShardCmd> {
    Some(match req {
        Request::Hello { origin_lat, origin_lon } => {
            ShardCmd::SetOrigin { origin: LatLon::new(origin_lat, origin_lon) }
        }
        Request::Gps { user, seq, t, lat, lon } => {
            ShardCmd::Gps { user, seq, point: GpsPoint { t, pos: LatLon::new(lat, lon) } }
        }
        Request::GpsRun { user, first_seq, fixes } => ShardCmd::GpsRun { user, first_seq, fixes },
        Request::Checkin { user, seq, t, poi, lat, lon } => ShardCmd::Checkin {
            user,
            seq,
            checkin: Checkin {
                t,
                poi,
                // The wire format carries no category; auditing never
                // reads it.
                category: PoiCategory::Food,
                location: LatLon::new(lat, lon),
                provenance: None,
            },
        },
        Request::User { user } => ShardCmd::Query { user },
        Request::AsOf { user, t } => ShardCmd::AsOf { user, t },
        Request::Window { cohort, t0, t1 } => ShardCmd::Window { cohort, t0, t1 },
        Request::Traces { trace_id, slowest, path } => ShardCmd::Traces {
            trace_id: trace_id.as_deref().and_then(geosocial_obs::trace::parse_trace_id),
            slowest,
            path,
        },
        Request::Stats => ShardCmd::Stats,
        Request::Drain { finalize } => ShardCmd::Drain { finalize },
        Request::Finish => ShardCmd::Finish,
        Request::Metrics
        | Request::MetricsHistory { .. }
        | Request::Shutdown
        | Request::ShardMap
        | Request::Handoff { .. } => return None,
    })
}

/// One ingest event inside a frame: a `Gps` frame carries one fix, a
/// `GpsRun` several, a `Checkin` one checkin — all apply through
/// [`ShardState::ingest`].
enum Event {
    Gps(GpsPoint),
    Checkin(Checkin),
}

impl Event {
    /// Encode the event's store record body (sequence number `seq`) into
    /// `buf`; returns the event time the record is keyed by.
    fn record(&self, buf: &mut Vec<u8>, seq: u64) -> i64 {
        match self {
            Event::Gps(p) => {
                crate::snapshot::gps_payload(buf, seq, p.pos.lat, p.pos.lon);
                p.t
            }
            Event::Checkin(c) => {
                crate::snapshot::checkin_payload(buf, seq, c.poi, c.location.lat, c.location.lon);
                c.t
            }
        }
    }
}

/// Append one applied event to the shard's store, tolerating flush
/// failures: on error the record stays buffered in the active segment
/// (still visible to in-process recovery and queries, which read the
/// store's in-memory mirror) and the flush retries on the next append —
/// so a transient filesystem fault costs a durability window, never an
/// acknowledged event.
///
/// Records are **per event**, not per command: an applied `GpsRun` logs
/// one record per fix, appended as each fix applies. A worker crash
/// mid-run therefore leaves exactly the applied prefix in the store,
/// which is what makes the retry dedup per-event instead of per-frame.
fn append_logged(store: &mut EventStore, user: u32, t: i64, payload: &[u8]) {
    // Only timed when the worker opened a trace task for this command;
    // the untraced hot path pays one thread-local read.
    let traced = geosocial_obs::trace::task_ctx().is_some();
    let t0 = if traced { now_us() } else { 0 };
    if let Err(e) = store.append(user, t, payload) {
        geosocial_obs::warn!("serve", "store append flush failed, record buffered: {e}");
    }
    if traced {
        task_span("store.append", t0, now_us().saturating_sub(t0), 0);
    }
}

/// The crash-replaceable part of a shard: everything `ShardCmd`s mutate.
/// Serializing it into the event store ([`crate::snapshot::encode_state`])
/// is the checkpoint; decoding the last snapshot and re-applying the
/// store's replay delta is the recovery.
///
/// Per-user state lives in a **dense slab**: `slot_of` is consulted once
/// per frame to map the user id to a compact slot, and the hot per-user
/// fields are parallel vectors indexed by that slot (struct-of-arrays), so
/// ingest, gauge refreshes, stats and drains scan contiguous memory
/// instead of chasing `HashMap` buckets.
pub(crate) struct ShardState {
    pub(crate) shard: usize,
    pub(crate) audit: Option<AuditConfig>,
    /// User id → slot in the parallel vectors below. Touched once per
    /// frame; everything after is slot-indexed.
    pub(crate) slot_of: HashMap<UserId, usize>,
    /// Slot → user id (the slab never frees slots; users are permanent for
    /// the session, matching the auditing model).
    pub(crate) users: Vec<UserId>,
    /// Slot → next expected ingest sequence number (exactly-once dedup).
    pub(crate) next_seq: Vec<u64>,
    /// Slot → the user's online auditor.
    pub(crate) auditors: Vec<OnlineAuditor>,
    pub(crate) stats: ShardStats,
    pub(crate) finished: bool,
}

impl ShardState {
    pub(crate) fn new(shard: usize) -> Self {
        Self {
            shard,
            audit: None,
            slot_of: HashMap::new(),
            users: Vec::new(),
            next_seq: Vec::new(),
            auditors: Vec::new(),
            stats: ShardStats { shard, ..Default::default() },
            finished: false,
        }
    }

    /// Session gate common to every ingest: `Hello` must have fixed the
    /// origin and the stream must not be finished.
    fn gate(&self) -> Option<Response> {
        if self.audit.is_none() {
            return Some(hello_first());
        }
        if self.finished {
            return Some(after_finish());
        }
        None
    }

    /// Allocate slab entries for a user on first contact. Only called
    /// after [`ShardState::gate`], so the audit config exists.
    fn new_slot(&mut self, user: UserId) -> usize {
        let s = self.users.len();
        self.slot_of.insert(user, s);
        self.users.push(user);
        self.next_seq.push(0);
        let audit = self.audit.clone().expect("gated on Hello");
        self.auditors.push(OnlineAuditor::new(user, audit));
        s
    }

    /// The fault plan's kill point, consulted once per **applied event**
    /// (never during replay) — so a planned crash can land mid-`GpsRun`,
    /// which is exactly the case the per-event retry contract must survive.
    fn kill_check(&self, config: &ServerConfig, obs: Option<&ShardMetrics>) {
        if obs.is_some() {
            let applied = self.stats.gps_events + self.stats.checkin_events;
            if config.fault.should_kill(self.shard, applied as u64) {
                panic!("injected fault: shard {} killed before ingest {}", self.shard, applied);
            }
        }
    }

    /// Apply one ingest frame: `events` carry sequence numbers `first_seq`,
    /// `first_seq + 1`, …. This is the per-event sequence contract —
    /// events below the user's next expected sequence number are a retried
    /// delivery (e.g. a run partially applied before a fault) and are
    /// acknowledged without re-applying, a frame starting past it is a gap
    /// and is rejected whole, and every remaining event applies and logs
    /// one store record in order. A rejected frame leaves no trace: the
    /// user's slot is only allocated once the frame is accepted.
    fn ingest(
        &mut self,
        user: UserId,
        first_seq: u64,
        events: impl ExactSizeIterator<Item = Event>,
        config: &ServerConfig,
        obs: Option<&ShardMetrics>,
        mut store: Option<&mut EventStore>,
    ) -> Response {
        if let Some(resp) = self.gate() {
            return resp;
        }
        let known = self.slot_of.get(&user).copied();
        let next = known.map_or(0, |s| self.next_seq[s]);
        if first_seq > next {
            return gap_error(user, first_seq, next);
        }
        let slot = known.unwrap_or_else(|| self.new_slot(user));
        let dup = ((next - first_seq) as usize).min(events.len());
        if dup > 0 {
            self.stats.duplicates += dup;
            if obs.is_some() {
                metrics::duplicates().add(dup as u64);
                // A retried delivery hit the dedup path: mark the trace
                // (no-op without an active task, and skipped during
                // replay where obs is None).
                task_mark("serve.dedup", FLAG_DEDUP);
            }
        }
        let mut buf = Vec::new();
        for (seq, event) in (first_seq..).zip(events).skip(dup) {
            self.kill_check(config, obs);
            self.next_seq[slot] += 1;
            match event {
                Event::Gps(point) => {
                    self.auditors[slot].push_gps(point);
                    self.stats.gps_events += 1;
                    if obs.is_some() {
                        metrics::events_gps().inc();
                    }
                }
                Event::Checkin(checkin) => {
                    self.auditors[slot].push_checkin(checkin);
                    self.stats.checkin_events += 1;
                    if obs.is_some() {
                        metrics::events_checkin().inc();
                    }
                }
            }
            if let Some(st) = store.as_deref_mut() {
                let t = event.record(&mut buf, seq);
                append_logged(st, user, t, &buf);
            }
        }
        self.emit_verdicts(slot, obs)
    }

    /// Apply one command. `obs` carries the metric handles for live
    /// processing and is `None` during crash replay, where the state (and
    /// `stats`) must reconverge but the process-global metrics must not be
    /// double-counted. `store` receives one record per **applied event**
    /// (also `None` during replay, so replayed events are not re-logged) —
    /// appended as each event applies, so a crash mid-command leaves
    /// exactly the applied prefix in the store.
    pub(crate) fn apply(
        &mut self,
        cmd: &ShardCmd,
        config: &ServerConfig,
        obs: Option<&ShardMetrics>,
        mut store: Option<&mut EventStore>,
    ) -> Response {
        match cmd {
            ShardCmd::SetOrigin { origin } => match &self.audit {
                Some(a)
                    if a.origin.lat.to_bits() != origin.lat.to_bits()
                        || a.origin.lon.to_bits() != origin.lon.to_bits() =>
                {
                    Response::Error {
                        message: format!(
                            "origin already fixed at ({}, {})",
                            a.origin.lat, a.origin.lon
                        ),
                    }
                }
                Some(_) => Response::Ok,
                None => {
                    self.audit = Some(AuditConfig::paper(*origin));
                    if let Some(st) = store.as_deref_mut() {
                        let mut buf = Vec::new();
                        crate::snapshot::hello_payload(&mut buf, *origin);
                        append_logged(st, SENTINEL_USER, 0, &buf);
                    }
                    Response::Ok
                }
            },
            ShardCmd::Gps { user, seq, point } => {
                self.ingest(*user, *seq, iter::once(Event::Gps(*point)), config, obs, store)
            }
            ShardCmd::GpsRun { user, first_seq, fixes } => {
                let points = fixes
                    .iter()
                    .map(|f| Event::Gps(GpsPoint { t: f.t, pos: LatLon::new(f.lat, f.lon) }));
                self.ingest(*user, *first_seq, points, config, obs, store)
            }
            ShardCmd::Checkin { user, seq, checkin } => {
                self.ingest(*user, *seq, iter::once(Event::Checkin(*checkin)), config, obs, store)
            }
            ShardCmd::Query { user } => match self.slot_of.get(user) {
                Some(&s) => Response::Composition { composition: self.auditors[s].composition() },
                None => Response::Error { message: format!("unknown user {user}") },
            },
            ShardCmd::AsOf { user, t } => {
                let Some(audit) = self.audit.clone() else {
                    return hello_first();
                };
                let Some(st) = store.as_deref() else {
                    return store_needed();
                };
                match audit_stored(st, *user, i64::MIN, *t, audit) {
                    Ok(composition) => Response::AsOf { composition, applied: st.applied(*user) },
                    Err(message) => Response::Error { message },
                }
            }
            ShardCmd::Window { cohort, t0, t1 } => {
                let Some(audit) = self.audit.clone() else {
                    return hello_first();
                };
                let Some(st) = store.as_deref() else {
                    return store_needed();
                };
                let mut compositions = Vec::new();
                for &user in cohort {
                    // Only the cohort members this shard owns; the
                    // broadcast merge concatenates across shards. Users
                    // never seen contribute nothing rather than an empty
                    // composition.
                    if !self.slot_of.contains_key(&user) {
                        continue;
                    }
                    match audit_stored(st, user, *t0, *t1, audit.clone()) {
                        Ok(composition) => compositions.push(composition),
                        Err(message) => return Response::Error { message },
                    }
                }
                Response::Compositions { compositions }
            }
            ShardCmd::Traces { .. } => {
                // Normally intercepted by the worker loop (which owns the
                // trace store); reaching `apply` means the shard has no
                // trace stream to read — answer empty rather than error.
                Response::Traces { traces: Vec::new() }
            }
            ShardCmd::Stats => {
                self.stats.users = self.auditors.len();
                let mut total = ServerStats::default();
                let mut comp = StreamComposition::default();
                let mut buffered = 0;
                for a in &self.auditors {
                    comp.merge(&a.composition());
                    buffered += a.state_size();
                }
                total.absorb(self.stats.clone(), comp, buffered);
                Response::Stats { stats: total }
            }
            ShardCmd::Drain { finalize } => {
                let mut report = DrainReport {
                    shards: 1,
                    users: self.auditors.len(),
                    finalized: self.finished,
                    ..Default::default()
                };
                for a in &self.auditors {
                    report.pending_checkins += a.composition().pending_checkins;
                    report.open_visits += a.open_visits();
                    report.open_window_fixes += a.open_window_fixes();
                }
                if *finalize && !self.finished {
                    // Everything still pending is finalized with the
                    // evidence at hand — record how much that was.
                    report.forced_by_drain = report.pending_checkins;
                    report.verdicts_flushed = self.finalize(obs, store.as_deref_mut()).len();
                    report.finalized = true;
                }
                if let Some(st) = store.as_deref() {
                    report.store_records = st.next_lsn();
                    report.store_segments = st.segment_count();
                    report.store_bytes = st.total_bytes();
                }
                for a in &self.auditors {
                    report.composition.merge(&a.composition());
                }
                Response::Drained { report }
            }
            ShardCmd::Finish => Response::Verdicts { verdicts: self.finalize(obs, store) },
        }
    }

    /// Slots in ascending user-id order — finalization iterates this so
    /// verdict order is deterministic regardless of arrival order.
    fn user_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.auditors.len()).collect();
        order.sort_unstable_by_key(|&s| self.users[s]);
        order
    }

    /// Drain the slot's newly finalized verdicts into a response.
    fn emit_verdicts(&mut self, slot: usize, obs: Option<&ShardMetrics>) -> Response {
        let verdicts: Vec<_> = self.auditors[slot].drain_verdicts().collect();
        self.stats.verdicts += verdicts.len();
        if let Some(m) = obs {
            metrics::verdicts().add(verdicts.len() as u64);
            m.verdicts.add(verdicts.len() as u64);
        }
        Response::Verdicts { verdicts }
    }

    /// Finish the stream: log the `Finish` sentinel and finalize every
    /// auditor in user-id order, returning the verdicts that flushed. A
    /// no-op once the stream is finished.
    fn finalize(
        &mut self,
        obs: Option<&ShardMetrics>,
        store: Option<&mut EventStore>,
    ) -> Vec<AuditVerdict> {
        let mut verdicts = Vec::new();
        if self.finished {
            return verdicts;
        }
        self.finished = true;
        if let Some(st) = store {
            let mut buf = Vec::new();
            crate::snapshot::finish_payload(&mut buf);
            append_logged(st, SENTINEL_USER, 0, &buf);
        }
        for s in self.user_order() {
            let a = &mut self.auditors[s];
            a.finish();
            verdicts.extend(a.drain_verdicts());
        }
        self.stats.verdicts += verdicts.len();
        if let Some(m) = obs {
            metrics::verdicts().add(verdicts.len() as u64);
            m.verdicts.add(verdicts.len() as u64);
        }
        verdicts
    }
}

fn gap_error(user: UserId, seq: u64, next: u64) -> Response {
    Response::Error { message: format!("user {user} ingest gap: got seq {seq}, expected {next}") }
}

fn store_needed() -> Response {
    Response::Error { message: "historical reads need the shard event store".into() }
}

/// Re-audit one user's stored events in `[t0, t1]` through a fresh
/// auditor — the historical-read primitive behind `AsOf` and `Window`.
/// The auditors are deterministic, so the result equals a batch audit of
/// the user's stream truncated to that range; duplicates were deduplicated
/// before they were ever logged, so replay cannot double-apply.
fn audit_stored(
    store: &EventStore,
    user: UserId,
    t0: i64,
    t1: i64,
    audit: AuditConfig,
) -> Result<StreamComposition, String> {
    let records = match store.query(user, t0, t1) {
        Ok(records) => records,
        Err(e) => return Err(format!("store read failed: {e}")),
    };
    let mut auditor = OnlineAuditor::new(user, audit);
    for rec in &records {
        let req = crate::snapshot::decode_event(rec)
            .map_err(|e| format!("stored record {} undecodable: {e}", rec.lsn))?;
        match shard_cmd(req) {
            Some(ShardCmd::Gps { point, .. }) => auditor.push_gps(point),
            Some(ShardCmd::Checkin { checkin, .. }) => auditor.push_checkin(checkin),
            // Per-user queries never return the sentinel control records.
            _ => {}
        }
    }
    auditor.finish();
    let _ = auditor.drain_verdicts().count();
    Ok(auditor.composition())
}

/// One shard worker: a supervisor loop owning the auditors of the users
/// hashed to it. All state flows through the shard's event store: applied
/// mutations append to its log, the state is snapshotted into it every
/// `snapshot_every` records, and opening the store on a non-empty
/// directory restores everything it held. Commands are applied under
/// `catch_unwind`; a panic rebuilds the state from the store (snapshot +
/// replay delta, including any still-unflushed tail), retries the command
/// once, and keeps serving.
fn shard_worker(
    shard: usize,
    config: Arc<ServerConfig>,
    store_dir: PathBuf,
    rx: mpsc::Receiver<ShardMsg>,
) {
    let shard_metrics = ShardMetrics::new(shard);
    let opts = StoreOptions {
        segment_bytes: config.segment_bytes,
        fault: config.fault.clone(),
        shard: shard as u64,
        flush_bytes: config.flush_bytes,
    };
    let mut store = match EventStore::open(&store_dir, opts) {
        Ok(store) => store,
        Err(e) => {
            // Degrade instead of hanging connections on a dead channel:
            // answer everything with an error until shutdown.
            geosocial_obs::error!("serve", "shard store failed to open";
                shard = shard, dir = format!("{}", store_dir.display()), cause = format!("{e}"));
            while let Ok(ShardMsg { reply, .. }) = rx.recv() {
                shard_metrics.queue.dec();
                let _ = reply
                    .send(Response::Error { message: format!("shard {shard} store unavailable") });
            }
            return;
        }
    };
    // The shard's trace stream: a second event store under `trace/` that
    // is never snapshotted, so `replay_delta` always returns every span
    // record it holds (including the unflushed tail). Opened without the
    // fault plan — tracing must observe injected faults, not amplify
    // them. Failure to open degrades to in-memory-only tracing.
    let trace_opts = StoreOptions {
        segment_bytes: config.segment_bytes,
        fault: FaultPlan::none(),
        shard: shard as u64,
        flush_bytes: config.flush_bytes,
    };
    let mut trace_store = match EventStore::open(store_dir.join("trace"), trace_opts) {
        Ok(st) => Some(st),
        Err(e) => {
            geosocial_obs::warn!("serve", "shard trace stream failed to open, tracing is volatile";
                shard = shard, cause = format!("{e}"));
            None
        }
    };
    let mut live = restore_shard(shard, &store, &config);
    let snapshot_every = config.snapshot_every.max(1) as u64;
    let mut since_refresh = 0usize;

    while let Ok(ShardMsg { cmd, ctx, reply }) = rx.recv() {
        shard_metrics.queue.dec();
        if matches!(cmd, ShardCmd::Gps { .. } | ShardCmd::GpsRun { .. } | ShardCmd::Checkin { .. })
        {
            since_refresh += 1;
            if since_refresh >= GAUGE_REFRESH_EVERY {
                since_refresh = 0;
                shard_metrics.refresh(&live.auditors);
            }
        } else if matches!(cmd, ShardCmd::Stats) {
            shard_metrics.refresh(&live.auditors);
        }
        let finalizes = matches!(cmd, ShardCmd::Finish | ShardCmd::Drain { finalize: true });

        // Trace queries read the shard's trace stream directly; they
        // never touch auditor state, so they bypass `apply` entirely.
        if let ShardCmd::Traces { trace_id, slowest, path } = &cmd {
            let resp = match &trace_store {
                Some(ts) => traces_response(ts, *trace_id, *slowest, path.as_deref()),
                None => Response::Traces { traces: Vec::new() },
            };
            let _ = reply.send(resp);
            continue;
        }

        // A context on the message means the client chose to record this
        // trace (head-sampled or force-recorded, e.g. a retry): open a
        // task so every layer below can attach spans, and synthesize the
        // client's send→receive leg from the context's start stamp.
        let traced = geosocial_obs::trace::enabled() && ctx.is_some_and(|c| c.recorded());
        let recv_us = if traced { now_us() } else { 0 };
        if traced {
            let ctx = ctx.expect("traced implies ctx");
            geosocial_obs::trace::task_begin(ctx, shard as i32);
            task_span(
                "client.send",
                ctx.start_us,
                recv_us.saturating_sub(ctx.start_us),
                if ctx.attempt > 0 { FLAG_RETRY } else { 0 },
            );
        }

        let apply_t0 = if traced { now_us() } else { 0 };
        let mut resp = apply_guarded(&mut live, &cmd, &config, &shard_metrics, &mut store);
        if let Err(panic_msg) = &resp {
            // The worker crashed mid-command: rebuild from the store's
            // snapshot plus its replay delta — the log already holds any
            // prefix of the crashed command that applied before the fault
            // — then retry the command once (an injected kill is consumed
            // by now; the prefix dedups per event).
            geosocial_obs::warn!("serve", "shard worker crashed, recovering";
                shard = shard,
                replayed = store.records_since_snapshot(),
                cause = panic_msg,
            );
            let rec_t0 = if traced { now_us() } else { 0 };
            live = restore_shard(shard, &store, &config);
            live.stats.recoveries += 1;
            metrics::recoveries().inc();
            if traced {
                task_span("serve.recover", rec_t0, now_us().saturating_sub(rec_t0), FLAG_RECOVERY);
            }
            resp = apply_guarded(&mut live, &cmd, &config, &shard_metrics, &mut store);
        }
        if traced {
            task_span("serve.apply", apply_t0, now_us().saturating_sub(apply_t0), 0);
        }
        let resp = match resp {
            Ok(resp) => {
                if store.records_since_snapshot() >= snapshot_every {
                    let state = crate::snapshot::encode_state(&live);
                    if let Err(e) = store.snapshot(&state) {
                        // Non-fatal: recovery replays a longer delta until
                        // a later snapshot succeeds.
                        geosocial_obs::warn!("serve", "shard snapshot failed, will retry";
                            shard = shard, cause = format!("{e}"));
                    }
                }
                resp
            }
            Err(panic_msg) => {
                geosocial_obs::error!("serve", "command failed twice, skipping it";
                    shard = shard, cause = panic_msg);
                Response::Error {
                    message: format!("shard {shard} failed applying the request: {panic_msg}"),
                }
            }
        };
        if finalizes {
            // Finalization just changed every composition; re-export.
            shard_metrics.refresh(&live.auditors);
        }
        // A dropped reply receiver means the connection died; keep serving.
        let ack_t0 = if traced { now_us() } else { 0 };
        let _ = reply.send(resp);
        if traced {
            task_span("serve.ack", ack_t0, now_us().saturating_sub(ack_t0), 0);
            // Close the task: tail-promote on the end-to-end handling
            // time (the fixed slow-trace rule the load generator applies
            // too), fold the trace-level flags into every span, then
            // persist to the trace stream and the in-process collector.
            let (flags, mut spans) = task_end();
            let root_dur = now_us().saturating_sub(recv_us);
            let flags = promote_flags(flags, root_dur, DEFAULT_SLOW_US);
            for s in &mut spans {
                s.flags |= flags;
            }
            persist_spans(trace_store.as_mut(), &spans);
            let coll = geosocial_obs::trace::collector();
            for s in spans {
                coll.record(s);
            }
        }
        if finalizes {
            // Make the collected traces durable at the same points the
            // operator quiesces the shard (drain-finalize and finish).
            if let Some(ts) = trace_store.as_mut() {
                if let Err(e) = ts.flush() {
                    geosocial_obs::warn!("serve", "trace stream flush failed";
                        shard = shard, cause = format!("{e}"));
                }
            }
        }
    }
    // Shutdown: push the buffered tail to disk so a persistent store
    // reopens without losing acknowledged events.
    if let Err(e) = store.flush() {
        geosocial_obs::warn!("serve", "final store flush failed"; shard = shard, cause = format!("{e}"));
    }
    if let Some(ts) = trace_store.as_mut() {
        if let Err(e) = ts.flush() {
            geosocial_obs::warn!("serve", "final trace stream flush failed"; shard = shard, cause = format!("{e}"));
        }
    }
}

/// Fold a 128-bit trace id into the store's u32 user-key space (never the
/// sentinel), so a trace's spans share one `(user, t)` index chain.
pub(crate) fn trace_user_key(trace_id: u128) -> u32 {
    let folded = geosocial_fault::mix64((trace_id as u64) ^ ((trace_id >> 64) as u64));
    let key = (folded ^ (folded >> 32)) as u32;
    if key == SENTINEL_USER {
        0
    } else {
        key
    }
}

/// Append one record per span to the shard's trace stream (skipped when
/// the stream failed to open — tracing degrades to in-memory only).
fn persist_spans(store: Option<&mut EventStore>, spans: &[SpanRecord]) {
    let Some(st) = store else { return };
    let mut buf = Vec::new();
    for span in spans {
        crate::snapshot::span_payload(&mut buf, span);
        if let Err(e) = st.append(trace_user_key(span.trace_id), span.start_us as i64, &buf) {
            geosocial_obs::warn!("serve", "trace stream append failed, span buffered: {e}");
        }
    }
}

/// Answer one shard's part of a `Traces` request from its trace stream.
/// The stream is never snapshotted, so `replay_delta` is a full scan of
/// everything the shard ever recorded (plus the unflushed tail).
fn traces_response(
    store: &EventStore,
    trace_id: Option<u128>,
    slowest: usize,
    path: Option<&str>,
) -> Response {
    let records = match store.replay_delta() {
        Ok(records) => records,
        Err(e) => return Response::Error { message: format!("trace stream unreadable: {e}") },
    };
    let spans = records.iter().filter_map(|rec| match crate::snapshot::decode_span(rec) {
        Ok(span) => Some(span),
        Err(e) => {
            geosocial_obs::warn!("serve", "skipping undecodable span record";
                lsn = rec.lsn, cause = format!("{e}"));
            None
        }
    });
    // Bound the per-shard answer: `slowest` when asked, a hard ceiling
    // otherwise — the merged response must stay under the frame limit.
    let cap = if slowest == 0 { 256 } else { slowest };
    Response::Traces { traces: rank_spans(spans, trace_id, path, cap) }
}

/// Group spans into traces — only trace `trace_id` when given, only the
/// traces with a span whose name contains `path` when given — and rank
/// them with [`crate::merge::rank_traces`]. A trace's `root_dur_us` is its
/// extent among these spans (earliest start to latest end), equal to the
/// root span's duration once merged, since the synthesized `client.send`
/// leg starts at the root's start stamp.
pub(crate) fn rank_spans(
    spans: impl IntoIterator<Item = SpanRecord>,
    trace_id: Option<u128>,
    path: Option<&str>,
    slowest: usize,
) -> Vec<TraceDump> {
    let mut by_trace: HashMap<String, Vec<TraceSpan>> = HashMap::new();
    for span in spans {
        if trace_id.is_some_and(|id| id != span.trace_id) {
            continue;
        }
        let span = wire_span(span);
        by_trace.entry(span.trace_id.clone()).or_default().push(span);
    }
    if let Some(p) = path {
        by_trace.retain(|_, spans| spans.iter().any(|s| s.name.contains(p)));
    }
    crate::merge::rank_traces(by_trace, slowest)
}

/// One span in protocol form (trace id as 32-hex — the vendored serde has
/// no u128 support, and hex ids are what operators grep anyway).
fn wire_span(s: SpanRecord) -> TraceSpan {
    TraceSpan {
        trace_id: geosocial_obs::trace::trace_hex(s.trace_id),
        span_id: s.span_id,
        parent: s.parent,
        name: s.name,
        start_us: s.start_us,
        dur_us: s.dur_us,
        flags: s.flags,
        shard: s.shard,
    }
}

/// Apply one command, catching panics (injected or genuine) so the
/// supervisor can recover instead of losing the shard.
fn apply_guarded(
    state: &mut ShardState,
    cmd: &ShardCmd,
    config: &ServerConfig,
    obs: &ShardMetrics,
    store: &mut EventStore,
) -> Result<Response, String> {
    catch_unwind(AssertUnwindSafe(|| state.apply(cmd, config, Some(obs), Some(store)))).map_err(
        |cause| {
            cause
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| cause.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic with non-string payload".into())
        },
    )
}

/// Rebuild a shard from its event store: decode the last durable snapshot
/// (or start empty) and re-apply every record logged past it. Reads the
/// active segment through the store's in-memory mirror, so events that
/// were acknowledged but not yet flushed when a worker panicked are
/// replayed too — the exactly-once contract survives in-process crashes
/// without an fsync per ack. Metric and store side effects are suppressed
/// (`obs`/`store` are `None` in the replayed `apply`s) — the live run
/// already counted and logged these events; `stats` reconverges because
/// `apply` is deterministic.
fn restore_shard(shard: usize, store: &EventStore, config: &ServerConfig) -> ShardState {
    let mut state = match store.snapshot_state() {
        Some(bytes) => match crate::snapshot::decode_state(bytes) {
            Ok(state) => state,
            Err(e) => {
                geosocial_obs::error!("serve", "shard snapshot undecodable, starting empty";
                    shard = shard, cause = format!("{e}"));
                ShardState::new(shard)
            }
        },
        None => ShardState::new(shard),
    };
    match store.replay_delta() {
        Ok(records) => {
            for rec in &records {
                match crate::snapshot::decode_event(rec) {
                    Ok(req) => {
                        if let Some(cmd) = shard_cmd(req) {
                            let _ = state.apply(&cmd, config, None, None);
                        }
                    }
                    Err(e) => {
                        geosocial_obs::warn!("serve", "skipping undecodable stored record";
                            shard = shard, lsn = rec.lsn, cause = format!("{e}"));
                    }
                }
            }
        }
        Err(e) => {
            geosocial_obs::warn!("serve", "shard replay delta unreadable";
                shard = shard, cause = format!("{e}"));
        }
    }
    state
}

fn hello_first() -> Response {
    Response::Error { message: "send Hello before ingesting events".into() }
}

fn after_finish() -> Response {
    Response::Error { message: "stream already finished".into() }
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
            Request::Drain { .. } => (metrics::latency_drain(), false),
            Request::Finish | Request::Shutdown => (metrics::latency_finish(), false),
            // Cluster control answered with an error below; bucket with
            // the other control queries.
            Request::ShardMap | Request::Handoff { .. } => (metrics::latency_stats(), false),
        };
        if query {
            queries.fetch_add(1, Ordering::Relaxed);
            metrics::queries().inc();
        }
        if let Request::Drain { finalize } = req {
            metrics::drains().inc();
            geosocial_obs::info!("serve", "drain requested"; finalize = finalize);
        }
        // Route exactly as the cluster router does (`wire::route_of`): one
        // shard for user-addressed requests, every shard for broadcasts,
        // inline for control. A bad coordinate is refused first, so it
        // never reaches a shard, the store or `LatLon::new`.
        let resp = match (wire::route_of(&req), req) {
            (_, req) if !req.coordinates_valid() => Response::Error {
                message: "invalid coordinate: want finite values with latitude in [-90, 90]".into(),
            },
            (RoutePeek::User(user), req) => {
                let cmd = shard_cmd(req).expect("user-routed requests reach a shard");
                let shard = shard_of(user, n);
                queues[shard].inc();
                if shards[shard].send(ShardMsg { cmd, ctx, reply: reply_tx.clone() }).is_ok() {
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
                let cmd = shard_cmd(req).expect("broadcasts reach every shard");
                // Broadcasts stay untraced: fanning one context out to
                // every shard would record N copies of the same leg, and
                // the traced acceptance path (ingest) is always
                // single-shard.
                for (shard, tx) in shards.iter().enumerate() {
                    queues[shard].inc();
                    let _ =
                        tx.send(ShardMsg { cmd: cmd.clone(), ctx: None, reply: reply_tx.clone() });
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
        let _ = tx.send(ShardMsg { cmd: ShardCmd::Stats, ctx: None, reply: reply_tx.clone() });
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

    /// A shard with its origin fixed, logging into a fresh temp-dir store.
    fn logged_shard(tag: &str, config: &ServerConfig) -> (ShardState, EventStore, PathBuf) {
        let dir = std::env::temp_dir()
            .join(format!("geosocial-serve-frames-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = StoreOptions {
            segment_bytes: config.segment_bytes,
            fault: FaultPlan::none(),
            shard: 0,
            flush_bytes: config.flush_bytes,
        };
        let mut store = EventStore::open(&dir, opts).expect("open store");
        let mut state = ShardState::new(0);
        let origin = LatLon::new(34.42, -119.86);
        state.apply(&ShardCmd::SetOrigin { origin }, config, None, Some(&mut store));
        (state, store, dir)
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
        let checkin = Checkin {
            t: 2_450,
            poi: 3,
            category: PoiCategory::Food,
            location: LatLon::new(34.4201, -119.86),
            provenance: None,
        };
        let gps = |i: usize| ShardCmd::Gps {
            user,
            seq: if i < 9 { i } else { i + 1 } as u64,
            point: GpsPoint { t: fixes[i].t, pos: LatLon::new(fixes[i].lat, fixes[i].lon) },
        };
        let mut per_fix: Vec<ShardCmd> = (0..9).map(gps).collect();
        per_fix.push(ShardCmd::Checkin { user, seq: 9, checkin });
        per_fix.extend((9..12).map(gps));
        per_fix.push(ShardCmd::Finish);
        let batched = vec![
            ShardCmd::GpsRun { user, first_seq: 0, fixes: fixes[..9].to_vec() },
            ShardCmd::Checkin { user, seq: 9, checkin },
            ShardCmd::GpsRun { user, first_seq: 10, fixes: fixes[9..10].to_vec() },
            ShardCmd::GpsRun { user, first_seq: 11, fixes: fixes[10..].to_vec() },
            ShardCmd::Finish,
        ];

        let mut outcomes = Vec::new();
        for (tag, cmds) in [("per-fix", &per_fix), ("batched", &batched)] {
            let (mut state, mut store, dir) = logged_shard(tag, &config);
            let mut verdicts = Vec::new();
            for cmd in cmds {
                match state.apply(cmd, &config, None, Some(&mut store)) {
                    Response::Verdicts { verdicts: v } => verdicts.extend(v),
                    other => panic!("{tag}: expected Verdicts, got {other:?}"),
                }
            }
            let records: Vec<(u32, i64, Vec<u8>)> = store
                .replay_delta()
                .expect("read the log")
                .into_iter()
                .map(|r| (r.user, r.t, r.payload))
                .collect();
            let restored = restore_shard(0, &store, &config);
            outcomes.push((
                format!("{verdicts:?}"),
                crate::snapshot::encode_state(&state),
                records,
                crate::snapshot::encode_state(&restored),
            ));
            drop(store);
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
}
