//! One shard of the audit service, without sockets: [`Shard`] owns the
//! per-user auditing state of the users hashed to it, the shard's event
//! store and its `trace/` stream, and answers one [`Request`] at a time.
//!
//! Every way a shard runs goes through this one step function: the
//! server's worker threads ([`crate::server`]) loop over
//! [`Shard::apply`], a process restart is [`Shard::open`] on the same
//! directory, and `apply` recovers from its own panics with the restore
//! `open` uses. The contract is the served audit's: compositions equal
//! the batch pipeline's byte for byte, whatever the frame shapes,
//! redeliveries, refused gaps, worker kills, crashes and handoffs in
//! between. `tests/explore.rs` checks it against this type on seeded
//! schedules.

use geosocial_fault::FaultPlan;
use geosocial_geo::LatLon;
use geosocial_obs::trace::{
    now_us, promote_flags, task_end, task_mark, task_span, SpanRecord, TraceContext,
    DEFAULT_SLOW_US, FLAG_DEDUP, FLAG_RECOVERY, FLAG_RETRY,
};
use geosocial_obs::{counter, gauge, Counter, Gauge};
use geosocial_store::{EventStore, StoreOptions, SENTINEL_USER};
use geosocial_stream::{AuditConfig, AuditVerdict, OnlineAuditor, StreamComposition};
use geosocial_trace::{Checkin, GpsPoint, PoiCategory, UserId};
use std::collections::HashMap;
use std::io;
use std::iter;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

use crate::protocol::{Request, Response, ServerStats, ShardStats};
use crate::server::ServerConfig;

/// Cached handles to the shard-side fixed-name metric series.
mod metrics {
    use geosocial_obs::cached;

    cached!(events_gps, counter, Counter, "serve.events.gps");
    cached!(events_checkin, counter, Counter, "serve.events.checkin");
    cached!(verdicts, counter, Counter, "serve.verdicts");
    cached!(duplicates, counter, Counter, "serve.duplicates");
    cached!(recoveries, counter, Counter, "serve.recoveries");
}

/// One shard's exported series (`serve.shard.N.*`); the queue-depth gauge
/// belongs to the server, which owns the queue.
struct ShardMetrics {
    users: Arc<Gauge>,
    late_dropped: Arc<Gauge>,
    forced: Arc<Gauge>,
    verdicts: Arc<Counter>,
}

impl ShardMetrics {
    fn new(shard: usize) -> Self {
        Self {
            users: gauge(&format!("serve.shard.{shard}.users")),
            late_dropped: gauge(&format!("serve.shard.{shard}.late_dropped")),
            forced: gauge(&format!("serve.shard.{shard}.forced")),
            verdicts: counter(&format!("serve.shard.{shard}.verdicts")),
        }
    }

    /// Refresh the composition-derived gauges from the live auditor slab.
    /// O(users) over contiguous memory, so the shard calls it amortized
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

/// A GPS fix as the wire carries it.
fn fix(t: i64, lat: f64, lon: f64) -> GpsPoint {
    GpsPoint { t, pos: LatLon::new(lat, lon) }
}

/// A checkin as the wire carries it. The wire has no category; auditing
/// never reads it, so every served checkin is `Food`.
fn checkin(t: i64, poi: u32, lat: f64, lon: f64) -> Checkin {
    Checkin {
        t,
        poi,
        category: PoiCategory::Food,
        location: LatLon::new(lat, lon),
        provenance: None,
    }
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
/// Records are **per event**, not per request: an applied `GpsRun` logs
/// one record per fix, appended as each fix applies. A worker crash
/// mid-run therefore leaves exactly the applied prefix in the store,
/// which is what makes the retry dedup per-event instead of per-frame.
fn append_logged(store: &mut EventStore, user: u32, t: i64, payload: &[u8]) {
    // Only timed when the shard opened a trace task for this request;
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

/// The side effects of a live delivery, which replaying stored records
/// must not repeat: metric updates, the fault plan's kill point, and one
/// store record per applied event. [`ShardState::apply`] takes `None`
/// when it replays the store's own records.
pub(crate) struct Live<'a> {
    metrics: &'a ShardMetrics,
    store: &'a mut EventStore,
    fault: &'a FaultPlan,
}

/// The crash-replaceable part of a shard: everything requests mutate.
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
    /// of a live delivery (never during replay) — so a planned crash can
    /// land mid-`GpsRun`, which is exactly the case the per-event retry
    /// contract must survive.
    fn kill_check(&self, fault: &FaultPlan) {
        let applied = self.stats.gps_events + self.stats.checkin_events;
        if fault.should_kill(self.shard, applied as u64) {
            panic!("injected fault: shard {} killed before ingest {}", self.shard, applied);
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
        mut live: Option<Live<'_>>,
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
            if live.is_some() {
                metrics::duplicates().add(dup as u64);
                // A retried delivery hit the dedup path: mark the trace
                // (no-op without an active task).
                task_mark("serve.dedup", FLAG_DEDUP);
            }
        }
        let mut buf = Vec::new();
        for (seq, event) in (first_seq..).zip(events).skip(dup) {
            if let Some(l) = &live {
                self.kill_check(l.fault);
            }
            self.next_seq[slot] += 1;
            match event {
                Event::Gps(point) => {
                    self.auditors[slot].push_gps(point);
                    self.stats.gps_events += 1;
                    if live.is_some() {
                        metrics::events_gps().inc();
                    }
                }
                Event::Checkin(checkin) => {
                    self.auditors[slot].push_checkin(checkin);
                    self.stats.checkin_events += 1;
                    if live.is_some() {
                        metrics::events_checkin().inc();
                    }
                }
            }
            if let Some(l) = live.as_mut() {
                let t = event.record(&mut buf, seq);
                append_logged(l.store, user, t, &buf);
            }
        }
        self.emit_verdicts(slot, live.map(|l| l.metrics))
    }

    /// Apply one request to the in-memory state: `Hello`, ingest, `User`,
    /// `Stats` and `Finish` — everything the store's records replay, plus
    /// the reads of live state. `live` is `None` while replaying stored
    /// records, where the state (and `stats`) must reconverge but metrics,
    /// the fault plan and the store must not see the events again.
    pub(crate) fn apply(&mut self, req: &Request, live: Option<Live<'_>>) -> Response {
        match req {
            Request::Hello { origin_lat, origin_lon } => {
                let origin = LatLon::new(*origin_lat, *origin_lon);
                match &self.audit {
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
                        self.audit = Some(AuditConfig::paper(origin));
                        if let Some(l) = live {
                            let mut buf = Vec::new();
                            crate::snapshot::hello_payload(&mut buf, origin);
                            append_logged(l.store, SENTINEL_USER, 0, &buf);
                        }
                        Response::Ok
                    }
                }
            }
            Request::Gps { user, seq, t, lat, lon } => {
                self.ingest(*user, *seq, iter::once(Event::Gps(fix(*t, *lat, *lon))), live)
            }
            Request::GpsRun { user, first_seq, fixes } => {
                let points = fixes.iter().map(|f| Event::Gps(fix(f.t, f.lat, f.lon)));
                self.ingest(*user, *first_seq, points, live)
            }
            Request::Checkin { user, seq, t, poi, lat, lon } => {
                let event = Event::Checkin(checkin(*t, *poi, *lat, *lon));
                self.ingest(*user, *seq, iter::once(event), live)
            }
            Request::User { user } => match self.slot_of.get(user) {
                Some(&s) => Response::Composition { composition: self.auditors[s].composition() },
                None => Response::Error { message: format!("unknown user {user}") },
            },
            Request::Stats => {
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
            Request::Finish => Response::Verdicts { verdicts: self.finalize(live) },
            // Store and trace reads are answered by `Shard`, control
            // requests by the connection handler.
            _ => Response::Error { message: "request is not served by a shard's state".into() },
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
    fn finalize(&mut self, mut live: Option<Live<'_>>) -> Vec<AuditVerdict> {
        let mut verdicts = Vec::new();
        if self.finished {
            return verdicts;
        }
        self.finished = true;
        if let Some(l) = live.as_mut() {
            let mut buf = Vec::new();
            crate::snapshot::finish_payload(&mut buf);
            append_logged(l.store, SENTINEL_USER, 0, &buf);
        }
        for s in self.user_order() {
            let a = &mut self.auditors[s];
            a.finish();
            verdicts.extend(a.drain_verdicts());
        }
        self.stats.verdicts += verdicts.len();
        if let Some(l) = live {
            metrics::verdicts().add(verdicts.len() as u64);
            l.metrics.verdicts.add(verdicts.len() as u64);
        }
        verdicts
    }
}

fn gap_error(user: UserId, seq: u64, next: u64) -> Response {
    Response::Error { message: format!("user {user} ingest gap: got seq {seq}, expected {next}") }
}

fn hello_first() -> Response {
    Response::Error { message: "send Hello before ingesting events".into() }
}

fn after_finish() -> Response {
    Response::Error { message: "stream already finished".into() }
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
    let records = store.query(user, t0, t1).map_err(|e| format!("store read failed: {e}"))?;
    let mut auditor = OnlineAuditor::new(user, audit);
    for rec in &records {
        let req = crate::snapshot::decode_event(rec)
            .map_err(|e| format!("stored record {} undecodable: {e}", rec.lsn))?;
        match req {
            Request::Gps { t, lat, lon, .. } => auditor.push_gps(fix(t, lat, lon)),
            Request::Checkin { t, poi, lat, lon, .. } => {
                auditor.push_checkin(checkin(t, poi, lat, lon))
            }
            // Per-user queries never return the sentinel control records.
            _ => {}
        }
    }
    auditor.finish();
    let _ = auditor.drain_verdicts().count();
    Ok(auditor.composition())
}

/// Rebuild a shard from its event store: decode the last durable snapshot
/// (or start empty when there is none) and re-apply every record logged
/// past it. Reads the active segment through the store's in-memory
/// mirror, so events that were acknowledged but not yet flushed when a
/// worker panicked are replayed too — the exactly-once contract survives
/// in-process crashes without an fsync per ack.
///
/// A snapshot or record that does not decode is refused with
/// [`io::ErrorKind::InvalidData`]: the store has already CRC-checked it,
/// so the bytes are intact but in a format this build does not read, and
/// serving a state rebuilt around them would answer wrong compositions
/// and refuse every retried event as a gap.
fn restore(shard: usize, store: &EventStore) -> io::Result<ShardState> {
    let unreadable =
        |what: String| io::Error::new(io::ErrorKind::InvalidData, format!("shard {shard} {what}"));
    let mut state = match store.snapshot_state() {
        Some(bytes) => crate::snapshot::decode_state(bytes)
            .map_err(|e| unreadable(format!("snapshot undecodable: {e}")))?,
        None => ShardState::new(shard),
    };
    for rec in &store.replay_delta()? {
        let req = crate::snapshot::decode_event(rec)
            .map_err(|e| unreadable(format!("record {} undecodable: {e}", rec.lsn)))?;
        state.apply(&req, None);
    }
    Ok(state)
}

/// One shard: its state, its event store and its trace stream, driven one
/// request at a time by [`Shard::apply`].
///
/// Dropping a `Shard` without [`Shard::close`] is a crash: records still
/// buffered in either store are lost, exactly as when the process is
/// killed, and the next [`Shard::open`] recovers from what reached the
/// disk.
pub struct Shard {
    state: ShardState,
    store: EventStore,
    /// The shard's trace stream: a second event store under `trace/` that
    /// is never snapshotted, so `replay_delta` always returns every span
    /// record it holds. `None` when it failed to open (tracing is then
    /// in-memory only).
    trace: Option<EventStore>,
    metrics: ShardMetrics,
    fault: FaultPlan,
    snapshot_every: u64,
    since_refresh: usize,
    /// Why the shard stopped serving: its stored history turned out
    /// unreadable during a recovery. Every later request is refused.
    failed: Option<String>,
}

impl Shard {
    /// Open shard `shard`'s stores under `dir` (created if missing) and
    /// restore its state from the last snapshot plus the replay delta.
    /// `config` supplies the store settings, the snapshot cadence and the
    /// fault plan. Fails if the event store cannot be opened or its
    /// history does not decode; a trace stream that cannot be opened only
    /// makes tracing volatile.
    pub fn open(shard: usize, dir: impl AsRef<Path>, config: &ServerConfig) -> io::Result<Shard> {
        let dir = dir.as_ref();
        let opts = |fault| StoreOptions {
            segment_bytes: config.segment_bytes,
            fault,
            shard: shard as u64,
            flush_bytes: config.flush_bytes,
        };
        let store = EventStore::open(dir, opts(config.fault.clone()))?;
        // Opened without the fault plan: tracing must observe injected
        // faults, not amplify them.
        let trace = EventStore::open(dir.join("trace"), opts(FaultPlan::none()))
            .map_err(|e| {
                geosocial_obs::warn!("serve", "shard trace stream failed to open, tracing is volatile";
                    shard = shard, cause = format!("{e}"));
            })
            .ok();
        Ok(Shard {
            state: restore(shard, &store)?,
            store,
            trace,
            metrics: ShardMetrics::new(shard),
            fault: config.fault.clone(),
            snapshot_every: config.snapshot_every.max(1) as u64,
            since_refresh: 0,
            failed: None,
        })
    }

    /// Answer one request. `ctx` is the trace context the request arrived
    /// under; a recorded one opens a trace task whose spans (`client.send`,
    /// `serve.dedup`, `serve.recover`, `serve.apply`, `store.append`,
    /// `serve.ack`) persist to the trace stream.
    ///
    /// The request is applied under `catch_unwind`. A panic rebuilds the
    /// state from the store — the log already holds any prefix of the
    /// crashed request that applied before the fault — and retries the
    /// request once; the prefix dedups per event. If the rebuild finds
    /// the history unreadable, the shard refuses this and every later
    /// request.
    pub fn apply(&mut self, req: &Request, ctx: Option<TraceContext>) -> Response {
        let shard = self.state.shard;
        if self.failed.is_some() {
            return self.unavailable();
        }
        // A bad coordinate never reaches the state, the store or
        // `LatLon::new`.
        if !req.coordinates_valid() {
            return Response::Error {
                message: "invalid coordinate: want finite values with latitude in [-90, 90]".into(),
            };
        }
        match req {
            Request::Gps { .. } | Request::GpsRun { .. } | Request::Checkin { .. } => {
                self.since_refresh += 1;
                if self.since_refresh >= GAUGE_REFRESH_EVERY {
                    self.since_refresh = 0;
                    self.metrics.refresh(&self.state.auditors);
                }
            }
            Request::Stats => self.metrics.refresh(&self.state.auditors),
            // Trace queries read the trace stream and never touch the
            // auditor state.
            Request::Traces { trace_id, slowest, path } => {
                let trace_id = trace_id.as_deref().and_then(geosocial_obs::trace::parse_trace_id);
                return match &self.trace {
                    Some(ts) => traces_response(ts, trace_id, *slowest, path.as_deref()),
                    None => Response::Traces { traces: Vec::new() },
                };
            }
            _ => {}
        }

        // A context means the client chose to record this trace
        // (head-sampled or force-recorded, e.g. a retry): open a task so
        // every layer below can attach spans, and synthesize the client's
        // send→receive leg from the context's start stamp.
        let ctx = ctx.filter(|c| geosocial_obs::trace::enabled() && c.recorded());
        let recv_us = if ctx.is_some() { now_us() } else { 0 };
        if let Some(ctx) = ctx {
            geosocial_obs::trace::task_begin(ctx, shard as i32);
            task_span(
                "client.send",
                ctx.start_us,
                recv_us.saturating_sub(ctx.start_us),
                if ctx.attempt > 0 { FLAG_RETRY } else { 0 },
            );
        }
        let traced = ctx.is_some();

        let apply_t0 = if traced { now_us() } else { 0 };
        let mut resp = self.step_guarded(req);
        if let Err(panic_msg) = &resp {
            geosocial_obs::warn!("serve", "shard worker crashed, recovering";
                shard = shard,
                replayed = self.store.records_since_snapshot(),
                cause = panic_msg,
            );
            let rec_t0 = if traced { now_us() } else { 0 };
            match restore(shard, &self.store) {
                Ok(state) => {
                    self.state = state;
                    self.state.stats.recoveries += 1;
                    metrics::recoveries().inc();
                    if traced {
                        task_span(
                            "serve.recover",
                            rec_t0,
                            now_us().saturating_sub(rec_t0),
                            FLAG_RECOVERY,
                        );
                    }
                    resp = self.step_guarded(req);
                }
                Err(e) => {
                    geosocial_obs::error!("serve", "shard history unreadable, refusing requests";
                        shard = shard, cause = format!("{e}"));
                    self.failed = Some(format!("{e}"));
                }
            }
        }
        if traced {
            task_span("serve.apply", apply_t0, now_us().saturating_sub(apply_t0), 0);
        }
        let ack_t0 = if traced { now_us() } else { 0 };
        let resp = match resp {
            Ok(resp) => {
                if self.store.records_since_snapshot() >= self.snapshot_every {
                    let state = crate::snapshot::encode_state(&self.state);
                    if let Err(e) = self.store.snapshot(&state) {
                        // Non-fatal: recovery replays a longer delta until
                        // a later snapshot succeeds.
                        geosocial_obs::warn!("serve", "shard snapshot failed, will retry";
                            shard = shard, cause = format!("{e}"));
                    }
                }
                resp
            }
            Err(_) if self.failed.is_some() => self.unavailable(),
            Err(panic_msg) => {
                geosocial_obs::error!("serve", "request failed twice, skipping it";
                    shard = shard, cause = panic_msg);
                Response::Error {
                    message: format!("shard {shard} failed applying the request: {panic_msg}"),
                }
            }
        };
        let finalizes = matches!(req, Request::Finish);
        if finalizes {
            // Finalization just changed every composition; re-export.
            self.metrics.refresh(&self.state.auditors);
        }
        if traced {
            // `serve.ack` covers handing the ready response back: the
            // checkpoint cadence and the gauge refresh above. Then close
            // the task: tail-promote on the end-to-end handling time (the
            // fixed slow-trace rule the load generator applies too), fold
            // the trace-level flags into every span, and persist to the
            // trace stream and the in-process collector.
            task_span("serve.ack", ack_t0, now_us().saturating_sub(ack_t0), 0);
            let (flags, mut spans) = task_end();
            let flags = promote_flags(flags, now_us().saturating_sub(recv_us), DEFAULT_SLOW_US);
            for s in &mut spans {
                s.flags |= flags;
            }
            persist_spans(self.trace.as_mut(), &spans);
            let coll = geosocial_obs::trace::collector();
            for s in spans {
                coll.record(s);
            }
        }
        if finalizes {
            // Make the collected traces durable at the point the operator
            // quiesces the shard.
            if let Some(ts) = self.trace.as_mut() {
                if let Err(e) = ts.flush() {
                    geosocial_obs::warn!("serve", "trace stream flush failed";
                        shard = shard, cause = format!("{e}"));
                }
            }
        }
        resp
    }

    /// Flush both stores, retrying failed flushes, so a later
    /// [`Shard::open`] on the same directory loses no acknowledged event.
    /// Returns the first flush error after trying both.
    pub fn close(mut self) -> io::Result<()> {
        let events = self.store.flush_durably();
        let traces = self.trace.as_mut().map_or(Ok(()), EventStore::flush_durably);
        events.and(traces)
    }

    #[cfg(test)]
    pub(crate) fn state(&self) -> &ShardState {
        &self.state
    }

    /// The answer to every request once the shard stopped serving.
    fn unavailable(&self) -> Response {
        let cause = self.failed.as_deref().unwrap_or("unknown cause");
        Response::Error { message: format!("shard {} unavailable: {cause}", self.state.shard) }
    }

    /// Apply one request, catching panics (injected or genuine) so
    /// [`Shard::apply`] can recover instead of losing the shard.
    fn step_guarded(&mut self, req: &Request) -> Result<Response, String> {
        catch_unwind(AssertUnwindSafe(|| self.step(req))).map_err(|cause| {
            cause
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| cause.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic with non-string payload".into())
        })
    }

    /// The historical reads from the store, or one request applied live
    /// to the state.
    fn step(&mut self, req: &Request) -> Response {
        match req {
            Request::AsOf { user, t } => {
                let Some(audit) = self.state.audit.clone() else { return hello_first() };
                match audit_stored(&self.store, *user, i64::MIN, *t, audit) {
                    Ok(composition) => {
                        Response::AsOf { composition, applied: self.store.applied(*user) }
                    }
                    Err(message) => Response::Error { message },
                }
            }
            Request::Window { cohort, t0, t1 } => {
                let Some(audit) = self.state.audit.clone() else { return hello_first() };
                let mut compositions = Vec::new();
                for &user in cohort {
                    // Only the cohort members this shard owns; the
                    // broadcast merge concatenates across shards. Users
                    // never seen contribute nothing rather than an empty
                    // composition.
                    if !self.state.slot_of.contains_key(&user) {
                        continue;
                    }
                    match audit_stored(&self.store, user, *t0, *t1, audit.clone()) {
                        Ok(composition) => compositions.push(composition),
                        Err(message) => return Response::Error { message },
                    }
                }
                Response::Compositions { compositions }
            }
            _ => {
                let live =
                    Live { metrics: &self.metrics, store: &mut self.store, fault: &self.fault };
                self.state.apply(req, Some(live))
            }
        }
    }
}

/// Fold a 128-bit trace id into the store's u32 user-key space (never the
/// sentinel), so a trace's spans share one `(user, t)` index chain.
fn trace_user_key(trace_id: u128) -> u32 {
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
    Response::Traces { traces: crate::merge::rank_spans(spans, trace_id, path, cap) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("geosocial-serve-shard-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn gps(seq: u64) -> Request {
        Request::Gps { user: 7, seq, t: 60 * seq as i64, lat: 34.42, lon: -119.86 }
    }

    /// A shard that has applied Hello and fixes 0..n of user 7.
    fn ingested(dir: &Path, config: &ServerConfig, n: u64) -> Shard {
        let mut shard = Shard::open(0, dir, config).expect("open shard");
        let hello = Request::Hello { origin_lat: 34.42, origin_lon: -119.86 };
        assert!(matches!(shard.apply(&hello, None), Response::Ok));
        for seq in 0..n {
            assert!(matches!(shard.apply(&gps(seq), None), Response::Verdicts { .. }));
        }
        shard
    }

    /// A snapshot the store accepts (its CRC holds) but the shard cannot
    /// decode is refused on reopen, not replaced by an empty state that
    /// would answer "unknown user" and refuse every retried event as a
    /// gap.
    #[test]
    fn undecodable_snapshot_is_refused_on_open() {
        let dir = fresh_dir("open");
        let config = ServerConfig::default();
        ingested(&dir, &config, 5).close().expect("close shard");
        let mut store = EventStore::open(&dir, StoreOptions::default()).expect("open store");
        store.snapshot(&[0xFF; 8]).expect("write a CRC-valid, undecodable snapshot");
        drop(store);
        match Shard::open(0, &dir, &config) {
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
                assert!(e.to_string().contains("snapshot undecodable"), "{e}");
            }
            Ok(shard) => panic!(
                "opened on an unreadable snapshot, serving {} users",
                shard.state.users.len()
            ),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The same refusal when a worker panic makes the shard rebuild from
    /// an unreadable history: the crashed request and every later one
    /// are answered with an error.
    #[test]
    fn undecodable_snapshot_is_refused_on_recovery() {
        let dir = fresh_dir("recover");
        let config = ServerConfig {
            fault: FaultPlan::parse("kill=0@5").expect("fault spec"),
            ..ServerConfig::default()
        };
        let mut shard = ingested(&dir, &config, 5);
        shard.store.snapshot(&[0xFF; 8]).expect("write a CRC-valid, undecodable snapshot");
        for req in [gps(5), Request::User { user: 7 }, Request::Stats] {
            match shard.apply(&req, None) {
                Response::Error { message } => {
                    assert!(message.contains("unavailable"), "{message}")
                }
                other => panic!("a shard with an unreadable history answered {other:?}"),
            }
        }
        assert_eq!(config.fault.injected().kills, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
