//! Wire protocol of `geosocial-serve`: length-prefixed frames, JSON or
//! binary payload.
//!
//! Every message is one frame: a 4-byte big-endian payload length followed
//! by that many payload bytes. The first payload byte is the **format
//! tag**: JSON payloads start with `{` (0x7B) or `"` (0x22) — always below
//! 0x80 — while binary payloads start with an opcode in `0x80..`. Both
//! formats are first-class on the same port and may interleave frame by
//! frame on one connection; see [`crate::wire`] for the binary layout.
//! Requests and responses are strictly 1:1 and in order per connection, so
//! clients may pipeline: send a window of requests and match responses by
//! position.
//!
//! JSON enums use the vendored serde's externally tagged form — a unit
//! variant is the bare string `"Stats"`, a struct variant is
//! `{"Gps":{"user":1,...}}`.

use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

use geosocial_stream::{AuditVerdict, StreamComposition};

/// Frames larger than this are rejected — no legitimate message comes
/// close, and the cap keeps a corrupt length prefix from allocating wildly.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// One client request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Request {
    /// Must be the first request of a session that ingests events: fixes
    /// the local-projection origin every shard audits in. Matching the
    /// batch dataset's POI-universe origin makes served verdicts exactly
    /// reproduce the batch pipeline.
    Hello {
        /// Projection origin latitude, degrees.
        origin_lat: f64,
        /// Projection origin longitude, degrees.
        origin_lon: f64,
    },
    /// Ingest one GPS fix.
    Gps {
        /// Reporting user.
        user: u32,
        /// Per-user ingest sequence number, starting at 0 and counting GPS
        /// fixes and checkins together. The server applies `seq == next`,
        /// acknowledges-without-applying `seq < next` (a retried delivery
        /// of an already-applied event), and rejects gaps — the contract
        /// that makes client retries exactly-once.
        seq: u64,
        /// Fix time, seconds.
        t: i64,
        /// Fix latitude, degrees.
        lat: f64,
        /// Fix longitude, degrees.
        lon: f64,
    },
    /// Ingest a batch of consecutive GPS fixes for one user — the
    /// throughput path. The fixes carry the per-user sequence numbers
    /// `first_seq..first_seq + fixes.len()` in order, and the server
    /// applies the exactly-once contract **per fix**, not per frame: fixes
    /// below the user's `next` are acknowledged without re-applying
    /// (counted as duplicates), fixes at `next` apply, and a first fix
    /// above `next` is a gap error. A retried run that was partially
    /// applied before a fault therefore re-applies exactly the missing
    /// suffix. One frame, one response, so pipelining discipline is
    /// unchanged. On the binary wire the batch is delta-encoded (see
    /// [`crate::wire`]); in JSON it is a plain array — both spell the same
    /// request.
    GpsRun {
        /// Reporting user.
        user: u32,
        /// Sequence number of `fixes[0]` (see [`Request::Gps::seq`]).
        first_seq: u64,
        /// Consecutive fixes, chronological, seq-numbered from
        /// `first_seq`.
        fixes: Vec<WireFix>,
    },
    /// Ingest one checkin.
    Checkin {
        /// Reporting user.
        user: u32,
        /// Per-user ingest sequence number (see [`Request::Gps::seq`]).
        seq: u64,
        /// Checkin time, seconds.
        t: i64,
        /// POI id the checkin claims.
        poi: u32,
        /// Claimed latitude, degrees.
        lat: f64,
        /// Claimed longitude, degrees.
        lon: f64,
    },
    /// Query one user's composition snapshot.
    User {
        /// The user to query.
        user: u32,
    },
    /// Time-travel query: the user's composition **as of** event time `t`,
    /// answered by replaying the user's stored events with `t_event <= t`
    /// through a fresh auditor — while live ingest keeps running. The
    /// answer equals the batch pipeline truncated at the same watermark
    /// (the store's as-of equivalence). Also carries the user's applied
    /// event count, which reconnecting clients use to fast-forward past
    /// frames the server already holds durably.
    AsOf {
        /// The user to reconstruct.
        user: u32,
        /// Inclusive event-time watermark, seconds (`i64::MAX` = now).
        t: i64,
    },
    /// Historical cohort query: per-user compositions over the event-time
    /// window `[t0, t1]`, answered from the event store's log (each shard
    /// replays its cohort members' stored events in the window through
    /// fresh auditors). Equivalent to running the batch pipeline on the
    /// window in isolation.
    Window {
        /// Users to audit (unknown users contribute nothing).
        cohort: Vec<u32>,
        /// Window start, inclusive, seconds.
        t0: i64,
        /// Window end, inclusive, seconds.
        t1: i64,
    },
    /// Query server-wide counters and the aggregate composition.
    Stats,
    /// Scrape the observability registry: answered with the plain-text
    /// metrics exposition (see the README's Observability section for the
    /// format). Served by the connection handler directly — it never
    /// touches the shard workers, so it stays cheap mid-replay.
    Metrics,
    /// End of stream: finalize every pending verdict on every shard.
    /// Ingesting after `Finish` is an error.
    Finish,
    /// Query collected traces (see the README's Tracing section). The
    /// three filters compose: an exact `trace_id` (32-hex-digit) match,
    /// the `slowest` N traces by root-span duration (0 = no limit), and a
    /// substring `path` filter on span names (matches a trace if any of
    /// its spans match). Served from the shards' durable trace streams
    /// plus the in-process collector, so traces survive a full process
    /// restart. The response is always JSON (control plane).
    Traces {
        /// Exact trace id filter, 32 hex digits (`None` = all traces).
        trace_id: Option<String>,
        /// Keep only the N slowest traces by root-span duration (0 = all).
        slowest: usize,
        /// Span-name substring filter (`None` = all).
        path: Option<String>,
    },
    /// Query the ring of periodic metrics snapshots: answered with
    /// counter rates/deltas computed between the oldest and newest
    /// retained point (see [`MetricsHistoryReport`]). Served by the
    /// connection handler directly, like [`Request::Metrics`].
    MetricsHistory {
        /// How many most-recent points to consider (0 = all retained).
        last: usize,
    },
    /// Cluster control plane, answered by `geosocial-router` only: describe
    /// the router's current versioned shard map (entries, liveness,
    /// version). A shard server answers with an error — the request
    /// existing in the shared enum keeps one codec for both tiers. Always
    /// JSON on the wire (control plane).
    ShardMap,
    /// Cluster control plane, answered by `geosocial-router` only: point a
    /// shard-map entry at a replacement process. The caller quiesces the
    /// old process *first* — drain + shutdown for a planned handoff (its
    /// event store is then durable and can be shipped with the store
    /// crate's handoff export/import), or it simply died — then starts the
    /// replacement on the shipped store directory and sends `Handoff`.
    /// The router bumps the map version and the entry's epoch; its shard
    /// links, which have been reconnecting with backoff since the old
    /// process stopped answering, re-resolve the entry's address and
    /// replay every unacked in-flight frame to the new process, where the
    /// per-user seq dedup makes the replay exactly-once end to end.
    /// Ordering matters: swapping the address while the old process still
    /// serves would let acked events land in a store that was already
    /// shipped. Always JSON on the wire (control plane).
    Handoff {
        /// Shard-map entry id to hand off.
        shard: u64,
        /// `host:port` the replacement process will serve on.
        addr: String,
    },
    /// Graceful drain. With `finalize: false` this is a non-destructive
    /// quiesce: every shard reports its residual state (pending checkins,
    /// reorder-held events, open visits and stay windows) and ingestion may
    /// resume afterwards with no effect on any verdict. With
    /// `finalize: true` the shards additionally flush their reorder
    /// buffers, close open stay windows, finalize every pending verdict
    /// (like [`Request::Finish`]) and report what that forced — the
    /// supported last call before `Shutdown`.
    Drain {
        /// Finalize the stream after reporting residual state.
        finalize: bool,
    },
    /// Stop the server once in-flight connections drain.
    Shutdown,
}

/// One GPS fix inside a [`Request::GpsRun`] batch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WireFix {
    /// Fix time, seconds.
    pub t: i64,
    /// Fix latitude, degrees.
    pub lat: f64,
    /// Fix longitude, degrees.
    pub lon: f64,
}

/// One server response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// Request accepted; nothing further to report.
    Ok,
    /// Ingest accepted; carries every verdict this event finalized (often
    /// empty — verdicts fire when the watermark proves them final).
    Verdicts {
        /// Newly finalized verdicts, in finalization order.
        verdicts: Vec<AuditVerdict>,
    },
    /// Answer to [`Request::User`].
    Composition {
        /// The user's current composition snapshot.
        composition: StreamComposition,
    },
    /// Answer to [`Request::AsOf`].
    AsOf {
        /// The user's composition reconstructed at the requested watermark.
        composition: StreamComposition,
        /// Events the store holds for the user (their next expected ingest
        /// sequence number) — the resume point for reconnecting clients.
        applied: u64,
    },
    /// Answer to [`Request::Window`]: per-user compositions over the
    /// window, sorted by user id.
    Compositions {
        /// One composition per cohort member with events in the window.
        compositions: Vec<StreamComposition>,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// Server-wide counters.
        stats: ServerStats,
    },
    /// Answer to [`Request::Metrics`]: the metrics exposition text.
    Metrics {
        /// `geosocial-obs exposition v1` text, one series per line.
        text: String,
    },
    /// Answer to [`Request::Traces`]: matching traces, slowest root
    /// first, spans within a trace in start order.
    Traces {
        /// Matching traces after all filters.
        traces: Vec<TraceDump>,
    },
    /// Answer to [`Request::MetricsHistory`].
    MetricsHistory {
        /// Rates/deltas over the retained snapshot ring.
        report: MetricsHistoryReport,
    },
    /// Answer to [`Request::Drain`].
    Drained {
        /// Residual-state report merged over every shard.
        report: DrainReport,
    },
    /// Answer to [`Request::ShardMap`] (router only).
    ShardMap {
        /// The router's current versioned shard map.
        map: ShardMapInfo,
    },
    /// The request could not be served.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

/// The router's shard map as it travels in a [`Response::ShardMap`]: the
/// version it carried when serialized plus every entry. Consistent
/// hashing happens over the **entry ids** (rendezvous/HRW, see
/// `crate::cluster`), so the wire form is enough for a client to predict
/// routing.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ShardMapInfo {
    /// Monotonic map version; bumped by every topology change (handoff).
    pub version: u64,
    /// One entry per shard slot, in id order.
    pub entries: Vec<ShardEntryInfo>,
}

/// One shard slot of a [`ShardMapInfo`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ShardEntryInfo {
    /// Stable entry id — the rendezvous-hash identity. Survives handoffs:
    /// a replacement process keeps the id, so no user moves.
    pub id: u64,
    /// `host:port` of the process currently owning the slot.
    pub addr: String,
    /// Process incarnation: bumped on every handoff of this slot.
    pub epoch: u64,
}

/// Server-wide counters: the union of every shard's counters plus the
/// aggregate composition — the serving-layer analogue of Table 1.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServerStats {
    /// Worker shards.
    pub shards: usize,
    /// Distinct users seen.
    pub users: usize,
    /// GPS fixes ingested.
    pub gps_events: usize,
    /// Checkins ingested.
    pub checkin_events: usize,
    /// Composition/stats queries served.
    pub queries: usize,
    /// Verdicts finalized and delivered.
    pub verdicts: usize,
    /// Already-applied ingests acknowledged without re-applying (retried
    /// deliveries deduplicated by per-user sequence number).
    pub duplicates: usize,
    /// Shard-worker crashes recovered by snapshot/replay.
    pub recoveries: usize,
    /// Buffered per-user state across all shards (pending checkins, rolling
    /// fixes, open windows, unretired visits).
    pub buffered_state: usize,
    /// Aggregate composition over every user (its `user` field is 0).
    pub composition: StreamComposition,
    /// Per-shard counters, indexed by shard.
    pub per_shard: Vec<ShardStats>,
}

/// One shard's counters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Users owned by this shard.
    pub users: usize,
    /// GPS fixes routed here.
    pub gps_events: usize,
    /// Checkins routed here.
    pub checkin_events: usize,
    /// Verdicts this shard finalized.
    pub verdicts: usize,
    /// Retried deliveries deduplicated by per-user sequence number.
    pub duplicates: usize,
    /// Worker crashes this shard recovered from via snapshot/replay.
    pub recoveries: usize,
}

impl ServerStats {
    /// Fold one shard's counters into the totals.
    pub fn absorb(&mut self, s: ShardStats, comp: StreamComposition, buffered: usize) {
        self.users += s.users;
        self.gps_events += s.gps_events;
        self.checkin_events += s.checkin_events;
        self.verdicts += s.verdicts;
        self.duplicates += s.duplicates;
        self.recoveries += s.recoveries;
        self.buffered_state += buffered;
        self.composition.merge(&comp);
        self.per_shard.push(s);
    }
}

/// What a [`Request::Drain`] found (and, when finalizing, forced): the
/// residual state a shard still held when asked to quiesce.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DrainReport {
    /// Shards that contributed to this report.
    pub shards: usize,
    /// Users with live state.
    pub users: usize,
    /// Checkins still awaiting finalization at drain time.
    pub pending_checkins: usize,
    /// Events still held in allowed-lateness reorder buffers.
    pub held_events: usize,
    /// Detected visits whose winning checkin was not yet fixed.
    pub open_visits: usize,
    /// GPS fixes buffered inside still-open stay windows.
    pub open_window_fixes: usize,
    /// Checkins the drain itself force-finalized with incomplete evidence
    /// (always 0 for a non-finalizing drain).
    pub forced_by_drain: usize,
    /// Verdicts the drain flushed out of shard queues (always 0 for a
    /// non-finalizing drain — served verdicts travel on ingest responses).
    pub verdicts_flushed: usize,
    /// Whether the stream was finalized (`Drain { finalize: true }` or an
    /// earlier `Finish`); ingestion is refused afterwards.
    pub finalized: bool,
    /// Event-store records appended across all shards (sum of per-shard
    /// log lengths). `#[serde(default)]`: reports from pre-store servers
    /// parse as 0.
    #[serde(default)]
    pub store_records: u64,
    /// Event-store log segments across all shards.
    #[serde(default)]
    pub store_segments: usize,
    /// Event-store bytes on disk across all shards (segments, snapshots
    /// excluded).
    #[serde(default)]
    pub store_bytes: u64,
    /// Aggregate composition after the drain.
    pub composition: StreamComposition,
}

impl DrainReport {
    /// Merge one shard's report into a server-wide one.
    pub fn merge(&mut self, o: &DrainReport) {
        self.shards += o.shards;
        self.users += o.users;
        self.pending_checkins += o.pending_checkins;
        self.held_events += o.held_events;
        self.open_visits += o.open_visits;
        self.open_window_fixes += o.open_window_fixes;
        self.forced_by_drain += o.forced_by_drain;
        self.verdicts_flushed += o.verdicts_flushed;
        self.finalized |= o.finalized;
        self.store_records += o.store_records;
        self.store_segments += o.store_segments;
        self.store_bytes += o.store_bytes;
        self.composition.merge(&o.composition);
    }
}

/// One span of a collected trace, as it travels in a
/// [`Response::Traces`]. The 128-bit trace id is spelled as 32 hex
/// digits (JSON has no u128); span ids are u64 and travel natively.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// Owning trace, 32 hex digits.
    pub trace_id: String,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Dotted-path span name (`serve.apply`, `client.send`).
    pub name: String,
    /// Start, unix µs.
    pub start_us: u64,
    /// Duration, µs (0 = instant marker).
    pub dur_us: u64,
    /// `geosocial_obs::trace::FLAG_*` bits.
    pub flags: u8,
    /// Shard that recorded the span (-1 = client / conn handler).
    pub shard: i32,
}

/// One trace in a [`Response::Traces`]: its spans in start order.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraceDump {
    /// Trace id, 32 hex digits.
    pub trace_id: String,
    /// Root-span duration, µs (0 when the root was not collected).
    pub root_dur_us: u64,
    /// Spans, ascending by start time.
    pub spans: Vec<TraceSpan>,
}

/// Answer to [`Request::MetricsHistory`]: counter movement between the
/// oldest and newest retained snapshot points.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MetricsHistoryReport {
    /// Snapshot points considered.
    pub points: usize,
    /// Wall-clock seconds between the first and last point.
    pub span_s: f64,
    /// Per-counter movement, sorted by name. Counters that never moved
    /// are omitted.
    pub rates: Vec<SeriesRate>,
}

/// Movement of one counter across the metrics-history window.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SeriesRate {
    /// Counter name.
    pub name: String,
    /// Value at the newest point.
    pub last: u64,
    /// Increase across the window.
    pub delta: u64,
    /// `delta / span_s` (0 when the window is a single point).
    pub per_sec: f64,
}

/// Write one frame.
pub fn write_msg<T: Serialize, W: Write>(w: &mut W, msg: &T) -> io::Result<()> {
    let mut frame = Vec::new();
    crate::wire::frame_json(&mut frame, msg)?;
    w.write_all(&frame)
}

/// Read one frame's payload into `buf` (reused across calls — no per-frame
/// allocation once it has grown). Returns the payload length, or `Ok(None)`
/// on a clean EOF at a frame boundary. A short read mid-payload is reported
/// as a structured truncation error naming the frame size and the byte it
/// stopped at.
pub fn read_frame_into<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> io::Result<Option<usize>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let len = len as usize;
    buf.clear();
    buf.resize(len, 0);
    let mut read = 0usize;
    while read < len {
        match r.read(&mut buf[read..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!(
                        "truncated frame: payload ended at byte {read} of the {len} bytes \
                         the length prefix promised"
                    ),
                ));
            }
            Ok(n) => read += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(len))
}

/// Read one frame. Returns `Ok(None)` on a clean EOF at a frame boundary.
/// JSON-only convenience used by the control plane and tests; the serving
/// hot paths read with [`read_frame_into`] and decode with [`crate::wire`],
/// which accepts both formats.
pub fn read_msg<T: Deserialize, R: Read>(r: &mut R) -> io::Result<Option<T>> {
    let mut buf = Vec::new();
    let Some(len) = read_frame_into(r, &mut buf)? else {
        return Ok(None);
    };
    let text = std::str::from_utf8(&buf).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame payload is not UTF-8 at byte {} of the {len}-byte frame",
                e.valid_up_to()
            ),
        )
    })?;
    serde_json::from_str(text).map(Some).map_err(|e| {
        io::Error::new(io::ErrorKind::InvalidData, format!("JSON frame ({len} bytes): {e}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(req: Request) -> Request {
        let mut buf = Vec::new();
        write_msg(&mut buf, &req).expect("write");
        let mut cursor = std::io::Cursor::new(buf);
        read_msg(&mut cursor).expect("read").expect("some")
    }

    #[test]
    fn requests_roundtrip_through_frames() {
        match roundtrip(Request::Gps { user: 7, seq: 9, t: 1_234, lat: 34.4, lon: -119.8 }) {
            Request::Gps { user: 7, seq: 9, t: 1_234, .. } => {}
            other => panic!("bad roundtrip: {other:?}"),
        }
        match roundtrip(Request::Stats) {
            Request::Stats => {}
            other => panic!("bad roundtrip: {other:?}"),
        }
        match roundtrip(Request::Drain { finalize: true }) {
            Request::Drain { finalize: true } => {}
            other => panic!("bad roundtrip: {other:?}"),
        }
        match roundtrip(Request::Metrics) {
            Request::Metrics => {}
            other => panic!("bad roundtrip: {other:?}"),
        }
        match roundtrip(Request::Hello { origin_lat: 1.5, origin_lon: -2.5 }) {
            Request::Hello { origin_lat, origin_lon } => {
                assert_eq!(origin_lat, 1.5);
                assert_eq!(origin_lon, -2.5);
            }
            other => panic!("bad roundtrip: {other:?}"),
        }
        match roundtrip(Request::AsOf { user: 3, t: -55 }) {
            Request::AsOf { user: 3, t: -55 } => {}
            other => panic!("bad roundtrip: {other:?}"),
        }
        match roundtrip(Request::Window { cohort: vec![1, 9, 4], t0: 10, t1: 99 }) {
            Request::Window { cohort, t0: 10, t1: 99 } => assert_eq!(cohort, vec![1, 9, 4]),
            other => panic!("bad roundtrip: {other:?}"),
        }
    }

    #[test]
    fn drain_report_without_store_fields_still_parses() {
        // A report serialized by a pre-store server omits the store
        // counters; `#[serde(default)]` must fill them with zeros.
        let json = r#"{"shards":2,"users":5,"pending_checkins":0,"held_events":0,
            "open_visits":0,"open_window_fixes":0,"forced_by_drain":0,
            "verdicts_flushed":0,"finalized":true,"composition":{
            "user":0,"total_checkins":0,"honest":0,"superfluous":0,"remote":0,
            "driveby":0,"unclassified":0,"visits_total":0,"missing_visits":0,
            "pending_checkins":0,"late_dropped":0,"forced":0}}"#;
        let report: DrainReport = serde_json::from_str(json).expect("old report parses");
        assert_eq!(report.shards, 2);
        assert_eq!(report.store_records, 0);
        assert_eq!(report.store_segments, 0);
        assert_eq!(report.store_bytes, 0);
    }

    #[test]
    fn clean_eof_yields_none() {
        let mut cursor = std::io::Cursor::new(Vec::<u8>::new());
        let got: Option<Request> = read_msg(&mut cursor).expect("eof is clean");
        assert!(got.is_none());
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        let got: io::Result<Option<Request>> = read_msg(&mut cursor);
        assert!(got.is_err());
    }
}
