//! The traced run's in-process replay: the frames a served run sent go
//! through the public layer calls one shard at a time — client encode,
//! server decode, auditor push, store append (with the server's snapshot
//! cadence), ack encode and decode — with one span around each call. Spans
//! are timed here, in the benchmark, never inside the program.
//!
//! Every span is a direct child of its frame's root span, so a layer
//! span's self time is its duration and the root's self time is the glue
//! between the calls. The replay's wall time is the sum of the root spans:
//! cutting the events into frames is the benchmark's own work and stays
//! outside. Totals cover every frame; the spans of the first
//! [`EXPORT_FRAMES`] frames per shard are also kept in memory and written
//! out as Chrome trace-event JSON at the end.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use geosocial_geo::LatLon;
use geosocial_serve::protocol::{Request, Response};
use geosocial_serve::server::shard_of;
use geosocial_serve::wire;
use geosocial_store::{put_f64, put_varint, EventStore, StoreOptions, SENTINEL_USER};
use geosocial_stream::{AuditConfig, OnlineAuditor, OnlineVisitDetector};
use geosocial_trace::{Checkin, GpsPoint, PoiCategory, UserId};

use crate::inputs::{for_each_frame, Inputs};
use crate::spec::SHARDS;

/// Frames per shard whose spans are written to the Chrome trace.
pub const EXPORT_FRAMES: usize = 256;
/// The server's default snapshot cadence (records between snapshots).
const SNAPSHOT_EVERY: u64 = 1024;
/// Leading byte of the server's stored event payloads, by event kind.
const PAYLOAD_GPS: u8 = 0;
const PAYLOAD_CHECKIN: u8 = 1;
const PAYLOAD_HELLO: u8 = 2;

/// The spans of one frame, in call order. Index 0 is the frame root.
const SPANS: [&str; 9] = [
    "frame",
    "wire.encode",
    "wire.decode",
    "stream.auditor.gps",
    "stream.auditor.checkin",
    "store.append",
    "stream.export_state",
    "store.snapshot",
    "wire.ack",
];
const FRAME: usize = 0;
const ENCODE: usize = 1;
const DECODE: usize = 2;
const AUDIT_GPS: usize = 3;
const AUDIT_CHECKIN: usize = 4;
const APPEND: usize = 5;
const EXPORT: usize = 6;
const SNAPSHOT: usize = 7;
const ACK: usize = 8;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    kind: usize,
    shard: usize,
    frame: usize,
    start_ns: u64,
    dur_ns: u64,
}

/// Per-span-kind totals plus the exported spans.
struct Tracer {
    origin: Instant,
    total_ns: [u64; SPANS.len()],
    calls: [u64; SPANS.len()],
    kept: Vec<Span>,
}

impl Tracer {
    /// Close a span that started at `since` now, and start the next one
    /// there: back-to-back calls share one clock read per boundary.
    fn lap(&mut self, kind: usize, shard: usize, frame: usize, since: &mut Instant) {
        let now = Instant::now();
        self.record(kind, shard, frame, *since, now);
        *since = now;
    }

    fn record(&mut self, kind: usize, shard: usize, frame: usize, start: Instant, end: Instant) {
        let dur_ns = end.duration_since(start).as_nanos() as u64;
        self.total_ns[kind] += dur_ns;
        self.calls[kind] += 1;
        if frame < EXPORT_FRAMES {
            let start_ns = start.duration_since(self.origin).as_nanos() as u64;
            self.kept.push(Span { kind, shard, frame, start_ns, dur_ns });
        }
    }
}

/// What the replay measured.
#[derive(Debug)]
pub struct LayerReport {
    /// Events replayed.
    pub events: u64,
    /// GPS fixes replayed.
    pub fixes: u64,
    /// Checkins replayed.
    pub checkins: u64,
    /// Frames replayed.
    pub frames: u64,
    /// Encoded request bytes.
    pub bytes: u64,
    /// Time spent replaying frames: the sum of the frame root spans.
    pub wall: Duration,
    /// Per span name: total nanoseconds and calls.
    pub spans: BTreeMap<&'static str, (u64, u64)>,
    /// Auditor states exported for snapshots.
    pub users_exported: u64,
    /// Wall time of the detector-only pass over the same fixes.
    pub detector: Duration,
}

impl LayerReport {
    fn ns(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |s| s.0 as f64)
    }

    fn calls(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |s| s.1 as f64)
    }

    /// Share of the replay's wall time covered by layer spans, percent.
    pub fn coverage_pct(&self) -> f64 {
        let layers: f64 =
            self.spans.iter().filter(|(k, _)| **k != "frame").map(|(_, v)| v.0 as f64).sum();
        100.0 * layers / self.wall.as_nanos() as f64
    }

    /// The per-layer metrics this replay yields, by name.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let ev = self.events as f64;
        vec![
            ("wire.encode_ns_per_event", per(self.ns("wire.encode"), ev)),
            ("wire.decode_ns_per_event", per(self.ns("wire.decode"), ev)),
            ("wire.ack_ns_per_frame", per(self.ns("wire.ack"), self.frames as f64)),
            ("wire.bytes_per_event", per(self.bytes as f64, ev)),
            ("wire.frames_per_event", per(self.frames as f64, ev)),
            ("stream.detector.ns_per_fix", per(self.detector.as_nanos() as f64, self.fixes as f64)),
            ("stream.auditor.ns_per_fix", per(self.ns("stream.auditor.gps"), self.fixes as f64)),
            (
                "stream.auditor.ns_per_checkin",
                per(self.ns("stream.auditor.checkin"), self.checkins as f64),
            ),
            (
                "stream.auditor.export_state_us_per_user",
                per(self.ns("stream.export_state") / 1e3, self.users_exported as f64),
            ),
            ("store.append_ns_per_event", per(self.ns("store.append"), ev)),
            (
                "store.snapshot_ms",
                per(self.ns("store.snapshot") / 1e6, self.calls("store.snapshot")),
            ),
            ("replay.ns_per_event", per(self.wall.as_nanos() as f64, ev)),
            ("trace.coverage_pct", self.coverage_pct()),
        ]
    }

    /// Self time per span, ns/event, as printable rows (layer spans first,
    /// then the loop overhead and the coverage line).
    pub fn table(&self) -> String {
        let mut out = String::new();
        let ev = self.events.max(1) as f64;
        let _ = writeln!(out, "  {:<24} {:>12} {:>10} {:>7}", "span", "ns/event", "calls", "share");
        let wall = self.wall.as_nanos() as f64;
        let mut covered = 0.0;
        for name in SPANS.iter().skip(1) {
            let (ns, calls) = self.spans.get(name).copied().unwrap_or_default();
            covered += ns as f64;
            let _ = writeln!(
                out,
                "  {:<24} {:>12.1} {:>10} {:>6.1}%",
                name,
                ns as f64 / ev,
                calls,
                100.0 * ns as f64 / wall
            );
        }
        let _ = writeln!(
            out,
            "  {:<24} {:>12.1} {:>10} {:>6.1}%",
            "(frame glue)",
            (wall - covered) / ev,
            "",
            100.0 * (wall - covered) / wall
        );
        out
    }
}

/// Replay the events a served round ingested, cut into frames the same
/// way, in process. `snapshot_len` is the size of the state buffer each snapshot writes (the
/// server's own snapshot size); stores go under `dir`, and the first
/// frames' spans are written to `chrome_out` as Chrome trace-event JSON.
pub fn replay(
    inputs: &Inputs,
    snapshot_len: usize,
    dir: &Path,
    chrome_out: &Path,
) -> io::Result<LayerReport> {
    let origin = inputs.ds.pois.projection().origin();
    let audit = AuditConfig::paper(origin);
    let w = &inputs.workload;
    let mut tracer = Tracer {
        origin: Instant::now(),
        total_ns: [0; SPANS.len()],
        calls: [0; SPANS.len()],
        kept: Vec::new(),
    };
    let mut report = LayerReport {
        events: 0,
        fixes: 0,
        checkins: 0,
        frames: 0,
        bytes: 0,
        wall: Duration::ZERO,
        spans: BTreeMap::new(),
        users_exported: 0,
        detector: Duration::ZERO,
    };
    let state = vec![0x5Au8; snapshot_len];
    let mut buf = Vec::new();
    let mut ack = Vec::new();
    let mut payload = Vec::new();
    for shard in 0..SHARDS {
        let opts = StoreOptions { shard: shard as u64, ..StoreOptions::default() };
        let mut store = EventStore::open(dir.join(format!("shard-{shard}")), opts)?;
        payload.clear();
        payload.push(PAYLOAD_HELLO);
        put_f64(&mut payload, origin.lat);
        put_f64(&mut payload, origin.lon);
        store.append(SENTINEL_USER, 0, &payload)?;
        let mut auditors: HashMap<UserId, OnlineAuditor> = HashMap::new();
        let mut frame_no = 0usize;
        let mut failure: Option<io::Error> = None;
        for_each_frame(&inputs.ds, w.run_len, inputs.t_split, |req, _| {
            if failure.is_some() || shard_of(frame_user(&req), SHARDS) != shard {
                return;
            }
            let f = frame_no;
            frame_no += 1;
            let root = Instant::now();
            let mut t = root;

            buf.clear();
            let encoded = wire::encode_request_frame(&mut buf, &req, w.wire);
            tracer.lap(ENCODE, shard, f, &mut t);
            if let Err(e) = encoded {
                failure = Some(e);
                return;
            }

            let decoded = wire::decode_request(&buf[4..]);
            tracer.lap(DECODE, shard, f, &mut t);
            let req = match decoded {
                Ok((req, _)) => req,
                Err(e) => {
                    failure = Some(e.into());
                    return;
                }
            };

            let user = frame_user(&req);
            let auditor =
                auditors.entry(user).or_insert_with(|| OnlineAuditor::new(user, audit.clone()));
            let kind = match &req {
                Request::GpsRun { fixes, .. } => {
                    for fix in fixes {
                        auditor.push_gps(GpsPoint { t: fix.t, pos: LatLon::new(fix.lat, fix.lon) });
                    }
                    AUDIT_GPS
                }
                Request::Gps { t, lat, lon, .. } => {
                    auditor.push_gps(GpsPoint { t: *t, pos: LatLon::new(*lat, *lon) });
                    AUDIT_GPS
                }
                Request::Checkin { t, poi, lat, lon, .. } => {
                    auditor.push_checkin(Checkin {
                        t: *t,
                        poi: *poi,
                        category: PoiCategory::Food,
                        location: LatLon::new(*lat, *lon),
                        provenance: None,
                    });
                    AUDIT_CHECKIN
                }
                _ => unreachable!("ingest frames only"),
            };
            let verdicts: Vec<_> = auditor.drain_verdicts().collect();
            tracer.lap(kind, shard, f, &mut t);

            let appended = append_events(&mut store, &req, &mut payload);
            tracer.lap(APPEND, shard, f, &mut t);
            if let Err(e) = appended {
                failure = Some(e);
                return;
            }
            if store.records_since_snapshot() >= SNAPSHOT_EVERY {
                t = Instant::now();
                for a in auditors.values() {
                    std::hint::black_box(a.export_state());
                }
                tracer.lap(EXPORT, shard, f, &mut t);
                report.users_exported += auditors.len() as u64;
                let snap = store.snapshot(&state);
                tracer.lap(SNAPSHOT, shard, f, &mut t);
                if let Err(e) = snap {
                    failure = Some(e);
                    return;
                }
            }

            t = Instant::now();
            ack.clear();
            let acked =
                wire::encode_response_frame(&mut ack, &Response::Verdicts { verdicts }, w.wire)
                    .and_then(|()| wire::decode_response(&ack[4..]).map_err(io::Error::from));
            tracer.lap(ACK, shard, f, &mut t);
            if let Err(e) = acked {
                failure = Some(e);
                return;
            }
            tracer.record(FRAME, shard, f, root, t);

            let (_, gps, checkins) = crate::inputs::frame_events(&req);
            report.fixes += gps as u64;
            report.checkins += checkins as u64;
            report.frames += 1;
            report.bytes += buf.len() as u64;
        });
        if let Some(e) = failure {
            return Err(e);
        }
    }
    report.events = report.fixes + report.checkins;
    report.wall = Duration::from_nanos(tracer.total_ns[FRAME]);
    for (i, name) in SPANS.iter().enumerate() {
        report.spans.insert(name, (tracer.total_ns[i], tracer.calls[i]));
    }
    report.detector = detector_pass(inputs);
    write_chrome(&tracer.kept, chrome_out)?;
    Ok(report)
}

fn frame_user(req: &Request) -> UserId {
    crate::inputs::frame_events(req).0
}

/// Append one store record per event, in the server's payload layout
/// (kind byte, sequence number, then the event's fields).
fn append_events(store: &mut EventStore, req: &Request, payload: &mut Vec<u8>) -> io::Result<()> {
    let mut gps = |user: u32, seq: u64, t: i64, lat: f64, lon: f64| {
        payload.clear();
        payload.push(PAYLOAD_GPS);
        put_varint(payload, seq);
        put_f64(payload, lat);
        put_f64(payload, lon);
        store.append(user, t, payload).map(|_| ())
    };
    match req {
        Request::GpsRun { user, first_seq, fixes } => {
            for (i, f) in fixes.iter().enumerate() {
                gps(*user, first_seq + i as u64, f.t, f.lat, f.lon)?;
            }
            Ok(())
        }
        Request::Gps { user, seq, t, lat, lon } => gps(*user, *seq, *t, *lat, *lon),
        Request::Checkin { user, seq, t, poi, lat, lon } => {
            payload.clear();
            payload.push(PAYLOAD_CHECKIN);
            put_varint(payload, *seq);
            put_varint(payload, *poi as u64);
            put_f64(payload, *lat);
            put_f64(payload, *lon);
            store.append(*user, *t, payload).map(|_| ())
        }
        _ => unreachable!("ingest frames only"),
    }
}

/// Time `OnlineVisitDetector::push` alone over every fix the replay saw.
fn detector_pass(inputs: &Inputs) -> Duration {
    let visit = AuditConfig::paper(inputs.ds.pois.projection().origin()).visit;
    let mut total = Duration::ZERO;
    for u in &inputs.ds.users {
        let mut det = OnlineVisitDetector::new(visit);
        let t = Instant::now();
        for p in u.gps.points() {
            det.push(*p);
            while det.pop_visit().is_some() {}
        }
        total += t.elapsed();
    }
    total
}

/// Write `spans` as Chrome trace-event JSON (`ph: "X"` complete events,
/// microsecond timestamps; one thread row per shard).
fn write_chrome(spans: &[Span], path: &Path) -> io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 120 + 64);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let name = SPANS[s.kind];
        let cat = name.split('.').next().unwrap_or(name);
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"frame\":{},\"parent\":\"{}\"}}}}",
            s.shard,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.frame,
            if s.kind == FRAME { "" } else { "frame" },
        );
    }
    out.push_str("]}\n");
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, out)
}
