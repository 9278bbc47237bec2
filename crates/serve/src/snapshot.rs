//! Byte codecs between shard state and the event store.
//!
//! Two layers, both built on `geosocial-store`'s codec (the one the
//! binary wire speaks too; verdict records share the wire's layout):
//!
//! * **Event payloads** — what one stored log record's body carries beyond
//!   the `(user, t)` header the store frames itself. Ingest events encode
//!   the per-user sequence number and coordinates; session control events
//!   (`Hello`, `Finish`) travel as sentinel records
//!   (`user == SENTINEL_USER`) so sequential replay reproduces the session
//!   exactly while per-user historical reads never see them.
//!   [`decode_event`] turns a record back into the [`Request`] it came
//!   from, so crash recovery routes replayed events through the very same
//!   `apply` path as a fresh delivery.
//! * **Shard snapshots** — the complete crash-replaceable state of one
//!   shard ([`crate::shard`]'s `ShardState`) as one byte string, stored
//!   in the event store's compacted snapshot files. The auditors export
//!   through `geosocial-stream`'s plain-data state
//!   ([`geosocial_stream::snapshot`]), which omits everything derivable
//!   from configuration. A served shard's configuration is
//!   `AuditConfig::paper` at its stored origin, so the snapshot alone
//!   determines it, and a decoded shard continues **bit-identically**
//!   (restored locals are re-derived through the same projection).
//!
//! Both codecs are versioned with a leading byte so a future layout change
//! can refuse (rather than misread) old snapshots.

use geosocial_geo::LatLon;
use geosocial_store::{
    put_bytes, put_f64, put_varint, put_zigzag, CodecError, Reader, StoredRecord,
};
use geosocial_stream::snapshot::{
    AuditorState, DetectorState, PendingCheckinState, StageState, TrackedVisitState,
};
use geosocial_stream::{AuditConfig, OnlineAuditor, StreamComposition};
use geosocial_trace::{Checkin, GpsPoint, PoiCategory, Provenance, Timestamp, Visit};

use crate::protocol::{Request, ShardStats};
use crate::shard::ShardState;
use crate::wire::{bad, put_verdict, read_verdict};

/// Snapshot layout version (leading byte of every encoded shard state).
const STATE_VERSION: u8 = 1;

// Event payload kinds (leading byte of every log record body).
const EV_GPS: u8 = 0;
const EV_CHECKIN: u8 = 1;
const EV_HELLO: u8 = 2;
const EV_FINISH: u8 = 3;
// Trace-stream record kind (the `<shard>/trace/` store only holds these).
const EV_SPAN: u8 = 4;

// ---------------------------------------------------------------------------
// Event payloads
// ---------------------------------------------------------------------------

/// Encode a GPS ingest event's record body (`seq`, coordinates).
pub(crate) fn gps_payload(buf: &mut Vec<u8>, seq: u64, lat: f64, lon: f64) {
    buf.clear();
    buf.push(EV_GPS);
    put_varint(buf, seq);
    put_f64(buf, lat);
    put_f64(buf, lon);
}

/// Encode a checkin ingest event's record body.
pub(crate) fn checkin_payload(buf: &mut Vec<u8>, seq: u64, poi: u32, lat: f64, lon: f64) {
    buf.clear();
    buf.push(EV_CHECKIN);
    put_varint(buf, seq);
    put_varint(buf, poi as u64);
    put_f64(buf, lat);
    put_f64(buf, lon);
}

/// Encode the `Hello` sentinel body (projection origin).
pub(crate) fn hello_payload(buf: &mut Vec<u8>, origin: LatLon) {
    buf.clear();
    buf.push(EV_HELLO);
    put_f64(buf, origin.lat);
    put_f64(buf, origin.lon);
}

/// Encode the `Finish` sentinel body.
pub(crate) fn finish_payload(buf: &mut Vec<u8>) {
    buf.clear();
    buf.push(EV_FINISH);
}

/// Decode one stored record back into the request it logged. Replay feeds
/// the result through the same mutation routing as a live delivery.
pub(crate) fn decode_event(rec: &StoredRecord) -> Result<Request, CodecError> {
    let mut r = Reader::new(&rec.payload);
    let req = match r.byte()? {
        EV_GPS => Request::Gps {
            user: rec.user,
            seq: r.varint()?,
            t: rec.t,
            lat: r.f64()?,
            lon: r.f64()?,
        },
        EV_CHECKIN => Request::Checkin {
            user: rec.user,
            seq: r.varint()?,
            t: rec.t,
            poi: r.u32("poi id")?,
            lat: r.f64()?,
            lon: r.f64()?,
        },
        EV_HELLO => Request::Hello { origin_lat: r.f64()?, origin_lon: r.f64()? },
        EV_FINISH => Request::Finish,
        other => {
            return Err(CodecError { offset: 0, detail: format!("unknown event kind {other}") })
        }
    };
    r.finish()?;
    Ok(req)
}

// ---------------------------------------------------------------------------
// Trace span records
// ---------------------------------------------------------------------------

/// Encode one [`SpanRecord`] as a trace-stream record body. The 128-bit
/// trace id travels as two u64 varints (sampled ids are splitmix64
/// output, so fixed-width would rarely win anyway).
pub(crate) fn span_payload(buf: &mut Vec<u8>, span: &geosocial_obs::trace::SpanRecord) {
    buf.clear();
    buf.push(EV_SPAN);
    put_varint(buf, span.trace_id as u64);
    put_varint(buf, (span.trace_id >> 64) as u64);
    put_varint(buf, span.span_id);
    put_varint(buf, span.parent);
    put_bytes(buf, span.name.as_bytes());
    put_varint(buf, span.start_us);
    put_varint(buf, span.dur_us);
    buf.push(span.flags);
    put_zigzag(buf, span.shard as i64);
}

/// Decode one trace-stream record back into its span.
pub(crate) fn decode_span(
    rec: &StoredRecord,
) -> Result<geosocial_obs::trace::SpanRecord, CodecError> {
    let mut r = Reader::new(&rec.payload);
    let kind = r.byte()?;
    if kind != EV_SPAN {
        return Err(bad(r.pos(), format!("trace stream holds record kind {kind}, want span")));
    }
    let lo = r.varint()?;
    let hi = r.varint()?;
    let span_id = r.varint()?;
    let parent = r.varint()?;
    let name = r.str("span name")?.to_string();
    let start_us = r.varint()?;
    let dur_us = r.varint()?;
    let flags = r.byte()?;
    let shard = r.zigzag()?;
    let shard = i32::try_from(shard).map_err(|_| bad(r.pos(), format!("span shard {shard}")))?;
    r.finish()?;
    Ok(geosocial_obs::trace::SpanRecord {
        trace_id: (lo as u128) | ((hi as u128) << 64),
        span_id,
        parent,
        name,
        start_us,
        dur_us,
        flags,
        shard,
    })
}

// ---------------------------------------------------------------------------
// Scalar helpers
// ---------------------------------------------------------------------------

fn usize_field(r: &mut Reader<'_>) -> Result<usize, CodecError> {
    Ok(r.varint()? as usize)
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

fn read_bool(r: &mut Reader<'_>) -> Result<bool, CodecError> {
    match r.byte()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(bad(r.pos(), format!("bool flag must be 0|1, got {other}"))),
    }
}

fn put_opt_t(out: &mut Vec<u8>, t: Option<Timestamp>) {
    match t {
        Some(t) => {
            out.push(1);
            put_zigzag(out, t);
        }
        None => out.push(0),
    }
}

fn read_opt_t(r: &mut Reader<'_>) -> Result<Option<Timestamp>, CodecError> {
    Ok(if read_bool(r)? { Some(r.zigzag()?) } else { None })
}

fn put_point(out: &mut Vec<u8>, p: &GpsPoint) {
    put_zigzag(out, p.t);
    put_f64(out, p.pos.lat);
    put_f64(out, p.pos.lon);
}

fn read_point(r: &mut Reader<'_>) -> Result<GpsPoint, CodecError> {
    Ok(GpsPoint { t: r.zigzag()?, pos: LatLon { lat: r.f64()?, lon: r.f64()? } })
}

fn put_visit(out: &mut Vec<u8>, v: &Visit) {
    put_zigzag(out, v.start);
    put_zigzag(out, v.end);
    put_f64(out, v.centroid.lat);
    put_f64(out, v.centroid.lon);
    put_varint(out, v.poi.map_or(0, |p| p as u64 + 1));
}

fn read_visit(r: &mut Reader<'_>) -> Result<Visit, CodecError> {
    let start = r.zigzag()?;
    let end = r.zigzag()?;
    let centroid = LatLon { lat: r.f64()?, lon: r.f64()? };
    let poi = match r.varint()? {
        0 => None,
        p => Some(
            u32::try_from(p - 1)
                .map_err(|_| bad(r.pos(), format!("visit poi id {} > u32::MAX", p - 1)))?,
        ),
    };
    Ok(Visit { start, end, centroid, poi })
}

fn put_checkin(out: &mut Vec<u8>, c: &Checkin) {
    put_zigzag(out, c.t);
    put_varint(out, c.poi as u64);
    let cat = PoiCategory::ALL.iter().position(|&k| k == c.category).expect("known category");
    out.push(cat as u8);
    put_f64(out, c.location.lat);
    put_f64(out, c.location.lon);
    out.push(match c.provenance {
        None => 0,
        Some(Provenance::Honest) => 1,
        Some(Provenance::Superfluous) => 2,
        Some(Provenance::Remote) => 3,
        Some(Provenance::Driveby) => 4,
        Some(Provenance::Spoofed) => 5,
    });
}

fn read_checkin(r: &mut Reader<'_>) -> Result<Checkin, CodecError> {
    let t = r.zigzag()?;
    let poi = r.u32("poi id")?;
    let cat = r.byte()? as usize;
    let category = *PoiCategory::ALL
        .get(cat)
        .ok_or_else(|| bad(r.pos(), format!("unknown poi category {cat}")))?;
    let location = LatLon { lat: r.f64()?, lon: r.f64()? };
    let provenance = match r.byte()? {
        0 => None,
        1 => Some(Provenance::Honest),
        2 => Some(Provenance::Superfluous),
        3 => Some(Provenance::Remote),
        4 => Some(Provenance::Driveby),
        5 => Some(Provenance::Spoofed),
        other => return Err(bad(r.pos(), format!("unknown provenance {other}"))),
    };
    Ok(Checkin { t, poi, category, location, provenance })
}

fn put_comp(out: &mut Vec<u8>, c: &StreamComposition) {
    put_varint(out, c.user as u64);
    for v in [
        c.total_checkins,
        c.honest,
        c.superfluous,
        c.remote,
        c.driveby,
        c.unclassified,
        c.visits_total,
        c.missing_visits,
        c.pending_checkins,
        c.late_dropped,
        c.forced,
    ] {
        put_varint(out, v as u64);
    }
}

fn read_comp(r: &mut Reader<'_>) -> Result<StreamComposition, CodecError> {
    Ok(StreamComposition {
        user: r.u32("user id")?,
        total_checkins: usize_field(r)?,
        honest: usize_field(r)?,
        superfluous: usize_field(r)?,
        remote: usize_field(r)?,
        driveby: usize_field(r)?,
        unclassified: usize_field(r)?,
        visits_total: usize_field(r)?,
        missing_visits: usize_field(r)?,
        pending_checkins: usize_field(r)?,
        late_dropped: usize_field(r)?,
        forced: usize_field(r)?,
    })
}

// ---------------------------------------------------------------------------
// Auditor state
// ---------------------------------------------------------------------------

fn put_detector(out: &mut Vec<u8>, d: &DetectorState) {
    put_varint(out, d.buffer.len() as u64);
    for p in &d.buffer {
        put_point(out, p);
    }
    put_varint(out, d.validated as u64);
    put_bool(out, d.broke);
    put_varint(out, d.emitted.len() as u64);
    for v in &d.emitted {
        put_visit(out, v);
    }
    put_varint(out, d.emitted_total as u64);
    put_opt_t(out, d.frontier);
    put_varint(out, d.late_dropped as u64);
    put_varint(out, d.forced_closures as u64);
    put_bool(out, d.finished);
}

fn read_detector(r: &mut Reader<'_>) -> Result<DetectorState, CodecError> {
    let n = usize_field(r)?;
    let mut buffer = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        buffer.push(read_point(r)?);
    }
    let validated = usize_field(r)?;
    let broke = read_bool(r)?;
    let n = usize_field(r)?;
    let mut emitted = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        emitted.push(read_visit(r)?);
    }
    Ok(DetectorState {
        buffer,
        validated,
        broke,
        emitted,
        emitted_total: usize_field(r)?,
        frontier: read_opt_t(r)?,
        late_dropped: usize_field(r)?,
        forced_closures: usize_field(r)?,
        finished: read_bool(r)?,
    })
}

fn put_auditor(out: &mut Vec<u8>, a: &AuditorState) {
    put_varint(out, a.user as u64);
    put_detector(out, &a.detector);
    put_varint(out, a.gps_window.len() as u64);
    for p in &a.gps_window {
        put_point(out, p);
    }
    put_opt_t(out, a.last_gps_t);
    put_varint(out, a.visits.len() as u64);
    for tv in &a.visits {
        put_varint(out, tv.index as u64);
        put_visit(out, &tv.visit);
        match tv.winner {
            Some((idx, dist)) => {
                out.push(1);
                put_varint(out, idx as u64);
                put_f64(out, dist);
            }
            None => out.push(0),
        }
        put_bool(out, tv.resolved);
    }
    put_varint(out, a.next_visit_index as u64);
    put_varint(out, a.pending.len() as u64);
    for pc in &a.pending {
        put_varint(out, pc.index as u64);
        put_checkin(out, &pc.checkin);
        match pc.stage {
            StageState::Candidate => out.push(0),
            StageState::Dedup(v) => {
                out.push(1);
                put_varint(out, v as u64);
            }
            StageState::Classify => out.push(2),
        }
    }
    put_varint(out, a.checkin_count as u64);
    put_zigzag(out, a.frontier);
    // The lateness-buffer flag: always 0, since auditors have no lateness
    // buffer. The byte stays so the layout (and `STATE_VERSION`) does not
    // change.
    out.push(0);
    put_varint(out, a.verdicts.len() as u64);
    for v in &a.verdicts {
        put_verdict(out, v);
    }
    put_comp(out, &a.comp);
    put_bool(out, a.finished);
}

fn read_auditor(r: &mut Reader<'_>) -> Result<AuditorState, CodecError> {
    let user = r.u32("user id")?;
    let detector = read_detector(r)?;
    let n = usize_field(r)?;
    let mut gps_window = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        gps_window.push(read_point(r)?);
    }
    let last_gps_t = read_opt_t(r)?;
    let n = usize_field(r)?;
    let mut visits = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let index = usize_field(r)?;
        let visit = read_visit(r)?;
        let winner = if read_bool(r)? { Some((usize_field(r)?, r.f64()?)) } else { None };
        visits.push(TrackedVisitState { index, visit, winner, resolved: read_bool(r)? });
    }
    let next_visit_index = usize_field(r)?;
    let n = usize_field(r)?;
    let mut pending = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let index = usize_field(r)?;
        let checkin = read_checkin(r)?;
        let stage = match r.byte()? {
            0 => StageState::Candidate,
            1 => StageState::Dedup(usize_field(r)?),
            2 => StageState::Classify,
            other => return Err(bad(r.pos(), format!("unknown pending stage {other}"))),
        };
        pending.push(PendingCheckinState { index, checkin, stage });
    }
    let checkin_count = usize_field(r)?;
    let frontier = r.zigzag()?;
    let at = r.pos();
    if r.byte()? != 0 {
        return Err(bad(at, "snapshot holds a lateness buffer; served auditors have none"));
    }
    let n = usize_field(r)?;
    let mut verdicts = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        verdicts.push(read_verdict(r)?);
    }
    Ok(AuditorState {
        user,
        detector,
        gps_window,
        last_gps_t,
        visits,
        next_visit_index,
        pending,
        checkin_count,
        frontier,
        verdicts,
        comp: read_comp(r)?,
        finished: read_bool(r)?,
    })
}

// ---------------------------------------------------------------------------
// Shard state
// ---------------------------------------------------------------------------

/// Serialize one shard's complete crash-replaceable state.
pub(crate) fn encode_state(state: &ShardState) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(STATE_VERSION);
    put_varint(&mut out, state.shard as u64);
    put_bool(&mut out, state.finished);
    match &state.audit {
        Some(a) => {
            out.push(1);
            put_f64(&mut out, a.origin.lat);
            put_f64(&mut out, a.origin.lon);
        }
        None => out.push(0),
    }
    for v in [
        state.stats.gps_events,
        state.stats.checkin_events,
        state.stats.verdicts,
        state.stats.duplicates,
        state.stats.recoveries,
    ] {
        put_varint(&mut out, v as u64);
    }
    put_varint(&mut out, state.users.len() as u64);
    for slot in 0..state.users.len() {
        put_varint(&mut out, state.users[slot] as u64);
        put_varint(&mut out, state.next_seq[slot]);
        put_auditor(&mut out, &state.auditors[slot].export_state());
    }
    out
}

/// Rebuild a shard from [`encode_state`] bytes. The audit configuration
/// is `AuditConfig::paper` at the stored origin, as at `Hello`.
pub(crate) fn decode_state(bytes: &[u8]) -> Result<ShardState, CodecError> {
    let mut r = Reader::new(bytes);
    let version = r.byte()?;
    if version != STATE_VERSION {
        return Err(bad(r.pos(), format!("unsupported shard snapshot version {version}")));
    }
    let shard = usize_field(&mut r)?;
    let mut state = ShardState::new(shard);
    state.finished = read_bool(&mut r)?;
    if read_bool(&mut r)? {
        let origin = LatLon::new(r.f64()?, r.f64()?);
        state.audit = Some(AuditConfig::paper(origin));
    }
    state.stats = ShardStats {
        shard,
        users: 0,
        gps_events: usize_field(&mut r)?,
        checkin_events: usize_field(&mut r)?,
        verdicts: usize_field(&mut r)?,
        duplicates: usize_field(&mut r)?,
        recoveries: usize_field(&mut r)?,
    };
    let users = usize_field(&mut r)?;
    state.stats.users = users;
    for slot in 0..users {
        let user = r.u32("user id")?;
        let next_seq = r.varint()?;
        let astate = read_auditor(&mut r)?;
        let audit = state
            .audit
            .clone()
            .ok_or_else(|| bad(r.pos(), "user state present but no origin in snapshot"))?;
        state.slot_of.insert(user, slot);
        state.users.push(user);
        state.next_seq.push(next_seq);
        state.auditors.push(OnlineAuditor::restore(audit, astate));
    }
    r.finish()?;
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosocial_store::SENTINEL_USER;

    fn seeded_state() -> ShardState {
        let mut st = ShardState::new(2);
        st.apply(&Request::Hello { origin_lat: 34.42, origin_lon: -119.86 }, None);
        for (i, user) in [7u32, 19, 7, 7, 19].iter().enumerate() {
            let (t, lat) = (600 * i as i64, 34.42 + 0.0001 * i as f64);
            // Fresh users have no slot yet; first contact is seq 0.
            let seq = st.slot_of.get(user).map_or(0, |&s| st.next_seq[s]);
            st.apply(&Request::Gps { user: *user, seq, t, lat, lon: -119.86 }, None);
        }
        let seq = st.next_seq[st.slot_of[&7u32]];
        let checkin =
            Request::Checkin { user: 7, seq, t: 1_500, poi: 3, lat: 34.4201, lon: -119.86 };
        st.apply(&checkin, None);
        st
    }

    #[test]
    fn shard_state_roundtrips_byte_stably() {
        let st = seeded_state();
        let bytes = encode_state(&st);
        let decoded = decode_state(&bytes).expect("decodes");
        // Byte-stable: re-encoding the decoded state reproduces the exact
        // snapshot, so restore lost nothing.
        assert_eq!(encode_state(&decoded), bytes);
    }

    /// A served auditor never buffers for lateness, so a snapshot whose
    /// lateness-buffer flag is set cannot have come from a server: the
    /// decoder refuses it at that byte instead of misreading what follows.
    #[test]
    fn snapshot_with_a_lateness_buffer_is_refused() {
        let st = seeded_state();
        let mut bytes = encode_state(&st);
        // The flag sits just before the last auditor's tail: its verdicts,
        // its composition and its `finished` flag.
        let last = st.auditors.last().expect("seeded users").export_state();
        let mut tail = Vec::new();
        put_varint(&mut tail, last.verdicts.len() as u64);
        for v in &last.verdicts {
            put_verdict(&mut tail, v);
        }
        put_comp(&mut tail, &last.comp);
        put_bool(&mut tail, last.finished);
        let flag = bytes.len() - tail.len() - 1;
        assert_eq!(bytes[flag], 0, "served snapshots write the flag as 0");
        bytes[flag] = 1;
        let e = match decode_state(&bytes) {
            Err(e) => e,
            Ok(_) => panic!("a snapshot carrying a lateness buffer decoded"),
        };
        assert_eq!(e.offset, flag, "{e:?}");
        assert!(e.detail.contains("lateness buffer"), "{e:?}");
    }

    #[test]
    fn restored_shard_continues_identically() {
        let mut orig = seeded_state();
        let restored_bytes = encode_state(&orig);
        let mut restored = decode_state(&restored_bytes).expect("decodes");
        // Drive both copies through the same tail of events and finishing;
        // every response must match (responses carry the verdicts).
        let seq = orig.next_seq[orig.slot_of[&7u32]];
        let tail =
            [Request::Gps { user: 7, seq, t: 4_000, lat: 34.5, lon: -119.86 }, Request::Finish];
        for req in &tail {
            let a = orig.apply(req, None);
            let b = restored.apply(req, None);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        assert_eq!(encode_state(&orig), encode_state(&restored));
    }

    #[test]
    fn event_payloads_roundtrip_to_requests() {
        let mut buf = Vec::new();
        gps_payload(&mut buf, 42, 34.42, -119.86);
        let rec = StoredRecord { lsn: 0, user: 9, t: 777, payload: buf.clone() };
        match decode_event(&rec).expect("decodes") {
            Request::Gps { user: 9, seq: 42, t: 777, lat, lon } => {
                assert_eq!(lat.to_bits(), 34.42f64.to_bits());
                assert_eq!(lon.to_bits(), (-119.86f64).to_bits());
            }
            other => panic!("bad decode: {other:?}"),
        }

        checkin_payload(&mut buf, 5, 31, 1.5, 2.5);
        let rec = StoredRecord { lsn: 1, user: 3, t: -10, payload: buf.clone() };
        match decode_event(&rec).expect("decodes") {
            Request::Checkin { user: 3, seq: 5, t: -10, poi: 31, .. } => {}
            other => panic!("bad decode: {other:?}"),
        }

        hello_payload(&mut buf, LatLon::new(10.0, 20.0));
        let rec = StoredRecord { lsn: 2, user: SENTINEL_USER, t: 0, payload: buf.clone() };
        match decode_event(&rec).expect("decodes") {
            Request::Hello { origin_lat, origin_lon } => {
                assert_eq!(origin_lat, 10.0);
                assert_eq!(origin_lon, 20.0);
            }
            other => panic!("bad decode: {other:?}"),
        }

        finish_payload(&mut buf);
        let rec = StoredRecord { lsn: 3, user: SENTINEL_USER, t: 0, payload: buf.clone() };
        assert!(matches!(decode_event(&rec).expect("decodes"), Request::Finish));
    }

    #[test]
    fn span_records_roundtrip() {
        let span = geosocial_obs::trace::SpanRecord {
            trace_id: 0xdead_beef_0123_4567_89ab_cdef_0011_2233,
            span_id: 42,
            parent: 7,
            name: "store.append".into(),
            start_us: 1_700_000_000_000_000,
            dur_us: 123,
            flags: geosocial_obs::trace::FLAG_SAMPLED | geosocial_obs::trace::FLAG_DEDUP,
            shard: -1,
        };
        let mut buf = Vec::new();
        span_payload(&mut buf, &span);
        let rec = StoredRecord { lsn: 0, user: 1, t: span.start_us as i64, payload: buf };
        assert_eq!(decode_span(&rec).expect("decodes"), span);
    }

    #[test]
    fn truncated_snapshot_is_a_structured_error() {
        let st = seeded_state();
        let bytes = encode_state(&st);
        let e = match decode_state(&bytes[..bytes.len() / 2]) {
            Err(e) => e,
            Ok(_) => panic!("truncated snapshot decoded"),
        };
        assert!(e.offset <= bytes.len() / 2, "offset {} inside the cut", e.offset);
    }
}
