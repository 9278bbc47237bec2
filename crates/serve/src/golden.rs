//! Golden bytes: the exact encodings of a few representative binary wire
//! frames and one shard snapshot, pinned as hex literals.
//!
//! The round-trip tests elsewhere would still pass if an encoder and its
//! decoder drifted together; these do not. A change here is a wire or
//! store format change: old clients, routers and store directories would
//! no longer interoperate, and it needs a new opcode or `STATE_VERSION`.
//! Each case also decodes its pinned bytes, so the decoders are held to
//! the same layout.

use geosocial_geo::LatLon;
use geosocial_obs::trace::TraceContext;
use geosocial_stream::{AuditVerdict, OnlineAuditor, VerdictKind};

use crate::protocol::{Request, Response, WireFix};
use crate::server::{ServerConfig, ShardCmd, ShardState};
use crate::snapshot::{decode_state, encode_state};
use crate::wire::{
    decode_request_traced, decode_response, encode_request_frame, encode_response_frame,
    encode_traced_request_frame, WireFormat,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex")).collect()
}

/// Encode `req` as a binary frame, compare it with `golden`, and decode the
/// golden payload back to the same request.
fn pin_request(req: &Request, ctx: Option<&TraceContext>, golden: &str) {
    let mut frame = Vec::new();
    match ctx {
        Some(c) => encode_traced_request_frame(&mut frame, c, req, WireFormat::Binary),
        None => encode_request_frame(&mut frame, req, WireFormat::Binary),
    }
    .expect("encode");
    assert_eq!(hex(&frame), golden, "{req:?}");
    let bytes = unhex(golden);
    let (back, wire, back_ctx) = decode_request_traced(&bytes[4..]).expect("golden decodes");
    assert_eq!(wire, WireFormat::Binary);
    assert_eq!(back_ctx.as_ref(), ctx);
    assert_eq!(format!("{back:?}"), format!("{req:?}"));
}

fn verdict(checkin_index: usize, kind: VerdictKind, visit_index: Option<usize>) -> AuditVerdict {
    AuditVerdict {
        user: 300,
        checkin_index,
        t: 86_400 + 60 * checkin_index as i64,
        kind,
        visit_index,
        distance_m: 42.25,
        dt_s: -90,
    }
}

#[test]
fn gps_run_request_bytes() {
    let fixes = (0..3)
        .map(|i| WireFix {
            t: 1_000 + 60 * i as i64,
            lat: 34.42 + 0.0001 * i as f64,
            lon: -119.86 - 0.0002 * i as f64,
        })
        .collect();
    pin_request(
        &Request::GpsRun { user: 7, first_seq: 130, fixes },
        None,
        "0000002f8a07820103d00ff6285c8fc2354140d7a3703d0af75dc078acdd92cb75ecc5f6c97b78e7cbb1d9cc01a5bf91fbd403",
    );
}

#[test]
fn checkin_request_bytes() {
    pin_request(
        &Request::Checkin {
            user: 70_000,
            seq: 5,
            t: -60,
            poi: 1_234,
            lat: 34.4201,
            lon: -119.8601,
        },
        None,
        "0000001883f0a2040577d209598638d6c535414089d2dee00bf75dc0",
    );
}

#[test]
fn traced_gps_request_bytes() {
    let ctx = TraceContext {
        trace_id: 0x1122_3344_5566_7788_99AA_BBCC_DDEE_FF00,
        span_id: 0x0102_0304_0506_0708,
        flags: 0x03,
        start_us: 1_754_000_000_000_000,
        attempt: 2,
    };
    pin_request(
        &Request::Gps { user: 9, seq: 16_384, t: 1_234, lat: 34.4, lon: -119.8 },
        Some(&ctx),
        "0000003a9000ffeeddccbbaa99887766554433221108070605040302010380c0be978fe88e03028209808001a41333333333333341403333333333f35dc0",
    );
}

#[test]
fn verdicts_response_bytes() {
    let resp = Response::Verdicts {
        verdicts: vec![
            verdict(4, VerdictKind::Honest, Some(2)),
            verdict(5, VerdictKind::Driveby, None),
        ],
    };
    let golden =
        "00000026c102ac0204e0c90a00030000000000204540b301ac0205d8ca0a03000000000000204540b301";
    let mut frame = Vec::new();
    encode_response_frame(&mut frame, &resp, WireFormat::Binary).expect("encode");
    assert_eq!(hex(&frame), golden);
    let back = decode_response(&unhex(golden)[4..]).expect("golden decodes");
    assert_eq!(format!("{back:?}"), format!("{resp:?}"));
}

/// One user whose auditor holds one undrained verdict: the snapshot's
/// verdict record sits just before the trailing composition.
#[test]
fn snapshot_verdict_record_bytes() {
    let config = ServerConfig::default();
    let origin = LatLon::new(34.42, -119.86);
    let mut state = ShardState::new(1);
    state.apply(&ShardCmd::SetOrigin { origin }, &config, None, None);
    let audit = config.audit_config(origin);
    let mut astate = OnlineAuditor::new(300, audit.clone()).export_state();
    astate.verdicts = vec![verdict(4, VerdictKind::Remote, None)];
    state.slot_of.insert(300, 0);
    state.users.push(300);
    state.next_seq.push(12);
    state.auditors.push(OnlineAuditor::restore(audit, None, astate));

    let golden = "01010001f6285c8fc2354140d7a3703d0af75dc0000000000001ac020cac02000000000000000000000000000000ffffffffffffffffff010001ac0204e0c90a02000000000000204540b301ac02000000000000000000000000";
    let bytes = encode_state(&state);
    assert_eq!(hex(&bytes), golden);
    let back = decode_state(&unhex(golden), &config).expect("golden decodes");
    assert_eq!(encode_state(&back), bytes);
}
