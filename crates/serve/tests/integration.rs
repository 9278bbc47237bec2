//! End-to-end serving-layer test: spawn `geosocial-serve` on an ephemeral
//! port, replay a generated scenario through the load-generator client, and
//! assert the served composition snapshot exactly matches the batch
//! pipeline's fingerprint — then shut the server down cleanly.

use geosocial_serve::loadgen::{run, shutdown_server, LoadgenConfig};
use geosocial_serve::protocol::{read_frame_into, read_msg, write_msg, Request, Response, WireFix};
use geosocial_serve::server::{spawn, ServerConfig};
use geosocial_serve::wire::{self, WireFormat};
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;

fn replay_and_verify(shards: usize, wire: WireFormat, run_len: usize) {
    let server = spawn(ServerConfig { shards, ..ServerConfig::default() }, "127.0.0.1:0")
        .expect("bind ephemeral port");
    let addr = server.addr();

    let load = LoadgenConfig {
        users: 16,
        days: 3,
        seed: 0xBEEF,
        connections: 2,
        window: 64,
        verify: true,
        wire,
        run_len,
        ..LoadgenConfig::default()
    };
    let report = run(addr, &load).expect("replay succeeds");

    assert!(report.total_events > 0, "scenario generated no events");
    assert_eq!(
        report.server.gps_events + report.server.checkin_events,
        report.total_events,
        "server must ingest every replayed event"
    );
    assert_eq!(
        report.verified,
        Some(true),
        "served compositions diverged from batch: {:?}",
        &report.mismatches[..report.mismatches.len().min(10)]
    );
    assert_eq!(report.server.per_shard.len(), shards);
    assert_eq!(report.server.composition.late_dropped, 0);
    assert_eq!(report.server.composition.forced, 0);

    shutdown_server(addr).expect("shutdown accepted");
    let final_stats = server.join().expect("server exits cleanly");
    assert_eq!(final_stats.gps_events, report.server.gps_events);
    assert_eq!(final_stats.checkin_events, report.server.checkin_events);
}

#[test]
fn served_composition_matches_batch_on_one_shard() {
    replay_and_verify(1, WireFormat::Json, 1);
}

#[test]
fn served_composition_matches_batch_on_four_shards() {
    replay_and_verify(4, WireFormat::Json, 1);
}

#[test]
fn served_composition_matches_batch_binary_batched() {
    replay_and_verify(4, WireFormat::Binary, 32);
}

#[test]
fn served_composition_matches_batch_json_batched_runs() {
    // `GpsRun` is format-independent: the same batched request spelled as
    // JSON must verify too.
    replay_and_verify(2, WireFormat::Json, 16);
}

/// The exactly-once contract on `GpsRun` is **per event**, not per frame:
/// a retried run that overlaps the applied prefix (the shape a fault mid-
/// frame leaves behind) must re-apply only the missing suffix, counting
/// the overlap as duplicates. Spoken over a single connection that
/// switches wire formats frame by frame, which also pins the per-frame
/// format dispatch.
#[test]
fn gps_run_retry_dedups_per_event() {
    let server = spawn(ServerConfig { shards: 1, ..ServerConfig::default() }, "127.0.0.1:0")
        .expect("bind ephemeral port");
    let addr = server.addr();

    let stream = TcpStream::connect(addr).expect("connect");
    let mut w = BufWriter::new(stream.try_clone().expect("clone"));
    let mut r = BufReader::new(stream);
    let mut ask = |req: &Request, fmt: WireFormat| -> Response {
        let mut frame = Vec::new();
        wire::encode_request_frame(&mut frame, req, fmt).expect("encode");
        w.write_all(&frame).expect("write");
        w.flush().expect("flush");
        let mut buf = Vec::new();
        let len = read_frame_into(&mut r, &mut buf).expect("read").expect("response");
        wire::decode_response(&buf[..len]).expect("decode")
    };
    let fix = |i: i64| WireFix { t: 60 * i, lat: 34.42 + 1e-4 * i as f64, lon: -119.86 };
    let run = |first: i64, n: i64| Request::GpsRun {
        user: 1,
        first_seq: first as u64,
        fixes: (first..first + n).map(fix).collect(),
    };

    match ask(&Request::Hello { origin_lat: 34.42, origin_lon: -119.86 }, WireFormat::Binary) {
        Response::Ok => {}
        other => panic!("expected Ok for Hello, got {other:?}"),
    }
    // A 10-fix run applies whole.
    match ask(&run(0, 10), WireFormat::Binary) {
        Response::Verdicts { .. } => {}
        other => panic!("expected Verdicts for run, got {other:?}"),
    }
    // A retried run overlapping the applied prefix: 6 duplicate events
    // acknowledged, 2 fresh events applied — not an 8-event gap error and
    // not 8 re-applied events.
    match ask(&run(4, 8), WireFormat::Binary) {
        Response::Verdicts { .. } => {}
        other => panic!("expected Verdicts for overlapping retry, got {other:?}"),
    }
    // A fully duplicate run is a plain ack (spelled as JSON: the request
    // means the same in either format, on the same connection).
    match ask(&run(0, 12), WireFormat::Json) {
        Response::Verdicts { verdicts } => assert!(verdicts.is_empty()),
        other => panic!("expected empty ack for duplicate run, got {other:?}"),
    }
    // A run past the frontier is a gap, rejected before any fix applies.
    match ask(&run(20, 4), WireFormat::Binary) {
        Response::Error { message } => assert!(message.contains("gap"), "got: {message}"),
        other => panic!("expected gap error, got {other:?}"),
    }
    match ask(&run(12, 1), WireFormat::Binary) {
        Response::Verdicts { .. } => {}
        other => panic!("expected Verdicts for frontier run, got {other:?}"),
    }

    // The server's own ledger: 13 applied fixes (0..13), 18 duplicate
    // events (6 overlap + 12 full-duplicate), zero from the gap frame.
    match ask(&Request::Stats, WireFormat::Binary) {
        Response::Stats { stats } => {
            assert_eq!(stats.gps_events, 13, "only the missing suffixes may apply");
            assert_eq!(stats.duplicates, 18, "overlap must be counted per event");
        }
        other => panic!("expected Stats, got {other:?}"),
    }

    drop(w);
    drop(r);
    shutdown_server(addr).expect("shutdown accepted");
    server.join().expect("server exits cleanly");
}

#[test]
fn protocol_guards_reject_bad_sessions() {
    let server = spawn(ServerConfig { shards: 2, ..ServerConfig::default() }, "127.0.0.1:0")
        .expect("bind ephemeral port");
    let addr = server.addr();

    let stream = TcpStream::connect(addr).expect("connect");
    let mut w = BufWriter::new(stream.try_clone().expect("clone"));
    let mut r = BufReader::new(stream);
    let mut ask = |req: &Request| -> Response {
        write_msg(&mut w, req).expect("write");
        w.flush().expect("flush");
        read_msg(&mut r).expect("read").expect("response")
    };

    // Ingest before Hello is refused.
    match ask(&Request::Gps { user: 1, seq: 0, t: 0, lat: 0.0, lon: 0.0 }) {
        Response::Error { .. } => {}
        other => panic!("expected error before Hello, got {other:?}"),
    }
    // Unknown-user queries are refused.
    match ask(&Request::User { user: 42 }) {
        Response::Error { .. } => {}
        other => panic!("expected unknown-user error, got {other:?}"),
    }
    // Hello, then ingest works.
    match ask(&Request::Hello { origin_lat: 34.42, origin_lon: -119.86 }) {
        Response::Ok => {}
        other => panic!("expected Ok for Hello, got {other:?}"),
    }
    match ask(&Request::Gps { user: 1, seq: 0, t: 0, lat: 34.42, lon: -119.86 }) {
        Response::Verdicts { .. } => {}
        other => panic!("expected Verdicts for Gps, got {other:?}"),
    }
    // A duplicate delivery (same seq) is acknowledged without re-applying.
    match ask(&Request::Gps { user: 1, seq: 0, t: 0, lat: 34.42, lon: -119.86 }) {
        Response::Verdicts { verdicts } => assert!(verdicts.is_empty()),
        other => panic!("expected empty ack for duplicate, got {other:?}"),
    }
    // A sequence gap is rejected.
    match ask(&Request::Gps { user: 1, seq: 5, t: 60, lat: 34.42, lon: -119.86 }) {
        Response::Error { message } => assert!(message.contains("gap"), "got: {message}"),
        other => panic!("expected gap error, got {other:?}"),
    }
    // A gap frame from a user never seen is rejected without creating the
    // user: per-user reads still say "unknown user", the cohort read finds
    // nobody, and the user count is unchanged.
    let users = |resp: Response| match resp {
        Response::Stats { stats } => stats.users,
        other => panic!("expected Stats, got {other:?}"),
    };
    let users_before = users(ask(&Request::Stats));
    match ask(&Request::Gps { user: 9, seq: 3, t: 0, lat: 34.42, lon: -119.86 }) {
        Response::Error { message } => assert!(message.contains("gap"), "got: {message}"),
        other => panic!("expected gap error, got {other:?}"),
    }
    match ask(&Request::User { user: 9 }) {
        Response::Error { message } => assert!(message.contains("unknown user"), "got: {message}"),
        other => panic!("expected unknown-user error after a rejected gap, got {other:?}"),
    }
    match ask(&Request::Window { cohort: vec![9], t0: i64::MIN, t1: i64::MAX }) {
        Response::Compositions { compositions } => assert!(compositions.is_empty()),
        other => panic!("expected an empty cohort, got {other:?}"),
    }
    assert_eq!(users(ask(&Request::Stats)), users_before, "a rejected frame created a user");
    // Checkins follow the same sequence contract as fixes.
    let checkin = |seq| Request::Checkin { user: 1, seq, t: 120, poi: 4, lat: 34.42, lon: -119.86 };
    match ask(&checkin(1)) {
        Response::Verdicts { .. } => {}
        other => panic!("expected Verdicts for Checkin, got {other:?}"),
    }
    match ask(&checkin(1)) {
        Response::Verdicts { verdicts } => assert!(verdicts.is_empty()),
        other => panic!("expected empty ack for duplicate checkin, got {other:?}"),
    }
    match ask(&checkin(7)) {
        Response::Error { message } => assert!(message.contains("gap"), "got: {message}"),
        other => panic!("expected checkin gap error, got {other:?}"),
    }
    // Finish finalizes; ingest afterwards is refused.
    match ask(&Request::Finish) {
        Response::Verdicts { .. } | Response::Ok => {}
        other => panic!("expected Verdicts for Finish, got {other:?}"),
    }
    match ask(&Request::Gps { user: 1, seq: 1, t: 60, lat: 34.42, lon: -119.86 }) {
        Response::Error { .. } => {}
        other => panic!("expected error after Finish, got {other:?}"),
    }

    // Close our connection before asking for shutdown: the server drains
    // in-flight connections before exiting.
    drop(w);
    drop(r);
    shutdown_server(addr).expect("shutdown accepted");
    server.join().expect("server exits cleanly");
}

/// A live `Stats` answer reports the queries served so far — the `User`
/// queries plus the `Stats` itself — as the shutdown counters do.
#[test]
fn live_stats_count_queries() {
    let server = spawn(ServerConfig { shards: 2, ..ServerConfig::default() }, "127.0.0.1:0")
        .expect("bind ephemeral port");
    let addr = server.addr();

    let stream = TcpStream::connect(addr).expect("connect");
    let mut w = BufWriter::new(stream.try_clone().expect("clone"));
    let mut r = BufReader::new(stream);
    let mut ask = |req: &Request| -> Response {
        write_msg(&mut w, req).expect("write");
        w.flush().expect("flush");
        read_msg(&mut r).expect("read").expect("response")
    };

    ask(&Request::Hello { origin_lat: 34.42, origin_lon: -119.86 });
    ask(&Request::Gps { user: 1, seq: 0, t: 0, lat: 34.42, lon: -119.86 });
    for _ in 0..3 {
        match ask(&Request::User { user: 1 }) {
            Response::Composition { .. } => {}
            other => panic!("expected Composition, got {other:?}"),
        }
    }
    match ask(&Request::Stats) {
        Response::Stats { stats } => assert_eq!(stats.queries, 4, "three User + this Stats"),
        other => panic!("expected Stats, got {other:?}"),
    }

    drop(w);
    drop(r);
    shutdown_server(addr).expect("shutdown accepted");
    assert_eq!(server.join().expect("server exits cleanly").queries, 4);
}

/// Coordinates are checked at the shard's edge, on both wires: a frame
/// carrying a non-finite value or a latitude outside [-90, 90] — in a
/// `Hello`, a `Gps`, any fix of a `GpsRun` or a `Checkin` — is answered
/// `Error` on an open connection, and leaves no trace: no user slot, no
/// applied or duplicate event, no recovery and no store record.
#[test]
fn bad_coordinates_are_refused_at_the_edge() {
    let store_dir =
        std::env::temp_dir().join(format!("geosocial-bad-coords-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let config =
        ServerConfig { shards: 2, store_dir: Some(store_dir.clone()), ..ServerConfig::default() };
    let server = spawn(config, "127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.addr();

    let stream = TcpStream::connect(addr).expect("connect");
    let mut w = BufWriter::new(stream.try_clone().expect("clone"));
    let mut r = BufReader::new(stream);
    let mut ask = |req: &Request, fmt: WireFormat| -> Response {
        let mut frame = Vec::new();
        wire::encode_request_frame(&mut frame, req, fmt).expect("encode");
        w.write_all(&frame).expect("write");
        w.flush().expect("flush");
        let mut buf = Vec::new();
        let len = read_frame_into(&mut r, &mut buf).expect("read").expect("an answer");
        wire::decode_response(&buf[..len]).expect("decode")
    };
    let refused = |resp: Response, what: &str| match resp {
        Response::Error { message } => {
            assert!(message.contains("invalid coordinate"), "{what}: got {message}")
        }
        other => panic!("{what}: expected Error, got {other:?}"),
    };

    let (lat, lon) = (34.42, -119.86);
    let gps = |lat, lon| Request::Gps { user: 1, seq: 0, t: 0, lat, lon };
    let run = |bad_lat| Request::GpsRun {
        user: 1,
        first_seq: 0,
        fixes: (0..4)
            .map(|i| WireFix { t: 60 * i, lat: if i == 2 { bad_lat } else { lat }, lon })
            .collect(),
    };
    let checkin = |lat, lon| Request::Checkin { user: 1, seq: 0, t: 0, poi: 4, lat, lon };

    for fmt in [WireFormat::Json, WireFormat::Binary] {
        refused(ask(&Request::Hello { origin_lat: -90.5, origin_lon: lon }, fmt), "Hello");
    }
    match ask(&Request::Hello { origin_lat: lat, origin_lon: lon }, WireFormat::Json) {
        Response::Ok => {}
        other => panic!("expected Ok for Hello, got {other:?}"),
    }
    let store_records = |resp: Response| match resp {
        Response::Drained { report } => report.store_records,
        other => panic!("expected Drained, got {other:?}"),
    };
    let drain = Request::Drain { finalize: false };
    let records_after_hello = store_records(ask(&drain, WireFormat::Json));
    for fmt in [WireFormat::Json, WireFormat::Binary] {
        refused(ask(&gps(95.0, lon), fmt), "Gps lat 95");
        refused(ask(&run(95.0), fmt), "GpsRun fix 3 lat 95");
        refused(ask(&checkin(-95.0, lon), fmt), "Checkin lat -95");
    }
    // Non-finite values only travel on the binary wire (JSON has no NaN).
    refused(ask(&gps(f64::NAN, lon), WireFormat::Binary), "Gps lat NaN");
    refused(ask(&gps(lat, f64::INFINITY), WireFormat::Binary), "Gps lon inf");
    refused(ask(&run(f64::NAN), WireFormat::Binary), "GpsRun fix 3 lat NaN");
    refused(ask(&checkin(lat, f64::NAN), WireFormat::Binary), "Checkin lon NaN");

    match ask(&Request::Stats, WireFormat::Json) {
        Response::Stats { stats } => {
            assert_eq!(stats.users, 0, "a refused frame allocated a user slot");
            assert_eq!(stats.gps_events + stats.checkin_events, 0, "a refused event applied");
            assert_eq!(stats.duplicates, 0);
            assert_eq!(stats.recoveries, 0);
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    // Longitude is normalized, so any finite value is valid; sequence 0 is
    // still the user's next event.
    match ask(&gps(lat, 240.14), WireFormat::Binary) {
        Response::Verdicts { .. } => {}
        other => panic!("expected Verdicts for a valid Gps, got {other:?}"),
    }
    assert_eq!(
        store_records(ask(&drain, WireFormat::Json)),
        records_after_hello + 1,
        "only the valid fix reached the store"
    );

    drop(w);
    drop(r);
    shutdown_server(addr).expect("shutdown accepted");
    server.join().expect("server exits cleanly");
    let _ = std::fs::remove_dir_all(&store_dir);
}
