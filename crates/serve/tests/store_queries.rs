//! Time-travel query tests: the event store's `AsOf`/`Window` answers and
//! restart recovery must agree with the batch pipeline.
//!
//! - `AsOf { user, t }` re-audits the user's stored events truncated at
//!   `t` — it must equal `window_compositions` (the batch primitive) on
//!   the same truncated stream, while the live auditors keep their full
//!   state untouched.
//! - `Window { cohort, t0, t1 }` is the cohort-wide version, merged and
//!   sorted across shards.
//! - A server restarted on the same `--store-dir` must restore the exact
//!   audited state from its snapshot + replayed delta.

use geosocial_checkin::{Scenario, ScenarioConfig};
use geosocial_serve::loadgen::{control_request, run, shutdown_server, LoadgenConfig};
use geosocial_serve::protocol::{Request, Response};
use geosocial_serve::server::{spawn, ServerConfig};
use geosocial_stream::{dataset_events, window_compositions, AuditConfig, StreamEvent};
use geosocial_trace::{Dataset, UserId};
use std::collections::BTreeSet;

/// The scenario both tests replay, plus its derived batch-side inputs.
fn scenario(users: u32, days: u32, seed: u64) -> (Scenario, Vec<StreamEvent>) {
    let cfg = ScenarioConfig::small(users, days);
    let scenario = Scenario::generate(&cfg, seed);
    let events = dataset_events(&scenario.primary);
    (scenario, events)
}

fn audit_config(ds: &Dataset) -> AuditConfig {
    // `ServerConfig::default()` copies its thresholds out of
    // `AuditConfig::paper`, so this is exactly what the server applies.
    AuditConfig::paper(ds.pois.projection().origin())
}

fn cohort_of(events: &[StreamEvent]) -> Vec<UserId> {
    let users: BTreeSet<UserId> = events.iter().map(StreamEvent::user).collect();
    users.into_iter().collect()
}

#[test]
fn as_of_and_window_match_batch_truncated_at_watermark() {
    let (scenario, events) = scenario(16, 3, 0xBEEF);
    let ds = &scenario.primary;
    let server = spawn(ServerConfig::default(), "127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.addr();

    let load = LoadgenConfig {
        users: 16,
        days: 3,
        seed: 0xBEEF,
        connections: 2,
        window: 64,
        verify: true,
        ..LoadgenConfig::default()
    };
    let report = run(addr, &load).expect("replay succeeds");
    assert_eq!(report.verified, Some(true), "live replay must match batch first");

    // A mid-stream watermark: half the events are before it, half after,
    // so the truncated audit is genuinely different from the full one.
    let mut times: Vec<i64> = events.iter().map(StreamEvent::t).collect();
    times.sort_unstable();
    let watermark = times[times.len() / 2];

    let cfg = audit_config(ds);
    let cohort = cohort_of(&events);
    let expected = window_compositions(&events, &cfg, None, i64::MIN, watermark);

    // Per-user `AsOf` at the watermark == the batch pipeline truncated
    // there.
    for want in &expected {
        match control_request(addr, &Request::AsOf { user: want.user, t: watermark })
            .expect("control request")
        {
            Response::AsOf { composition, .. } => {
                assert_eq!(composition, *want, "AsOf diverged for user {}", want.user);
            }
            other => panic!("user {}: unexpected AsOf reply {other:?}", want.user),
        }
    }

    // `AsOf` at t=∞ reports how many of the user's events the store has
    // applied — the loadgen resume contract.
    let per_user: Vec<usize> =
        cohort.iter().map(|&u| events.iter().filter(|e| e.user() == u).count()).collect();
    for (&user, &count) in cohort.iter().zip(&per_user) {
        match control_request(addr, &Request::AsOf { user, t: i64::MAX }).expect("control request")
        {
            Response::AsOf { applied, .. } => {
                assert_eq!(applied, count as u64, "store applied-count for user {user}");
            }
            other => panic!("user {user}: unexpected AsOf reply {other:?}"),
        }
    }

    // Cohort-wide `Window` over [-∞, watermark], with one never-seen user
    // in the cohort: unknown users are skipped, the merge is sorted.
    let mut ask = cohort.clone();
    ask.push(u32::MAX - 1);
    match control_request(addr, &Request::Window { cohort: ask, t0: i64::MIN, t1: watermark })
        .expect("control request")
    {
        Response::Compositions { compositions } => {
            assert_eq!(compositions, expected, "Window diverged from batch truncation");
        }
        other => panic!("unexpected Window reply {other:?}"),
    }

    // And the degenerate full-range window equals the full batch replay.
    let full = window_compositions(&events, &cfg, None, i64::MIN, i64::MAX);
    match control_request(
        addr,
        &Request::Window { cohort: cohort.clone(), t0: i64::MIN, t1: i64::MAX },
    )
    .expect("control request")
    {
        Response::Compositions { compositions } => {
            assert_eq!(compositions, full, "full-range Window diverged from batch");
        }
        other => panic!("unexpected Window reply {other:?}"),
    }

    shutdown_server(addr).expect("shutdown accepted");
    server.join().expect("server exits cleanly");
}

#[test]
fn state_survives_server_restart_on_same_store_dir() {
    let (scenario, events) = scenario(8, 2, 7);
    let ds = &scenario.primary;
    let store_dir =
        std::env::temp_dir().join(format!("geosocial-store-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);

    let config = ServerConfig {
        shards: 2,
        store_dir: Some(store_dir.clone()),
        // Small segments + a short checkpoint cadence: the reopen crosses
        // sealed segments and replays a real delta, not just a snapshot.
        segment_bytes: 16 * 1024,
        snapshot_every: 64,
        ..ServerConfig::default()
    };

    let server = spawn(config.clone(), "127.0.0.1:0").expect("bind first server");
    let addr = server.addr();
    let load = LoadgenConfig {
        users: 8,
        days: 2,
        seed: 7,
        connections: 2,
        window: 64,
        verify: true,
        ..LoadgenConfig::default()
    };
    let report = run(addr, &load).expect("replay succeeds");
    assert_eq!(report.verified, Some(true));
    shutdown_server(addr).expect("shutdown accepted");
    let first_stats = server.join().expect("first server exits cleanly");

    // Reopen on the same directory: snapshot + delta replay must restore
    // the audited state without a single event re-sent.
    let server = spawn(config, "127.0.0.1:0").expect("bind second server");
    let addr = server.addr();

    let cfg = audit_config(ds);
    let full = window_compositions(&events, &cfg, None, i64::MIN, i64::MAX);
    for want in &full {
        match control_request(addr, &Request::User { user: want.user }).expect("control request") {
            Response::Composition { composition } => {
                assert_eq!(
                    composition, *want,
                    "restored live state diverged for user {}",
                    want.user
                );
            }
            other => panic!("user {}: unexpected reply {other:?}", want.user),
        }
    }

    match control_request(addr, &Request::Stats).expect("control request") {
        Response::Stats { stats } => {
            assert_eq!(stats.gps_events, first_stats.gps_events, "restored gps count");
            assert_eq!(stats.checkin_events, first_stats.checkin_events, "restored checkin count");
            assert_eq!(stats.verdicts, first_stats.verdicts, "restored verdict count");
        }
        other => panic!("unexpected Stats reply {other:?}"),
    }

    shutdown_server(addr).expect("second shutdown accepted");
    server.join().expect("second server exits cleanly");
    let _ = std::fs::remove_dir_all(&store_dir);
}
