//! End-to-end tracing tests: wire-propagated contexts must surface as
//! complete causal chains in the `Traces` query, survive a full server
//! restart via the per-shard trace stream, export as valid Chrome
//! trace-event JSON, and the `MetricsHistory` ring must report rates.
//!
//! The retried+deduplicated chain under injected faults — the headline
//! acceptance — is the last test.

use geosocial_fault::{FaultPlan, ShardKill};
use geosocial_obs::trace::{parse_trace_id, SpanRecord, FLAG_DEDUP, FLAG_RECOVERY, FLAG_RETRY};
use geosocial_serve::loadgen::{control_request, run, shutdown_server, LoadgenConfig, RetryPolicy};
use geosocial_serve::protocol::{Request, Response, TraceDump};
use geosocial_serve::server::{spawn, ServerConfig};
use geosocial_serve::wire::WireFormat;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

fn control(addr: SocketAddr, req: &Request) -> Response {
    control_request(addr, req).expect("control request")
}

fn query_traces(
    addr: SocketAddr,
    trace_id: Option<String>,
    slowest: usize,
    path: Option<&str>,
) -> Vec<TraceDump> {
    let req = Request::Traces { trace_id, slowest, path: path.map(str::to_string) };
    match control(addr, &req) {
        Response::Traces { traces } => traces,
        other => panic!("unexpected Traces reply {other:?}"),
    }
}

fn span_names(dump: &TraceDump) -> Vec<&str> {
    dump.spans.iter().map(|s| s.name.as_str()).collect()
}

fn fresh_store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("geosocial-traces-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Rehydrate wire spans for the obs-side exporters (mirrors what the
/// `geosocial-trace` bin does).
fn to_records(dumps: &[TraceDump]) -> Vec<SpanRecord> {
    dumps
        .iter()
        .flat_map(|d| d.spans.iter())
        .map(|s| SpanRecord {
            trace_id: parse_trace_id(&s.trace_id).expect("wire trace id parses"),
            span_id: s.span_id,
            parent: s.parent,
            name: s.name.clone(),
            start_us: s.start_us,
            dur_us: s.dur_us,
            flags: s.flags,
            shard: s.shard,
        })
        .collect()
}

#[test]
fn traces_survive_restart_and_export_as_chrome_json() {
    let store_dir = fresh_store_dir("restart");
    let config =
        ServerConfig { shards: 2, store_dir: Some(store_dir.clone()), ..ServerConfig::default() };

    let server = spawn(config.clone(), "127.0.0.1:0").expect("bind first server");
    let addr = server.addr();
    let load = LoadgenConfig {
        users: 8,
        days: 2,
        seed: 7,
        connections: 2,
        window: 64,
        trace_sample: 1, // record every frame: the queries below must see data
        ..LoadgenConfig::default()
    };
    let report = run(addr, &load).expect("replay succeeds");

    // Satellite cross-check: client-side root spans agree with the replay.
    assert!(report.traces_sampled > 0, "1/1 sampling must record traces");
    assert!(!report.trace_paths.is_empty(), "per-path latencies must aggregate");
    let path_total: usize = report.trace_paths.iter().map(|p| p.count).sum();
    assert!(
        path_total >= report.traces_sampled,
        "path counts ({path_total}) must cover every sampled root ({})",
        report.traces_sampled
    );
    for p in &report.trace_paths {
        assert!(p.count > 0);
        assert!(p.p50_us <= p.p95_us && p.p95_us <= p.p99_us, "percentiles out of order: {p:?}");
        assert!(p.path.starts_with("client.request."), "unexpected path label {}", p.path);
    }

    // The slowest retained traces carry the full server-side chain.
    let slowest = query_traces(addr, None, 5, None);
    assert!(!slowest.is_empty(), "server retained no traces");
    assert!(slowest.len() <= 5, "slowest cap ignored: {}", slowest.len());
    let mut prev = u64::MAX;
    for dump in &slowest {
        assert!(dump.root_dur_us <= prev, "slowest list must be sorted descending");
        prev = dump.root_dur_us;
        let names = span_names(dump);
        for required in ["client.send", "serve.apply", "serve.ack", "store.append"] {
            assert!(
                names.contains(&required),
                "trace {} lacks {required}: {names:?}",
                dump.trace_id
            );
        }
    }

    // Point query by id returns exactly that trace.
    let want_id = slowest[0].trace_id.clone();
    let by_id = query_traces(addr, Some(want_id.clone()), 0, None);
    assert_eq!(by_id.len(), 1, "trace-id query must return one trace");
    assert_eq!(by_id[0].trace_id, want_id);
    assert_eq!(by_id[0].spans.len(), slowest[0].spans.len());

    // Path filter: every returned trace contains a matching span.
    let appended = query_traces(addr, None, 0, Some("store.append"));
    assert!(!appended.is_empty());
    for dump in &appended {
        assert!(span_names(dump).iter().any(|n| n.contains("store.append")));
    }
    assert!(query_traces(addr, None, 0, Some("no.such.span")).is_empty());

    // A bogus trace id errors instead of silently matching nothing.
    let req = Request::Traces { trace_id: Some("xyzzy".into()), slowest: 0, path: None };
    assert!(
        matches!(control(addr, &req), Response::Error { .. }),
        "malformed trace id must be rejected"
    );

    // The Chrome export is valid JSON with one event per span.
    let records = to_records(&slowest);
    let chrome = geosocial_obs::trace::chrome_trace_json(&records);
    let value: serde::Value = serde_json::from_str(&chrome).expect("chrome export parses as JSON");
    let events = value
        .as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == "traceEvents"))
        .and_then(|(_, v)| v.as_array())
        .expect("export has a traceEvents array");
    assert_eq!(events.len(), records.len(), "one trace event per span");

    // The text timeline renders every trace once.
    let timeline = geosocial_obs::trace::render_timeline(&records);
    for dump in &slowest {
        assert!(timeline.contains(&dump.trace_id), "timeline lacks trace {}", dump.trace_id);
    }

    // MetricsHistory: the 1s ticker has run at least once (startup tick).
    match control(addr, &Request::MetricsHistory { last: 0 }) {
        Response::MetricsHistory { report } => {
            assert!(report.points >= 1, "history ring is empty");
            assert!(report.span_s >= 0.0);
            assert!(
                report.rates.iter().any(|r| r.name.starts_with("serve.")),
                "history rates carry no serve counters: {:?}",
                report.rates.iter().map(|r| &r.name).collect::<Vec<_>>()
            );
        }
        other => panic!("unexpected MetricsHistory reply {other:?}"),
    }

    shutdown_server(addr).expect("shutdown accepted");
    server.join().expect("first server exits cleanly");

    // Full process restart (same store dir): the trace stream replays and
    // the same trace is still queryable, chain intact.
    let server = spawn(config, "127.0.0.1:0").expect("bind second server");
    let addr = server.addr();
    let by_id = query_traces(addr, Some(want_id.clone()), 0, None);
    assert_eq!(by_id.len(), 1, "trace {want_id} lost across restart");
    let names = span_names(&by_id[0]);
    for required in ["client.send", "serve.apply", "serve.ack", "store.append"] {
        assert!(names.contains(&required), "restart dropped {required}: {names:?}");
    }
    assert!(!query_traces(addr, None, 5, None).is_empty());

    shutdown_server(addr).expect("second shutdown accepted");
    server.join().expect("second server exits cleanly");
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// Untraced clients stay untraced: with sampling disabled nothing is
/// retained server-side, and the report carries no trace aggregates.
#[test]
fn disabled_sampling_records_nothing() {
    let server = spawn(ServerConfig { shards: 2, ..ServerConfig::default() }, "127.0.0.1:0")
        .expect("bind server");
    let addr = server.addr();
    let load = LoadgenConfig {
        users: 4,
        days: 1,
        seed: 3,
        connections: 1,
        window: 32,
        trace_sample: 0,
        ..LoadgenConfig::default()
    };
    let report = run(addr, &load).expect("replay succeeds");
    assert_eq!(report.traces_sampled, 0);
    assert_eq!(report.traces_tail_promoted, 0);
    assert!(report.trace_paths.is_empty());
    assert!(query_traces(addr, None, 0, None).is_empty(), "untraced replay retained traces");
    shutdown_server(addr).expect("shutdown accepted");
    server.join().expect("server exits cleanly");
}

/// The acceptance chain: under injected faults, a retried + deduplicated
/// event's trace shows the full causal chain — client send (retry
/// flagged), the server's dedup decision, shard apply, store append, ack
/// — and the shard-kill recovery leaves a recovery span. All of it stays
/// queryable after a full server restart on the same store dir.
#[test]
fn chaos_trace_shows_retry_dedup_chain_across_restart() {
    let plan = FaultPlan::aggressive(0xC4A0_5EED, ShardKill { shard: 1, at_ingest: 150 }, 250);

    let store_dir = fresh_store_dir("chaos");
    let config = ServerConfig {
        shards: 4,
        read_timeout: Some(Duration::from_millis(100)),
        write_timeout: Some(Duration::from_secs(5)),
        snapshot_every: 64,
        segment_bytes: 16 * 1024,
        store_dir: Some(store_dir.clone()),
        fault: plan.clone(),
        ..ServerConfig::default()
    };
    let server = spawn(config, "127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.addr();

    let load = LoadgenConfig {
        users: 16,
        days: 3,
        seed: 0xBEEF,
        connections: 8,
        window: 64,
        verify: true,
        fault: plan.clone(),
        retry: RetryPolicy { max_retries: 8, base_ms: 5, max_ms: 250 },
        wire: WireFormat::Binary,
        run_len: 32,
        trace_sample: 1, // trace everything: the dedup/recovery chains must land
        scenario: "baseline".to_string(),
    };
    let report = run(addr, &load).expect("chaotic replay completes");
    assert_eq!(report.verified, Some(true), "chaos replay must still match batch");
    assert!(report.retries > 0 && report.server.duplicates > 0, "chaos never retried");
    assert!(report.traces_tail_promoted > 0, "retried deliveries must tail-promote");

    let check_chain = |addr: SocketAddr, when: &str| {
        // Every dedup-marked trace carries the full causal chain.
        let deduped = query_traces(addr, None, 0, Some("serve.dedup"));
        assert!(!deduped.is_empty(), "{when}: no dedup-marked trace retained");
        for dump in &deduped {
            let names = span_names(dump);
            for required in ["client.send", "serve.dedup", "serve.apply", "serve.ack"] {
                assert!(
                    names.contains(&required),
                    "{when}: dedup trace {} lacks {required}: {names:?}",
                    dump.trace_id
                );
            }
            let dedup = dump.spans.iter().find(|s| s.name == "serve.dedup").unwrap();
            assert_ne!(dedup.flags & FLAG_DEDUP, 0);
            // Deduplication tail-promotes the trace; the folded flags
            // must reach the root leg of the *deduplicated* delivery. A
            // lost-ack redelivery merges both attempts' spans under one
            // trace id, so the first-attempt send legitimately predates
            // the dedup — some send must carry it, not every send.
            assert!(
                dump.spans.iter().any(|s| s.name == "client.send" && s.flags & FLAG_DEDUP != 0),
                "{when}: promotion not folded into any root leg of {}",
                dump.trace_id
            );
        }
        // The headline chain: a *retried* delivery whose redundant prefix
        // the server deduplicated and whose fresh suffix it appended —
        // client send (retry), dedup decision, apply, store append, ack
        // in one trace. (Dedup without retry also happens here — a killed
        // shard re-applies a command whose prefix already persisted — so
        // this filters rather than asserting every dedup is a retry.)
        assert!(
            deduped.iter().any(|d| {
                d.spans.iter().any(|s| s.name == "client.send" && s.flags & FLAG_RETRY != 0)
                    && span_names(d).contains(&"store.append")
            }),
            "{when}: no trace shows the retried dedup + append chain"
        );
        // The one-shot shard kill recovered inside a traced command.
        let recovered = query_traces(addr, None, 0, Some("serve.recover"));
        assert!(!recovered.is_empty(), "{when}: shard recovery left no trace");
        for dump in &recovered {
            let rec = dump.spans.iter().find(|s| s.name == "serve.recover").unwrap();
            assert_ne!(rec.flags & FLAG_RECOVERY, 0);
        }
    };
    check_chain(addr, "live");

    shutdown_server(addr).expect("shutdown accepted");
    server.join().expect("server exits cleanly");

    // Full restart on the same store dir — the chains must replay from the
    // trace stream. The reopened server runs fault-free: the plan's
    // one-shot kill already fired, and re-arming it would just slow the
    // queries down.
    let server = spawn(
        ServerConfig {
            shards: 4,
            snapshot_every: 64,
            segment_bytes: 16 * 1024,
            store_dir: Some(store_dir.clone()),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind second server");
    check_chain(server.addr(), "after restart");

    shutdown_server(server.addr()).expect("second shutdown accepted");
    server.join().expect("second server exits cleanly");
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// Head-sampling determinism: the same seed yields the same sampled set,
/// so two identical replays record the same number of traces.
#[test]
fn sampling_is_deterministic_across_replays() {
    let mut counts = Vec::new();
    for _ in 0..2 {
        let server = spawn(ServerConfig { shards: 2, ..ServerConfig::default() }, "127.0.0.1:0")
            .expect("bind server");
        let addr = server.addr();
        let load = LoadgenConfig {
            users: 4,
            days: 1,
            seed: 11,
            connections: 1,
            window: 32,
            trace_sample: 4,
            ..LoadgenConfig::default()
        };
        let report = run(addr, &load).expect("replay succeeds");
        counts.push(report.traces_sampled);
        shutdown_server(addr).expect("shutdown accepted");
        server.join().expect("server exits cleanly");
    }
    assert!(counts[0] > 0, "1/4 sampling must catch something");
    assert_eq!(counts[0], counts[1], "sampling must be deterministic in the seed");
}
