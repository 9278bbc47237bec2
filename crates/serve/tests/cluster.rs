//! Multi-process cluster equivalence — the router tier's headline proof.
//!
//! Real `geosocial-serve` *processes* (not in-process spawns) behind the
//! router must be indistinguishable from one batch pipeline run:
//!
//! * an 8-process cluster replay verifies byte-identical per-user
//!   compositions on both wire formats, and `AsOf` queries through the
//!   router report exactly the per-user applied counts the scenario
//!   generated (the fast-forward resume contract);
//! * a shard process handed off mid-replay — drained, its store shipped
//!   with the handoff manifest, and resumed in a fresh process on a new
//!   port — stays invisible: the router kicks the old links, buffers
//!   in-flight frames, and replays them to the replacement, and the
//!   replay still verifies clean;
//! * the same holds when the process is SIGKILLed
//!   instead of drained: `--flush-bytes 0` makes every acked event
//!   durable, store recovery scan-truncates the torn tail, and per-user
//!   sequence numbers absorb the replayed duplicates.
//!
//! Shard processes run the actual release artifact's code path: the
//! `geosocial-serve` binary with `--store-dir`, spawned via
//! `CARGO_BIN_EXE` and supervised (and reaped) by the test.

use geosocial_checkin::{Scenario, ScenarioConfig};
use geosocial_fault::FaultPlan;
use geosocial_serve::loadgen::{self, LoadgenConfig, RetryPolicy};
use geosocial_serve::protocol::{Request, Response};
use geosocial_serve::router::{self, RouterConfig};
use geosocial_serve::wire::WireFormat;
use geosocial_store::{import_handoff, EventStore, StoreOptions};
use geosocial_stream::{dataset_events, StreamEvent};
use std::collections::HashMap;
use std::fs;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Workers per shard process — small but >1 so each process exercises its
/// own internal sharding (and ships several `shard-N` store dirs).
const WORKERS_PER_PROCESS: u32 = 2;

/// Fresh scratch directory under the target-local tmp root.
fn scratch(tag: &str) -> PathBuf {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let n = NONCE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("geosocial-cluster-{}-{tag}-{n}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Reserve a port for a replacement process: bind, note, release. (The
/// tiny window before the replacement rebinds is the standard tradeoff —
/// the replacement's address must be published to the router *before*
/// the process exists, that is the point of the handoff protocol.)
fn free_port() -> u16 {
    let l = TcpListener::bind("127.0.0.1:0").expect("reserve port");
    l.local_addr().expect("local addr").port()
}

/// One supervised `geosocial-serve` child process.
struct ShardProc {
    child: Child,
    addr: SocketAddr,
    store_dir: PathBuf,
    log: PathBuf,
}

impl Drop for ShardProc {
    fn drop(&mut self) {
        // Reap on every exit path; a clean test already saw the child
        // exit, so this only fires on panic/failure.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl ShardProc {
    /// Wait (bounded) for the child to exit on its own.
    fn wait_exit(&mut self) {
        for _ in 0..100 {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        panic!(
            "shard process at {} did not exit within 10s (log: {})",
            self.addr,
            self.log.display()
        );
    }
}

/// Spawn one shard process on `bind` (use `127.0.0.1:0` for ephemeral)
/// with its own store directory, and wait for its `listening` line.
fn spawn_shard(bind: &str, store_dir: &Path, log: &Path) -> ShardProc {
    let log_file = fs::File::create(log).expect("create shard log");
    let child = Command::new(env!("CARGO_BIN_EXE_geosocial-serve"))
        .args([
            "--addr",
            bind,
            "--store-dir",
            store_dir.to_str().expect("utf-8 store dir"),
            "--shards",
            &WORKERS_PER_PROCESS.to_string(),
            // Flush every append: acked events survive SIGKILL (the bytes
            // are in the page cache), which the kill test depends on.
            "--flush-bytes",
            "0",
            // Small snapshots/segments so handoffs ship non-trivial state.
            "--snapshot-every",
            "64",
            "--segment-bytes",
            "32768",
            // Idle links park on the read loop; a timeout would tear the
            // router's connection fabric down mid-replay.
            "--read-timeout",
            "0",
        ])
        .stdout(Stdio::null())
        .stderr(log_file)
        .spawn()
        .expect("spawn geosocial-serve");
    let mut proc = ShardProc {
        child,
        addr: "0.0.0.0:0".parse().unwrap(),
        store_dir: store_dir.to_path_buf(),
        log: log.to_path_buf(),
    };
    proc.addr = await_listening(&mut proc);
    proc
}

/// Poll the child's stderr log for the `listening` line and parse the
/// bound address out of it — the same discovery scheme `scripts/check.sh`
/// uses for its serve smoke, with the same liveness check.
fn await_listening(proc: &mut ShardProc) -> SocketAddr {
    for _ in 0..100 {
        if let Ok(Some(status)) = proc.child.try_wait() {
            let log = fs::read_to_string(&proc.log).unwrap_or_default();
            panic!("shard process exited at startup ({status}); log:\n{log}");
        }
        let text = fs::read_to_string(&proc.log).unwrap_or_default();
        if let Some(at) = text.find("addr=") {
            let rest = &text[at + "addr=".len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit() && c != '.' && c != ':')
                .unwrap_or(rest.len());
            if let Ok(addr) = rest[..end].parse::<SocketAddr>() {
                if addr.port() != 0 {
                    return addr;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    panic!("shard process never logged its address (log: {})", proc.log.display());
}

/// Spawn `n` shard processes on ephemeral ports under `root`.
fn spawn_cluster(root: &Path, n: usize) -> Vec<ShardProc> {
    (0..n)
        .map(|i| {
            let dir = root.join(format!("proc-{i}"));
            fs::create_dir_all(&dir).expect("create store dir");
            spawn_shard("127.0.0.1:0", &dir, &root.join(format!("proc-{i}.log")))
        })
        .collect()
}

/// Per-user event counts of the primary cohort — the oracle for `AsOf`
/// `applied` counts after a full replay.
fn expected_applied(users: u32, days: u32, seed: u64) -> HashMap<u32, u64> {
    let scenario = Scenario::generate(&ScenarioConfig::small(users, days), seed);
    let mut counts: HashMap<u32, u64> = HashMap::new();
    for ev in dataset_events(&scenario.primary) {
        let user = match ev {
            StreamEvent::Gps { user, .. } => user,
            StreamEvent::Checkin { user, .. } => user,
        };
        *counts.entry(user).or_default() += 1;
    }
    counts
}

/// Full-cluster replay on one wire: 8 shard processes, byte-equality vs
/// the batch pipeline, then the `AsOf`-through-router resume oracle.
fn eight_process_replay(wire: WireFormat, run_len: usize, tag: &str) {
    let root = scratch(tag);
    let shards = spawn_cluster(&root, 8);
    let router = router::spawn(
        RouterConfig { shards: shards.iter().map(|s| s.addr).collect(), ..RouterConfig::default() },
        "127.0.0.1:0",
    )
    .expect("bind router");
    let addr = router.addr();

    let cfg = LoadgenConfig {
        users: 16,
        days: 2,
        seed: 0xC1A5,
        connections: 4,
        window: 64,
        verify: true,
        wire,
        run_len,
        trace_sample: 0,
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(addr, &cfg).expect("cluster replay");
    assert_eq!(
        report.verified,
        Some(true),
        "cluster replay diverged from batch: {:?}",
        report.mismatches
    );
    assert_eq!(report.total_events, report.gps_events + report.checkin_events);

    // The peer is a router: it publishes the live map.
    let map = loadgen::cluster_info(addr).expect("shard map").expect("peer is a router");
    assert_eq!(map.entries.len(), 8);
    assert!(map.entries.iter().all(|e| e.epoch == 0));

    // AsOf through the router answers from the owner shard: `applied`
    // must equal the scenario's per-user event count — the exact value
    // a reconnecting lane fast-forwards with.
    let oracle = expected_applied(cfg.users, cfg.days, cfg.seed);
    assert!(!oracle.is_empty());
    for (&user, &expect) in &oracle {
        match loadgen::control_request(addr, &Request::AsOf { user, t: i64::MAX }) {
            Ok(Response::AsOf { applied, .. }) => assert_eq!(
                applied, expect,
                "user {user}: router-AsOf applied {applied}, scenario generated {expect}"
            ),
            other => panic!("AsOf through router: {other:?}"),
        }
    }

    // Router shutdown stops every shard process too.
    loadgen::shutdown_server(addr).expect("cluster shutdown");
    router.join().expect("router exits clean");
    for mut shard in shards {
        shard.wait_exit();
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn cluster_eight_processes_json() {
    eight_process_replay(WireFormat::Json, 1, "json");
}

#[test]
fn cluster_eight_processes_binary() {
    eight_process_replay(WireFormat::Binary, 16, "binary");
}

/// Ship one exited (or killed) process's store directories to `dest`
/// through the handoff manifest, verifying every file's length and crc
/// on the receiving side — the state-transfer leg of a handoff.
fn ship_store(store_dir: &Path, dest: &Path) {
    let mut shipped = 0;
    for entry in fs::read_dir(store_dir).expect("read store dir") {
        let entry = entry.expect("dir entry");
        if !entry.path().is_dir() {
            continue;
        }
        let name = entry.file_name();
        let mut store = EventStore::open(entry.path(), StoreOptions::default())
            .expect("open shipped-from store");
        let manifest = store.export_handoff(dest.join(&name)).expect("export handoff");
        let verified = import_handoff(dest.join(&name)).expect("handoff import validates");
        assert_eq!(verified.next_lsn, manifest.next_lsn);
        assert_eq!(verified.files.len(), manifest.files.len());
        shipped += 1;
    }
    assert_eq!(shipped as u32, WORKERS_PER_PROCESS, "one export per worker store");
}

/// Clean handoff mid-replay: swap the map entry (the router kicks the
/// victim's links and buffers in-flight frames), drain and stop the old
/// process, ship its store, resume it in a fresh process on the
/// pre-published port — and the replay must still verify byte-identical.
#[test]
fn clean_handoff_mid_replay_preserves_equivalence() {
    let root = scratch("handoff");
    let mut shards = spawn_cluster(&root, 3);
    let router = router::spawn(
        RouterConfig {
            shards: shards.iter().map(|s| s.addr).collect(),
            // Generous reconnect budget: it must cover drain + ship +
            // replacement startup while kicked frames wait in inboxes.
            connect_attempts: 300,
            connect_backoff: Duration::from_millis(100),
            ..RouterConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind router");
    let addr = router.addr();

    let cfg = LoadgenConfig {
        users: 24,
        days: 2,
        seed: 0x40FF,
        connections: 4,
        window: 32,
        verify: true,
        wire: WireFormat::Json,
        run_len: 1,
        trace_sample: 0,
        retry: RetryPolicy { max_retries: 10, base_ms: 50, max_ms: 1_000 },
        ..LoadgenConfig::default()
    };
    let replay = std::thread::spawn(move || loadgen::run(addr, &cfg));

    // Let the replay get going, then hand off while frames are in flight.
    std::thread::sleep(Duration::from_millis(300));
    assert!(!replay.is_finished(), "replay finished before the handoff could land mid-stream");

    let victim = 1usize;
    let old_addr = shards[victim].addr;
    let new_addr: SocketAddr = format!("127.0.0.1:{}", free_port()).parse().unwrap();

    // (1) Publish the replacement address. From here the router buffers
    // the victim's traffic and retries the new address.
    match loadgen::control_request(
        addr,
        &Request::Handoff { shard: victim as u64, addr: new_addr.to_string() },
    )
    .expect("handoff control request")
    {
        Response::ShardMap { map } => {
            assert_eq!(map.entries[victim].addr, new_addr.to_string());
            assert_eq!(map.entries[victim].epoch, 1);
            assert!(map.version >= 1);
        }
        other => panic!("handoff answered {other:?}"),
    }

    // (2) Quiesce the old process — its links were just kicked, so the
    // shutdown's idle-wait completes and the store is durably flushed.
    loadgen::shutdown_server(old_addr).expect("old shard shutdown");
    shards[victim].wait_exit();

    // (3) Ship the state through the handoff manifest.
    let shipped = root.join("shipped");
    fs::create_dir_all(&shipped).expect("create shipped dir");
    ship_store(&shards[victim].store_dir, &shipped);

    // (4) Resume on the pre-published port; recovery rebuilds the shard
    // from the shipped snapshot + log, then kicked frames replay into it.
    let replacement = spawn_shard(&new_addr.to_string(), &shipped, &root.join("replacement.log"));
    assert_eq!(replacement.addr, new_addr);

    let report = replay.join().expect("replay thread").expect("replay through handoff");
    assert_eq!(
        report.verified,
        Some(true),
        "handed-off replay diverged from batch: {:?}",
        report.mismatches
    );

    let map = loadgen::cluster_info(addr).expect("shard map").expect("router");
    assert_eq!(map.entries[victim].addr, new_addr.to_string());
    assert_eq!(map.entries[victim].epoch, 1);

    loadgen::shutdown_server(addr).expect("cluster shutdown");
    router.join().expect("router exits clean");
    for (i, shard) in shards.iter_mut().enumerate() {
        if i != victim {
            shard.wait_exit();
        }
    }
    drop(replacement); // reaped by Drop after the router stopped it
    let _ = fs::remove_dir_all(&root);
}

/// Crash handoff mid-replay, under client-side chaos: SIGKILL a whole
/// shard process on the fault plan's `prockill` schedule (the harness
/// delivers the signal — a process cannot kill itself at a wall-clock
/// point), recover its store from disk (scan-truncating the torn tail),
/// ship it, resume it, and swap the map. Acked events survived because
/// the processes run `--flush-bytes 0`; everything unacked replays from
/// the router's inboxes and the per-user sequence numbers deduplicate.
#[test]
fn process_kill_and_handoff_mid_replay() {
    let plan =
        FaultPlan::parse("seed=3549,truncate=8,abort=5,prockill=1@400").expect("parse chaos plan");
    let kill = plan.prockill.expect("plan schedules a process kill");

    let root = scratch("prockill");
    let mut shards = spawn_cluster(&root, 4);
    let router = router::spawn(
        RouterConfig {
            shards: shards.iter().map(|s| s.addr).collect(),
            connect_attempts: 300,
            connect_backoff: Duration::from_millis(100),
            ..RouterConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind router");
    let addr = router.addr();

    let cfg = LoadgenConfig {
        users: 24,
        days: 2,
        seed: 0xD00D,
        connections: 4,
        window: 32,
        verify: true,
        wire: WireFormat::Binary,
        run_len: 8,
        trace_sample: 0,
        retry: RetryPolicy { max_retries: 12, base_ms: 50, max_ms: 1_000 },
        fault: plan.clone(),
        scenario: "baseline".to_string(),
    };
    let replay = std::thread::spawn(move || loadgen::run(addr, &cfg));

    // The harness is the fault plan's executor for process kills.
    std::thread::sleep(Duration::from_millis(kill.after_ms));
    assert!(!replay.is_finished(), "replay finished before the kill could land mid-stream");
    let victim = kill.shard as usize;
    shards[victim].child.kill().expect("SIGKILL shard process");
    shards[victim].wait_exit();

    // Recover the dead process's stores straight from disk — open()
    // scan-truncates whatever flush the kill tore — and ship them.
    let shipped = root.join("shipped");
    fs::create_dir_all(&shipped).expect("create shipped dir");
    ship_store(&shards[victim].store_dir, &shipped);

    // Resume, then publish: the router's links were already failing
    // against the dead address and re-resolve on every attempt.
    let new_addr: SocketAddr = format!("127.0.0.1:{}", free_port()).parse().unwrap();
    let replacement = spawn_shard(&new_addr.to_string(), &shipped, &root.join("replacement.log"));
    match loadgen::control_request(
        addr,
        &Request::Handoff { shard: kill.shard, addr: new_addr.to_string() },
    )
    .expect("handoff control request")
    {
        Response::ShardMap { map } => assert_eq!(map.entries[victim].epoch, 1),
        other => panic!("handoff answered {other:?}"),
    }

    let report = replay.join().expect("replay thread").expect("replay through the kill");
    assert_eq!(
        report.verified,
        Some(true),
        "killed-shard replay diverged from batch: {:?}",
        report.mismatches
    );
    // The client plan really fired (the process kill is harness-side).
    assert!(report.fault_truncated + report.fault_aborted > 0, "chaos plan never fired");

    loadgen::shutdown_server(addr).expect("cluster shutdown");
    router.join().expect("router exits clean");
    for (i, shard) in shards.iter_mut().enumerate() {
        if i != victim {
            shard.wait_exit();
        }
    }
    drop(replacement);
    let _ = fs::remove_dir_all(&root);
}
