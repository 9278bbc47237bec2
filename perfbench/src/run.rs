//! One run of one workload: rounds of start, load, check, read and restart
//! until the measured phase is over or, traced, one round and then replays
//! of the same frames layer by layer until it is.
//!
//! Every round starts fresh processes on empty stores and ingests the
//! whole input, so every round does the same work and leaves the same
//! store behind, whatever the speed of the service: a faster service fits
//! more rounds into the phase, not more events into the store its restart
//! and memory are measured on. The run reports medians over its rounds,
//! which also spreads each metric's samples over the whole phase instead
//! of one burst of it.

use std::fs;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use geosocial_serve::loadgen::control_request;
use geosocial_serve::protocol::{Request, Response};
use geosocial_store::{EventStore, StoreOptions};
use serde::Value;

use crate::client::{self, IngestStats, QueryStats};
use crate::inputs::Inputs;
use crate::layers;
use crate::procs::{dir_bytes, Cluster};
use crate::spec::{
    Reads, Workload, READ_DRAWS, READ_SECONDS, RESTARTS_PER_ROUND, SETUP_STARTS, SHARDS, WINDOW,
};
use crate::stats::{median, percentile};
use crate::verify::Oracle;

/// Sequential reads behind each unloaded round-trip figure.
const RTT_SAMPLES: usize = 400;
/// Bytes a snapshot file adds around its state: magic, version, LSN,
/// length and CRC.
const SNAPSHOT_HEADER: usize = 24;

/// Settings shared by every run of one invocation.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Length of the measured phase.
    pub seconds: f64,
    /// Replay layer by layer and report per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Workload size multiplier (1 = as specified).
    pub scale: f64,
    /// Directory holding the `geosocial-serve` and `geosocial-router`
    /// binaries under test.
    pub bins: PathBuf,
    /// Where Chrome traces go.
    pub out_dir: PathBuf,
    /// Scratch space for stores; removed after each run.
    pub work_dir: PathBuf,
}

/// The outcome of one run.
pub struct RunResult {
    /// Every check passed.
    pub correct: bool,
    /// Operations sent: ingest frames and historical reads.
    pub attempted: u64,
    /// Operations answered with an error.
    pub failed: u64,
    /// `(name, value)` of every reported metric, with units from the spec.
    pub metrics: Vec<(&'static str, f64)>,
    /// Why the run is not correct (empty when it is).
    pub problems: Vec<String>,
    /// Description of what ran, for result files.
    pub envelope: Vec<(String, Value)>,
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Every sample the rounds of a run took, and what went wrong.
#[derive(Default)]
struct Samples {
    rounds: usize,
    setup_s: Vec<f64>,
    events_per_s: Vec<f64>,
    ingest_s: f64,
    late_s: f64,
    reads_ms: Vec<f64>,
    restart_s: Vec<f64>,
    rss_mib: Vec<f64>,
    store_bytes_per_event: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Samples {
    fn ingested(&mut self, what: &str, s: &IngestStats) {
        self.attempted += s.frames as u64;
        self.failed += s.errors.len() as u64;
        self.problems.extend(s.errors.iter().take(3).map(|e| format!("{what}: {e}")));
    }

    fn read(&mut self, q: &QueryStats) {
        self.attempted += q.lat_us.len() as u64;
        self.failed += q.errors.len() as u64;
        self.problems.extend(q.errors.iter().take(3).cloned());
        self.reads_ms.extend(q.lat_us.iter().map(|&us| us as f64 / 1e3));
    }
}

/// What a round leaves for the traced run's layer measurements.
struct Round {
    ingest: IngestStats,
    reads: usize,
    store_dirs: Vec<PathBuf>,
    layers: Vec<(&'static str, f64)>,
}

/// Run `workload` with inputs from `seed`.
pub fn run(workload: &Workload, seed: u64, s: &Settings) -> io::Result<RunResult> {
    let w = workload.scaled(s.scale);
    let scratch = Scratch(s.work_dir.join(format!("{}-{seed}-{}", w.name, std::process::id())));
    let _ = fs::remove_dir_all(&scratch.0);
    fs::create_dir_all(&scratch.0)?;
    let work = scratch.0.as_path();
    let mut stages = Stages::new(w.name);
    let inputs = Inputs::build(&w, seed)?;
    let events = inputs.events_in(0..inputs.frames.len());
    let oracle = Oracle::new(&inputs);
    let draws = inputs.query_draws(READ_DRAWS);
    stages.done(&format!(
        "generated {} users x {} days: {} frames, {events} events; batch pipeline run",
        w.users,
        w.days,
        inputs.frames.len()
    ));

    let mut samples = Samples::default();
    for i in 0..SETUP_STARTS {
        let dir = work.join(format!("setup-{i}"));
        let (cluster, took) = Cluster::start(&s.bins, w.topology, &dir)?;
        samples.setup_s.push(took.as_secs_f64());
        cluster.stop()?;
        fs::remove_dir_all(&dir)?;
    }
    stages.done("set up");

    // The measured phase: rounds while the next is expected to end in time
    // (at least one). A traced run serves one round and spends the rest of
    // the phase replaying its frames in process.
    let phase = Instant::now();
    let ends_in_time = |started: Instant| {
        phase.elapsed() + started.elapsed() <= Duration::from_secs_f64(s.seconds)
    };
    let last = loop {
        let started = Instant::now();
        let dir = work.join(format!("round-{}", samples.rounds));
        let round = round(&w, &inputs, &oracle, &draws, s, &dir, &mut samples)?;
        let restarts = &samples.restart_s[samples.restart_s.len() - RESTARTS_PER_ROUND..];
        stages.done(&format!(
            "round {}: {:.0} events/s, peak {:.1} MiB, {} reads, restarts {:.4?} s",
            samples.rounds,
            round.ingest.events_per_s(),
            samples.rss_mib.last().copied().unwrap_or_default(),
            round.reads,
            restarts
        ));
        if s.trace || !ends_in_time(started) {
            break (round, dir);
        }
        fs::remove_dir_all(&dir)?;
    };

    let metrics = if s.trace {
        let (round, dir) = last;
        let mut metrics = round.layers;
        metrics.extend(store_layers(&round.store_dirs, &draws)?);
        let snapshot_bytes = snapshot_bytes(&round.store_dirs)?;
        metrics.push(("store.snapshot_bytes", snapshot_bytes as f64));
        fs::remove_dir_all(&dir)?;
        let checkins = oracle.checkins().max(1) as f64;
        metrics.push(("core.match_ns_per_checkin", oracle.matching.as_nanos() as f64 / checkins));
        metrics
            .push(("core.classify_ns_per_checkin", oracle.classify.as_nanos() as f64 / checkins));

        // Replays while the next is expected to end in time (at least one);
        // each replay's metrics are the median over the replays.
        let per_shard_state = (snapshot_bytes as usize / SHARDS).saturating_sub(SNAPSHOT_HEADER);
        let chrome = s.out_dir.join(format!("{}.trace.json", w.name));
        let mut replays = Vec::new();
        loop {
            let started = Instant::now();
            let dir = work.join(format!("replay-{}", replays.len()));
            replays.push(layers::replay(&inputs, per_shard_state, &dir, &chrome)?);
            fs::remove_dir_all(&dir)?;
            if !ends_in_time(started) {
                break;
            }
        }
        replays.sort_by_key(|r| r.wall);
        let per_replay: Vec<_> = replays.iter().map(layers::LayerReport::metrics).collect();
        for (i, &(name, _)) in per_replay[0].iter().enumerate() {
            let mut values: Vec<f64> = per_replay.iter().map(|m| m[i].1).collect();
            metrics.push((name, median(&mut values)));
        }

        let report = &replays[replays.len() / 2];
        let served_ns = 1e9 / round.ingest.events_per_s();
        let replay_ns = report.wall.as_nanos() as f64 / report.events.max(1) as f64;
        eprintln!(
            "[{}] per-layer self time of the median of {} in-process replays ({} events):",
            w.name,
            replays.len(),
            report.events
        );
        eprint!("{}", report.table());
        eprintln!(
            "  served {served_ns:.1} ns/event vs in-process {replay_ns:.1} ns/event: \
             network + scheduling {:+.1} ns/event; Chrome trace: {}",
            served_ns - replay_ns,
            chrome.display()
        );
        let coverage = replays.iter().map(|r| r.coverage_pct()).fold(f64::INFINITY, f64::min);
        if coverage < 90.0 {
            samples.problems.push(format!("trace coverage {coverage:.1}% < 90%"));
        }
        stages.done("replayed");
        metrics
    } else {
        vec![
            ("setup_s", median(&mut samples.setup_s)),
            ("ingest_events_per_s", median(&mut samples.events_per_s)),
            ("query_p50_ms", percentile(&mut samples.reads_ms, 0.50)),
            ("query_p95_ms", percentile(&mut samples.reads_ms, 0.95)),
            ("restart_s", samples.restart_s.iter().sum::<f64>() / samples.restart_s.len() as f64),
            ("server_rss_mb", median(&mut samples.rss_mib)),
            ("store_bytes_per_event", median(&mut samples.store_bytes_per_event)),
        ]
    };
    let measured_s = phase.elapsed().as_secs_f64();

    let load = match w.ingest_rate {
        Some(rate) => format!("open loop at {rate} events/s, at most {WINDOW} frames in flight"),
        None => format!("closed loop, {WINDOW} frames in flight"),
    };
    let reads_label = match w.reads {
        Reads::Beside => "beside ingest, closed loop, 9 AsOf : 1 Window".to_string(),
        Reads::After => format!("after ingest, closed loop, AsOf for {READ_SECONDS} s/round"),
    };
    let mut envelope = vec![
        ("workload".to_string(), Value::Str(w.name.into())),
        ("seed".to_string(), Value::UInt(seed)),
        ("scenario".to_string(), Value::Str(w.scenario.into())),
        ("users".to_string(), Value::UInt(w.users as u64)),
        ("days".to_string(), Value::UInt(w.days as u64)),
        ("preload_days".to_string(), Value::UInt(w.preload_days as u64)),
        ("scale".to_string(), Value::Float(s.scale)),
        ("wire".to_string(), Value::Str(w.wire.label().into())),
        ("run_len".to_string(), Value::UInt(w.run_len as u64)),
        ("topology".to_string(), Value::Str(w.topology.label().into())),
        ("load".to_string(), Value::Str(load)),
        ("reads".to_string(), Value::Str(reads_label)),
        ("run_seconds".to_string(), Value::Float(s.seconds)),
        ("measured_s".to_string(), Value::Float(measured_s)),
        ("rounds".to_string(), Value::UInt(samples.rounds as u64)),
        ("ingest_s".to_string(), Value::Float(samples.ingest_s)),
        ("events_per_round".to_string(), Value::UInt(events)),
        ("reads_timed".to_string(), Value::UInt(samples.reads_ms.len() as u64)),
    ];
    if w.ingest_rate.is_some() {
        // How far the open loop fell behind its schedule, worst round.
        envelope.push(("generator_late_s".to_string(), Value::Float(samples.late_s)));
    }
    Ok(RunResult {
        correct: samples.problems.is_empty(),
        attempted: samples.attempted,
        failed: samples.failed,
        metrics,
        problems: samples.problems,
        envelope,
    })
}

/// One round in `dir`: start the topology on empty stores, ingest the whole
/// input (with `query-mix`'s reads beside it), check the served answers
/// against the batch pipeline, read, stop, and restart on the written store.
fn round(
    w: &Workload,
    inputs: &Inputs,
    oracle: &Oracle,
    draws: &[Request],
    s: &Settings,
    dir: &Path,
    samples: &mut Samples,
) -> io::Result<Round> {
    let (mut cluster, took) = Cluster::start(&s.bins, w.topology, dir)?;
    samples.setup_s.push(took.as_secs_f64());
    let entry = cluster.entry();
    if inputs.preload > 0 {
        let pre = client::ingest(entry, inputs, 0..inputs.preload, None)?;
        samples.ingested("preload", &pre);
    }

    let timed = inputs.preload..inputs.frames.len();
    let (ingest, beside) = match w.reads {
        Reads::Beside => {
            let done = AtomicBool::new(false);
            std::thread::scope(|scope| -> io::Result<_> {
                let reader =
                    scope.spawn(|| client::queries(entry, draws, |_| done.load(Ordering::SeqCst)));
                let ingest = client::ingest(entry, inputs, timed, w.ingest_rate);
                done.store(true, Ordering::SeqCst);
                let reads = reader.join().map_err(|_| io::Error::other("query thread panicked"))?;
                Ok((ingest?, Some(reads?)))
            })?
        }
        Reads::After => (client::ingest(entry, inputs, timed, w.ingest_rate)?, None),
    };
    samples.rounds += 1;
    samples.events_per_s.push(ingest.events_per_s());
    samples.ingest_s += ingest.elapsed.as_secs_f64();
    samples.late_s = samples.late_s.max(ingest.late.as_secs_f64());
    samples.ingested("ingest", &ingest);

    // Outside the timed ingest: finalize and check every answer.
    client::finish(entry)?;
    let served = client::stats(entry)?;
    let mismatches = oracle.check(entry, &served)?;
    if !mismatches.is_empty() {
        samples.problems.extend(mismatches.iter().take(10).cloned());
        samples.problems.push(format!("{} served/batch mismatches", mismatches.len()));
    }
    let reads = match beside {
        Some(r) => r,
        None => {
            let until = Instant::now() + Duration::from_secs_f64(READ_SECONDS);
            let r = client::queries(entry, draws, |_| Instant::now() >= until)?;
            // Every event is applied by now: AsOf must report the user's
            // full event count.
            let counts = inputs.user_events();
            for &(user, applied) in &r.applied {
                let want = counts.get(&user).copied().unwrap_or(0);
                if applied != want {
                    samples.problems.push(format!(
                        "AsOf user {user}: store holds {applied} events, sent {want}"
                    ));
                }
            }
            r
        }
    };
    samples.read(&reads);
    let reads = reads.lat_us.len();
    samples.rss_mib.push(cluster.peak_rss_mib()?);

    let layers = if s.trace { served_layers(&mut cluster, &s.bins, dir, inputs)? } else { vec![] };
    let store_dirs = cluster.store_dirs.clone();
    cluster.stop()?;
    let mut store_bytes = 0;
    for d in &store_dirs {
        store_bytes += dir_bytes(d)?;
    }
    let stored = inputs.events_in(0..inputs.frames.len());
    samples.store_bytes_per_event.push(store_bytes as f64 / stored.max(1) as f64);

    // Restart on the written store: the state must come back unchanged.
    for _ in 0..RESTARTS_PER_ROUND {
        let (c, took) = Cluster::start(&s.bins, w.topology, dir)?;
        samples.restart_s.push(took.as_secs_f64());
        if client::stats(c.entry())?.composition != served.composition {
            samples.problems.push("restart: composition differs from before shutdown".into());
        }
        c.stop()?;
    }
    Ok(Round { ingest, reads, store_dirs, layers })
}

/// Wall time of each stage of a run, printed as it completes.
struct Stages {
    name: &'static str,
    last: Instant,
}

impl Stages {
    fn new(name: &'static str) -> Self {
        Stages { name, last: Instant::now() }
    }

    fn done(&mut self, what: &str) {
        eprintln!("[{}] {what} ({:.2} s)", self.name, self.last.elapsed().as_secs_f64());
        self.last = Instant::now();
    }
}

/// Per-layer figures read from the live processes before shutdown:
/// compactions from each server's `Metrics` exposition, the unloaded round
/// trip straight to a shard, and the extra round trip through a router
/// (a router is started in front of a lone server for this).
fn served_layers(
    cluster: &mut Cluster,
    bins: &Path,
    dir: &Path,
    inputs: &Inputs,
) -> io::Result<Vec<(&'static str, f64)>> {
    let mut compactions = 0u64;
    for addr in cluster.servers() {
        match control_request(addr, &Request::Metrics)? {
            Response::Metrics { text } => {
                compactions += text
                    .lines()
                    .find_map(|l| l.strip_prefix("counter store.compactions "))
                    .and_then(|v| v.trim().parse::<u64>().ok())
                    .unwrap_or(0);
            }
            other => return Err(io::Error::other(format!("metrics: unexpected reply {other:?}"))),
        }
    }
    let events = inputs.events_in(0..inputs.frames.len()).max(1) as f64;
    let user = inputs.frames[0].user;
    let owner = cluster
        .servers()
        .into_iter()
        .find(|&a| {
            matches!(control_request(a, &Request::User { user }), Ok(Response::Composition { .. }))
        })
        .ok_or_else(|| io::Error::other(format!("no server owns user {user}")))?;
    let direct = client::unloaded_rtt_us(owner, user, RTT_SAMPLES)?;
    let routed: SocketAddr = if cluster.servers().contains(&cluster.entry()) {
        cluster.add_router(bins, dir)?
    } else {
        cluster.entry()
    };
    let via_router = client::unloaded_rtt_us(routed, user, RTT_SAMPLES)?;
    Ok(vec![
        ("store.compactions_per_1k_events", 1e3 * compactions as f64 / events),
        ("serve.rtt_unloaded_us", direct),
        ("router.hop_us", via_router - direct),
    ])
}

/// Reopen every written shard store in process (`EventStore::open`), then
/// time `EventStore::query` for the run's read draws on them.
fn store_layers(store_dirs: &[PathBuf], draws: &[Request]) -> io::Result<Vec<(&'static str, f64)>> {
    let t = Instant::now();
    let mut stores = Vec::new();
    for d in store_dirs {
        for entry in fs::read_dir(d)? {
            let path = entry?.path();
            let Some(shard) = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_prefix("shard-"))
                .and_then(|n| n.parse::<u64>().ok())
            else {
                continue;
            };
            stores
                .push(EventStore::open(&path, StoreOptions { shard, ..StoreOptions::default() })?);
        }
    }
    let reopen_ms = t.elapsed().as_secs_f64() * 1e3;
    // A user's records live in one store; the others answer from their
    // index without reading, so asking every store is the same work.
    let mut lat = Vec::with_capacity(draws.len());
    for req in draws {
        let t = Instant::now();
        let reads: Vec<(u32, i64, i64)> = match req {
            Request::AsOf { user, t } => vec![(*user, i64::MIN, *t)],
            Request::Window { cohort, t0, t1 } => cohort.iter().map(|&u| (u, *t0, *t1)).collect(),
            _ => Vec::new(),
        };
        for (user, t0, t1) in reads {
            for st in &stores {
                std::hint::black_box(st.query(user, t0, t1)?);
            }
        }
        lat.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(vec![("store.reopen_ms", reopen_ms), ("store.query_ms", median(&mut lat))])
}

/// Bytes of the newest snapshot file of every shard store.
fn snapshot_bytes(store_dirs: &[PathBuf]) -> io::Result<u64> {
    let mut total = 0;
    for d in store_dirs {
        for shard in fs::read_dir(d)? {
            let shard = shard?.path();
            if !shard.is_dir() {
                continue;
            }
            for f in fs::read_dir(&shard)? {
                let f = f?;
                let name = f.file_name();
                if name.to_str().is_some_and(|n| n.starts_with("snap-") && n.ends_with(".snap")) {
                    total += f.metadata()?.len();
                }
            }
        }
    }
    Ok(total)
}
