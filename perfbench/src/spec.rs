//! What the benchmark runs and what it reports: the five workloads and the
//! end-to-end and per-layer metric tables. `BENCHMARK.json` at the
//! repository root mirrors these tables; the smoke test checks that the two
//! agree.

use geosocial_serve::wire::WireFormat;

/// Length of the measured phase, seconds, unless `--seconds` says
/// otherwise: rounds are started while the next one is expected to end
/// within it.
pub const RUN_SECONDS: u64 = 15;
/// Shard workers behind the entry point, in every topology.
pub const SHARDS: usize = 2;
/// The one ingest connection keeps at most this many frames in flight.
pub const WINDOW: usize = 256;
/// `GpsRun` batch length on the binary wire.
pub const RUN_LEN: usize = 64;
/// Start-ups on empty stores before the rounds; with each round's own
/// start-up they give the samples `setup_s` is the median of.
pub const SETUP_STARTS: usize = 9;
/// Restarts on each round's written store; `restart_s` is their mean over
/// every round.
pub const RESTARTS_PER_ROUND: usize = 3;
/// Seeded historical reads drawn per run; a reader cycles through them.
pub const READ_DRAWS: usize = 1000;
/// How long the workloads that do not read during ingest read after each
/// round's ingest, seconds.
pub const READ_SECONDS: f64 = 0.75;
/// Reads after ingest ask for times within this many leading days of
/// history: far enough that a read walks the store and replays a user's
/// events (milliseconds of work, not just a round trip), near enough that
/// every workload gets a few hundred reads per run.
pub const READ_DAYS: i64 = 3;

/// How the processes under test are wired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One `geosocial-serve` process with [`SHARDS`] shard workers.
    Single,
    /// `geosocial-router` in front of [`SHARDS`] single-shard
    /// `geosocial-serve` processes.
    Routed,
}

impl Topology {
    /// Label used in the run envelope.
    pub fn label(self) -> &'static str {
        match self {
            Topology::Single => "1 process x 2 shards",
            Topology::Routed => "router + 2 processes x 1 shard",
        }
    }
}

/// When the historical reads run. Reads are a closed loop on their own
/// connection: each is sent when the previous one is answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reads {
    /// `AsOf` reads for [`READ_SECONDS`] once ingest is over.
    After,
    /// Reads for as long as the timed ingest lasts, nine `AsOf` to one
    /// `Window`.
    Beside,
}

/// One workload: a scenario population, a wire, a topology and a traffic
/// pattern. Every round of a run ingests the whole population into fresh
/// processes, so each round does the same work and leaves the same store
/// behind; the population is sized for a round of 2-3 s on the reference
/// host.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists (one line, also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Registered scenario family.
    pub scenario: &'static str,
    /// Cohort size.
    pub users: u32,
    /// Days of history generated per user.
    pub days: u32,
    /// Leading days loaded before the timed phase, untimed.
    pub preload_days: u32,
    /// Payload encoding of every frame.
    pub wire: WireFormat,
    /// GPS fixes batched per frame (1 = one event per frame).
    pub run_len: usize,
    /// Processes under test.
    pub topology: Topology,
    /// Offered rate of the timed ingest, events/s: each frame is due when
    /// the events before it are, at this rate (an open loop). `None`: a
    /// closed loop, each frame sent as soon as the window allows.
    pub ingest_rate: Option<f64>,
    /// When the historical reads run.
    pub reads: Reads,
}

impl Workload {
    /// The same workload with `scale` times the users and days (at least
    /// 4 users and a day, two with a preload), for quick smoke runs.
    pub fn scaled(&self, scale: f64) -> Workload {
        if scale >= 1.0 {
            return self.clone();
        }
        let min_days = if self.preload_days > 0 { 2 } else { 1 };
        let days = ((self.days as f64 * scale.sqrt()).round() as u32).max(min_days);
        let users = ((self.users as f64 * scale.sqrt()).round() as u32).max(4);
        let preload_days = if self.preload_days == 0 {
            0
        } else {
            (days * self.preload_days / self.days).clamp(1, days - 1)
        };
        Workload { users, days, preload_days, ..self.clone() }
    }
}

/// Every workload, in run order.
pub fn workloads() -> Vec<Workload> {
    let binary = |name, why, scenario, users, days| Workload {
        name,
        why,
        scenario,
        users,
        days,
        preload_days: 0,
        wire: WireFormat::Binary,
        run_len: RUN_LEN,
        topology: Topology::Single,
        ingest_rate: None,
        reads: Reads::After,
    };
    vec![
        binary(
            "ingest-deep",
            "Few users with long histories: the per-event path (decode, admit, detector, \
             store append, ack); small shard state makes each snapshot cheap.",
            "baseline",
            32,
            60,
        ),
        binary(
            "ingest-wide",
            "Many users with short histories: whole-shard snapshots every 1024 records \
             dominate, and restart reads the large state back.",
            "baseline",
            256,
            1,
        ),
        binary(
            "checkin-heavy",
            "Spoof-swarm family: dense checkins cut GPS runs, so frames per event, \
             push_checkin, the matcher and the classifier carry the load.",
            "spoof-swarm",
            64,
            18,
        ),
        Workload {
            preload_days: 7,
            ingest_rate: Some(40_000.0),
            reads: Reads::Beside,
            ..binary(
                "query-mix",
                "Back-to-back AsOf/Window reads over 7 stored days beside ingest at 40k \
                 events/s: store reads, fresh-auditor replays, Window merges, ingest lag.",
                "baseline",
                64,
                8,
            )
        },
        Workload {
            wire: WireFormat::Json,
            run_len: 1,
            topology: Topology::Routed,
            ..binary(
                "router-json",
                "One JSON event per frame through the router to two shard processes: \
                 JSON parse, router forwarding and per-frame ack over two hops.",
                "baseline",
                32,
                3,
            )
        },
    ]
}

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, sizes).
    Lower,
    /// Larger is better (rates).
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`, as in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name in the result's `metrics` object.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: 0.0 }
}

/// Metrics a user of the service sees, reported by every untraced run.
///
/// A bound must exceed the spread of ten runs of one commit (their
/// inter-quartile range over their median), or an unchanged service reads
/// as a regression. On the 2-vCPU reference host the wall-clock metrics and
/// peak memory spread by 2-22% (see `README.md`, "Noise"), so they get the
/// largest bound allowed, 25%; stored bytes per event spread by under 1%
/// and get 10%.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ingest_events_per_s", "events/s", Better::Higher, 0.25),
    e2e("query_p50_ms", "ms", Better::Lower, 0.25),
    e2e("query_p95_ms", "ms", Better::Lower, 0.25),
    e2e("restart_s", "s", Better::Lower, 0.25),
    e2e("server_rss_mb", "MiB", Better::Lower, 0.25),
    e2e("store_bytes_per_event", "B/event", Better::Lower, 0.1),
];

/// Per-layer costs, reported by every traced run.
pub const PER_LAYER: &[Metric] = &[
    layer("wire.encode_ns_per_event", "ns/event", Better::Lower),
    layer("wire.decode_ns_per_event", "ns/event", Better::Lower),
    layer("wire.ack_ns_per_frame", "ns/frame", Better::Lower),
    layer("wire.bytes_per_event", "B/event", Better::Lower),
    layer("wire.frames_per_event", "frames/event", Better::Lower),
    layer("stream.detector.ns_per_fix", "ns/fix", Better::Lower),
    layer("stream.auditor.ns_per_fix", "ns/fix", Better::Lower),
    layer("stream.auditor.ns_per_checkin", "ns/checkin", Better::Lower),
    layer("stream.auditor.export_state_us_per_user", "us/user", Better::Lower),
    layer("core.match_ns_per_checkin", "ns/checkin", Better::Lower),
    layer("core.classify_ns_per_checkin", "ns/checkin", Better::Lower),
    layer("store.append_ns_per_event", "ns/event", Better::Lower),
    layer("store.snapshot_ms", "ms", Better::Lower),
    layer("store.snapshot_bytes", "B", Better::Lower),
    layer("store.compactions_per_1k_events", "count/1k-events", Better::Lower),
    layer("store.reopen_ms", "ms", Better::Lower),
    layer("store.query_ms", "ms", Better::Lower),
    layer("serve.rtt_unloaded_us", "us", Better::Lower),
    layer("router.hop_us", "us", Better::Lower),
    layer("replay.ns_per_event", "ns/event", Better::Lower),
    layer("trace.coverage_pct", "%", Better::Higher),
];

/// The benchmark's description in the `BENCHMARK.json` schema.
pub fn description() -> serde::Value {
    use serde::Value;
    let s = |x: &str| Value::Str(x.into());
    let obj = |fields: Vec<(&str, Value)>| {
        Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    Value::Object(vec![
        ("command".into(), Value::Array(vec![s("bash"), s("perfbench/run.sh")])),
        ("paths".into(), Value::Array(vec![s("perfbench")])),
        ("run_seconds".into(), Value::UInt(RUN_SECONDS)),
        (
            "workloads".into(),
            Value::Array(
                workloads()
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.label())),
                            ("bound", Value::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
