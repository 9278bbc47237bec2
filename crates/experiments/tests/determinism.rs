//! Thread-count invariance of the whole pipeline (quick scale).
//!
//! The parallel execution layer promises bit-identical output for every
//! pool width: per-user RNG streams make generation order-free, matching
//! merges per-user partials in user order, and fig8 repetitions are
//! independently seeded. This test runs the pipeline and every catalogue
//! experiment end to end at 1 and 4 threads and compares everything they
//! emit.

use geosocial_experiments::catalogue::{Runner, Settings, EXPERIMENTS};
use geosocial_experiments::figures::ExperimentOutput;
use geosocial_experiments::Analysis;
use std::sync::{Mutex, MutexGuard};

/// The pool width is process-global and the harness runs tests on
/// parallel threads, so each test holds this lock while it sets a width
/// and runs under it.
static POOL_WIDTH: Mutex<()> = Mutex::new(());

fn pool_width() -> MutexGuard<'static, ()> {
    // The guarded value is `()`, so a test that panicked holding the lock
    // left nothing inconsistent behind.
    POOL_WIDTH.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Everything we capture from one full pipeline run.
#[derive(Debug, PartialEq)]
struct RunFingerprint {
    honest: usize,
    extraneous: usize,
    missing: usize,
    total_checkins: usize,
    total_visits: usize,
    compositions: String,
    outputs: Vec<ExperimentOutput>,
}

fn run_pipeline(threads: usize) -> RunFingerprint {
    geosocial_par::set_max_threads(threads);
    let config = Analysis::quick_config();
    let settings = Settings { quick: true, seed: 20130101, ..Settings::default() };
    let a = Analysis::run(&config, settings.seed);
    let mut runner = Runner::new(&a, &config, &settings);
    let outputs =
        EXPERIMENTS.iter().map(|(name, _)| runner.run(name).expect("catalogue name")).collect();
    let fp = RunFingerprint {
        honest: a.outcome.honest.len(),
        extraneous: a.outcome.extraneous.len(),
        missing: a.outcome.missing.len(),
        total_checkins: a.outcome.total_checkins,
        total_visits: a.outcome.total_visits,
        compositions: format!("{:?}", a.compositions),
        outputs,
    };
    geosocial_par::set_max_threads(0);
    fp
}

fn assert_same(a: &RunFingerprint, b: &RunFingerprint, what: &str) {
    assert_eq!(a.outputs.len(), EXPERIMENTS.len());
    for (x, y) in a.outputs.iter().zip(&b.outputs) {
        assert_eq!(x.text, y.text, "{} report differs {what}", x.id);
        assert_eq!(x.csv, y.csv, "{} CSVs differ {what}", x.id);
    }
    assert_eq!(a.compositions, b.compositions, "per-user composition vectors differ {what}");
    // Belt and braces: the whole fingerprint at once.
    assert_eq!(a, b, "{what}");
}

#[test]
fn pipeline_is_thread_count_invariant() {
    // Every run builds fresh hash maps with fresh hash keys, so the repeat
    // in the same process also catches output that follows map order.
    let _width = pool_width();
    let serial = run_pipeline(1);
    let parallel = run_pipeline(4);
    assert_same(&serial, &parallel, "between 1 and 4 threads");
    let again = run_pipeline(1);
    assert_same(&serial, &again, "between two runs in one process");
}

/// Every registered scenario family must be byte-identical at any pool
/// width — the property the loadgen `--scenario` replay (and its served
/// equivalence oracle) depends on. The adversarial families matter most
/// here: `geosim` adds a cross-user barrier (the similarity graph) and
/// `spoof-swarm` builds its checkin lists outside `simulate_checkins`,
/// both easy places to lose the per-user substream discipline.
#[test]
fn scenario_families_are_thread_count_invariant() {
    let _width = pool_width();
    let cfg = geosocial_scenario::PopulationConfig::small(10, 4);
    for family in geosocial_scenario::names() {
        geosocial_par::set_max_threads(1);
        let serial = geosocial_scenario::populate(family, &cfg, 77).expect("registered");
        geosocial_par::set_max_threads(4);
        let parallel = geosocial_scenario::populate(family, &cfg, 77).expect("registered");
        geosocial_par::set_max_threads(0);
        let a = serde_json::to_string(&serial).expect("serialize");
        let b = serde_json::to_string(&parallel).expect("serialize");
        assert_eq!(a, b, "{family}: population differs between 1 and 4 threads");
    }
}
