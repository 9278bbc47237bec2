//! Experiments F7 and F8: mobility-model training and the MANET simulation.

use crate::analysis::Analysis;
use crate::figures::ExperimentOutput;
use crate::output::{series_csv, Series};
use geosocial_core::matching::MatchOutcome;
use geosocial_manet::{DsdvConfig, DsdvSimulator, MetricsReport, SimConfig, Simulator};
use geosocial_mobility::levy::{fit_levy, LevyFitConfig};
use geosocial_mobility::{LevyWalkModel, MovementTrace, TrainingSample};
use geosocial_stats::LogHistogram;
use geosocial_trace::{Checkin, Dataset};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// The three training traces of §6.1, extracted from one analysis.
pub struct TrainingTraces {
    /// Flights/pauses from GPS visits — the ground truth.
    pub gps: TrainingSample,
    /// Flights from honest checkins only.
    pub honest: TrainingSample,
    /// Flights from the full checkin stream.
    pub all: TrainingSample,
}

/// Extract the three §6.1 training samples from a matched cohort.
///
/// Per-user extraction fans out over the `geosocial-par` pool; partials
/// merge in user order, so the pooled samples are concatenated exactly as
/// the serial loop would.
pub fn training_traces(dataset: &Dataset, outcome: &MatchOutcome) -> TrainingTraces {
    let proj = dataset.pois.projection();
    let mut honest_idx: HashSet<(u32, usize)> = HashSet::new();
    for p in &outcome.honest {
        honest_idx.insert((p.checkin.user, p.checkin.index));
    }
    let (gps, honest, all) = geosocial_par::par_reduce(
        &dataset.users,
        || (TrainingSample::default(), TrainingSample::default(), TrainingSample::default()),
        |(mut gps, mut honest, mut all), _, user| {
            gps.merge(&TrainingSample::from_visits(&user.visits, proj));
            all.merge(&TrainingSample::from_checkins(&user.checkins, proj));
            let honest_checkins: Vec<Checkin> = user
                .checkins
                .iter()
                .enumerate()
                .filter(|(i, _)| honest_idx.contains(&(user.id, *i)))
                .map(|(_, c)| *c)
                .collect();
            honest.merge(&TrainingSample::from_checkins(&honest_checkins, proj));
            (gps, honest, all)
        },
        |(mut g1, mut h1, mut a1), (g2, h2, a2)| {
            g1.merge(&g2);
            h1.merge(&h2);
            a1.merge(&a2);
            (g1, h1, a1)
        },
    );
    TrainingTraces { gps, honest, all }
}

/// The three fitted Levy Walk models (GPS, honest-checkin, all-checkin),
/// with the GPS pause distribution shared by the checkin models — the
/// paper's "conservative approach" for traces with no pause information.
pub struct FittedModels {
    /// Trained on GPS visits.
    pub gps: LevyWalkModel,
    /// Trained on honest checkins.
    pub honest: LevyWalkModel,
    /// Trained on the full checkin stream.
    pub all: LevyWalkModel,
}

/// Fit all three models. Returns `None` if any trace is too thin to fit.
pub fn fit_models(traces: &TrainingTraces) -> Option<FittedModels> {
    let cfg = LevyFitConfig::default();
    let gps = fit_levy(&traces.gps, &cfg, None)?;
    let honest = fit_levy(&traces.honest, &cfg, Some(&gps.pause))?;
    let all = fit_levy(&traces.all, &cfg, Some(&gps.pause))?;
    Some(FittedModels { gps, honest, all })
}

/// Figure 7: the empirical distributions and Pareto/power-law fits for the
/// three training traces.
pub fn fig7(a: &Analysis) -> ExperimentOutput {
    let traces = training_traces(&a.scenario.primary, &a.outcome);
    let models = fit_models(&traces);

    let mut text = String::from(
        "Figure 7 — Levy Walk fitting on three traces (paper: honest-checkin shows longer flights than GPS; all-checkin shows shorter flights + fast segments).\n",
    );
    let mut csv_flight = Vec::new();
    let mut csv_pause = Vec::new();
    for (label, sample) in
        [("GPS", &traces.gps), ("Honest-Ckin", &traces.honest), ("All-Ckin", &traces.all)]
    {
        let km: Vec<f64> = sample.flights_m.iter().map(|m| m / 1_000.0).collect();
        if let Some(series) = pdf_series(label, &km, 0.01, 1_000.0) {
            csv_flight.push(series);
        }
        let med = geosocial_stats::median(&km).unwrap_or(0.0);
        text.push_str(&format!("{label:<12} flights={} median={:.2} km", sample.n_flights(), med));
        if let Some(m) = &models {
            let model = match label {
                "GPS" => &m.gps,
                "Honest-Ckin" => &m.honest,
                _ => &m.all,
            };
            text.push_str(&format!(
                " | Pareto(xmin={:.0} m, alpha={:.2}) | t = {:.2}·d^{:.2} (rho={:.2}, R²={:.2})",
                model.flight.x_min,
                model.flight.alpha,
                model.coupling.k,
                model.coupling.exponent,
                model.rho(),
                model.coupling.r_squared,
            ));
        }
        text.push('\n');
    }
    // Pause-time PDF (GPS only, as in Figure 7c).
    let pause_min: Vec<f64> = traces.gps.pauses_s.iter().map(|s| s / 60.0).collect();
    if let Some(series) = pdf_series("GPS pause", &pause_min, 1.0, 10_000.0) {
        csv_pause.push(series);
    }
    if let Some(m) = &models {
        text.push_str(&format!(
            "GPS pause Pareto(xmin={:.0} s, alpha={:.2}); shared by both checkin models\n",
            m.gps.pause.x_min, m.gps.pause.alpha
        ));
    }

    ExperimentOutput {
        id: "fig7".into(),
        text,
        csv: vec![
            ("_flight_pdf".into(), series_csv(&csv_flight)),
            ("_pause_pdf".into(), series_csv(&csv_pause)),
        ],
    }
}

fn pdf_series(label: &str, sample: &[f64], lo: f64, hi: f64) -> Option<Series> {
    if sample.is_empty() {
        return None;
    }
    let mut h = LogHistogram::new(lo, hi, 40);
    h.extend(sample);
    let pts = h.pdf();
    if pts.is_empty() {
        return None;
    }
    Some(Series { label: label.to_string(), points: pts })
}

/// Configuration of the Figure 8 MANET experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8Config {
    /// Number of mobile nodes (paper: 200).
    pub nodes: usize,
    /// Square field side, meters. The paper states 100 km; at 200 nodes and
    /// 1 km range that density yields an almost fully partitioned network
    /// (mean degree ≈ 0.06), so the default reproduction uses a 12 km field
    /// — same node and pair counts, same protocol, sparse-but-percolating —
    /// and the harness can also run the paper-exact field via `--paper-area`.
    pub area_m: f64,
    /// CBR pair count (paper: 100).
    pub pairs: usize,
    /// Simulated duration, ms.
    pub duration_ms: i64,
    /// Independent repetitions pooled into the CDFs. The sparse network
    /// sits near its percolation threshold, where single runs are noisy.
    pub repetitions: u32,
}

impl Default for Fig8Config {
    fn default() -> Self {
        Self { nodes: 200, area_m: 12_000.0, pairs: 100, duration_ms: 600_000, repetitions: 3 }
    }
}

impl Fig8Config {
    /// A CI-scale configuration.
    pub fn quick() -> Self {
        Self { nodes: 30, area_m: 4_000.0, pairs: 10, duration_ms: 120_000, repetitions: 1 }
    }
}

/// One model's Figure 8 result: per-pair metric reports pooled across the
/// configured repetitions.
pub struct Fig8Run {
    /// Which training trace the model came from.
    pub label: String,
    /// One simulator report per repetition.
    pub reports: Vec<MetricsReport>,
}

impl Fig8Run {
    /// All repetitions' values of a per-pair series, pooled in repetition
    /// order.
    fn pooled<F: Fn(&MetricsReport) -> Vec<f64>>(&self, f: F) -> Vec<f64> {
        self.reports.iter().flat_map(f).collect()
    }

    /// Delivery ratio over all repetitions.
    fn delivery(&self) -> f64 {
        let sent: u64 = self.reports.iter().flat_map(|r| &r.pairs).map(|p| p.data_sent).sum();
        let got: u64 = self.reports.iter().flat_map(|r| &r.pairs).map(|p| p.data_delivered).sum();
        if sent == 0 {
            0.0
        } else {
            got as f64 / sent as f64
        }
    }

    /// Total routing transmissions across repetitions.
    fn routing_tx(&self) -> u64 {
        self.reports.iter().map(|r| r.total_routing_tx).sum()
    }
}

/// The one Figure 8 driver: for every (model, repetition), generate node
/// movement from the fitted model and CBR pairs from the run's seed, then
/// hand them with that seed to `simulate` (one MANET run of the chosen
/// protocol). Returns one [`Fig8Run`] per model, in [`MODEL_LABELS`] order.
fn fig8_runs<F>(models: &FittedModels, cfg: &Fig8Config, seed: u64, simulate: F) -> Vec<Fig8Run>
where
    F: Fn(Vec<MovementTrace>, Vec<(usize, usize)>, u64) -> MetricsReport + Sync,
{
    // Every (model, repetition) pair is independently seeded, so the whole
    // grid fans out as one flat task list; reports regroup per model in
    // repetition order, matching the serial nesting exactly.
    let tasks: Vec<(usize, &LevyWalkModel, u32)> = [&models.gps, &models.honest, &models.all]
        .into_iter()
        .enumerate()
        .flat_map(|(mi, model)| (0..cfg.repetitions.max(1)).map(move |rep| (mi, model, rep)))
        .collect();
    let reports = geosocial_par::par_map(&tasks, |&(mi, model, rep)| {
        let run_seed = seed ^ hash_label(MODEL_LABELS[mi]) ^ (rep as u64).wrapping_mul(0x9e37_79b9);
        let mut rng = ChaCha12Rng::seed_from_u64(run_seed);
        let traces: Vec<MovementTrace> = (0..cfg.nodes)
            .map(|_| model.generate(cfg.area_m, cfg.duration_ms / 1_000 + 60, &mut rng))
            .collect();
        let pairs = random_pairs(cfg.nodes, cfg.pairs, &mut rng);
        simulate(traces, pairs, run_seed)
    });
    let mut runs: Vec<Fig8Run> = MODEL_LABELS
        .iter()
        .map(|label| Fig8Run { label: label.to_string(), reports: Vec::new() })
        .collect();
    for (&(mi, ..), report) in tasks.iter().zip(reports) {
        runs[mi].reports.push(report);
    }
    runs
}

/// Run the Figure 8 experiment: generate node movement from each fitted
/// model, simulate AODV over it (pooling `repetitions` independent runs),
/// and report the three metric CDFs.
pub fn fig8(models: &FittedModels, cfg: &Fig8Config, seed: u64) -> ExperimentOutput {
    let sim_cfg = SimConfig { duration_ms: cfg.duration_ms, ..Default::default() };
    let runs = fig8_runs(models, cfg, seed, |traces, pairs, run_seed| {
        Simulator::new(traces, pairs, sim_cfg.clone(), run_seed).run()
    });

    let mut text = format!(
        "Figure 8 — MANET metrics over {} nodes, {:.0}×{:.0} km field, {} CBR pairs, {} s (paper: 200 nodes, 100×100 km, 100 pairs).\n\
         Paper shape: all-checkin has the most stable/available routes and lowest overhead; honest-checkin still deviates from GPS (≈2× availability, less overhead).\n",
        cfg.nodes,
        cfg.area_m / 1_000.0,
        cfg.area_m / 1_000.0,
        cfg.pairs,
        cfg.duration_ms / 1_000,
    );
    let mut change_series = Vec::new();
    let mut avail_series = Vec::new();
    let mut overhead_series = Vec::new();
    let change_grid: Vec<f64> = (0..=40).map(|i| i as f64 * 0.02).collect();
    let ratio_grid: Vec<f64> = (0..=20).map(|i| i as f64 / 20.0).collect();
    let ovh_grid: Vec<f64> = (0..=50).map(|i| i as f64).collect();
    for run in &runs {
        let ch = run.pooled(MetricsReport::route_change_series);
        let av = run.pooled(MetricsReport::availability_series);
        let ov = run.pooled(MetricsReport::overhead_series);
        let delivered: u64 =
            run.reports.iter().flat_map(|r| &r.pairs).map(|p| p.data_delivered).sum();
        let aggregate_overhead = run.routing_tx() as f64 / delivered.max(1) as f64;
        text.push_str(&format!(
            "{:<15} delivery={:.2} | route-changes/min mean={:.3} | availability mean={:.2} | overhead mean/pair={:.1} aggregate={:.1} | routing_tx={}\n",
            run.label,
            run.delivery(),
            mean(&ch),
            mean(&av),
            mean(&ov),
            aggregate_overhead,
            run.routing_tx(),
        ));
        if let Some(s) = Series::cdf(&run.label, &ch, &change_grid) {
            change_series.push(s);
        }
        if let Some(s) = Series::cdf(&run.label, &av, &ratio_grid) {
            avail_series.push(s);
        }
        if let Some(s) = Series::cdf(&run.label, &ov, &ovh_grid) {
            overhead_series.push(s);
        }
    }
    ExperimentOutput {
        id: "fig8".into(),
        text,
        csv: vec![
            ("_route_change".into(), series_csv(&change_series)),
            ("_availability".into(), series_csv(&avail_series)),
            ("_overhead".into(), series_csv(&overhead_series)),
        ],
    }
}

fn mean(xs: &[f64]) -> f64 {
    geosocial_stats::mean(xs).unwrap_or(0.0)
}

/// Display order of the three trained models in every figure.
const MODEL_LABELS: [&str; 3] = ["GPS", "Honest-Checkin", "All-Checkin"];

fn hash_label(label: &str) -> u64 {
    label
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x1000_0000_01b3))
}

/// `n` distinct random (src, dst) pairs with `src != dst`.
pub fn random_pairs<R: Rng>(nodes: usize, n: usize, rng: &mut R) -> Vec<(usize, usize)> {
    assert!(nodes >= 2, "need two nodes to form a pair");
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    let mut guard = 0;
    while out.len() < n && guard < n * 1_000 {
        guard += 1;
        let s = rng.gen_range(0..nodes);
        let d = rng.gen_range(0..nodes);
        if s != d && seen.insert((s, d)) {
            out.push((s, d));
        }
    }
    out
}

/// Cross-model shape check used by tests and EXPERIMENTS.md: average
/// movement speed implied by each model.
pub fn mean_speed_of(model: &LevyWalkModel, area_m: f64, seed: u64) -> f64 {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let tr = model.generate(area_m, 12 * 3_600, &mut rng);
    let mut dist = 0.0;
    let mut time = 0.0;
    for w in tr.waypoints().windows(2) {
        dist += w[0].1.distance(w[1].1);
        time += (w[1].0 - w[0].0) as f64;
    }
    if time == 0.0 {
        0.0
    } else {
        dist / time
    }
}

/// X9 — protocol robustness: rerun Figure 8 under DSDV (proactive
/// distance-vector) instead of AODV. If the GPS-vs-checkin deviations
/// survive a protocol swap, they are properties of the mobility inputs —
/// the paper's thesis — and not artifacts of AODV.
pub fn fig8_dsdv(models: &FittedModels, cfg: &Fig8Config, seed: u64) -> ExperimentOutput {
    let dsdv_cfg = DsdvConfig { duration_ms: cfg.duration_ms, ..Default::default() };
    let runs = fig8_runs(models, cfg, seed, |traces, pairs, run_seed| {
        DsdvSimulator::new(traces, pairs, dsdv_cfg.clone(), run_seed).run()
    });
    let mut text = format!(
        "X9 — Figure 8 under DSDV ({} nodes, {:.0}×{:.0} km, {} pairs, {} s).\n",
        cfg.nodes,
        cfg.area_m / 1_000.0,
        cfg.area_m / 1_000.0,
        cfg.pairs,
        cfg.duration_ms / 1_000,
    );
    let mut avail_series = Vec::new();
    let ratio_grid: Vec<f64> = (0..=20).map(|i| i as f64 / 20.0).collect();
    let mut csv_rows =
        String::from("model,delivery,availability_mean,route_changes_per_min,routing_tx\n");
    for run in &runs {
        let label = &run.label;
        let avail = run.pooled(MetricsReport::availability_series);
        let change = run.pooled(MetricsReport::route_change_series);
        let (delivery, routing) = (run.delivery(), run.routing_tx());
        text.push_str(&format!(
            "{label:<15} delivery={delivery:.2} | availability mean={:.2} | route-changes/min mean={:.3} | routing_tx={routing}\n",
            mean(&avail),
            mean(&change),
        ));
        csv_rows.push_str(&format!(
            "{label},{delivery:.4},{:.4},{:.4},{routing}\n",
            mean(&avail),
            mean(&change),
        ));
        if let Some(s) = Series::cdf(label, &avail, &ratio_grid) {
            avail_series.push(s);
        }
    }
    text.push_str(
        "robustness check: the checkin-trained models must still deviate from GPS under a proactive protocol.\n",
    );
    ExperimentOutput {
        id: "dsdv".into(),
        text,
        csv: vec![("".into(), csv_rows), ("_availability".into(), series_csv(&avail_series))],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosocial_checkin::scenario::ScenarioConfig;
    use rand::SeedableRng;

    fn analysis() -> Analysis {
        Analysis::run(&ScenarioConfig::small(14, 10), 99)
    }

    #[test]
    fn training_traces_have_expected_structure() {
        let a = analysis();
        let t = training_traces(&a.scenario.primary, &a.outcome);
        assert!(t.gps.n_flights() > 100);
        assert!(!t.gps.pauses_s.is_empty());
        assert!(t.honest.pauses_s.is_empty(), "checkins carry no pauses");
        assert!(t.all.pauses_s.is_empty());
        assert!(
            t.all.n_flights() > t.honest.n_flights(),
            "all-checkin has more events than the honest subset"
        );
    }

    #[test]
    fn models_fit_and_differ() {
        let a = analysis();
        let t = training_traces(&a.scenario.primary, &a.outcome);
        let m = fit_models(&t).expect("fits");
        // Checkin models borrow the GPS pause fit.
        assert_eq!(m.honest.pause, m.gps.pause);
        assert_eq!(m.all.pause, m.gps.pause);
        // GPS (dense sampling) flights skew shorter than honest-checkin's:
        // a heavier tail index for GPS.
        assert!(m.gps.flight.alpha != m.honest.flight.alpha, "models should differ");
    }

    #[test]
    fn fig7_and_fig8_render() {
        let a = analysis();
        let out7 = fig7(&a);
        assert!(out7.text.contains("Pareto"));
        assert_eq!(out7.csv.len(), 2);

        let t = training_traces(&a.scenario.primary, &a.outcome);
        let m = fit_models(&t).expect("fits");
        let out8 = fig8(&m, &Fig8Config::quick(), 7);
        assert!(out8.text.contains("GPS"));
        assert_eq!(out8.csv.len(), 3);
        for (_, csv) in &out8.csv {
            assert!(csv.lines().count() > 2);
        }
    }

    #[test]
    fn random_pairs_distinct_and_valid() {
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let pairs = random_pairs(50, 30, &mut rng);
        assert_eq!(pairs.len(), 30);
        let set: HashSet<_> = pairs.iter().collect();
        assert_eq!(set.len(), 30);
        for &(s, d) in &pairs {
            assert!(s != d && s < 50 && d < 50);
        }
    }
}
