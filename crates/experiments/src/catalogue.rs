//! The experiment catalogue and its one dispatcher: `repro` and the
//! determinism test run every experiment through [`Runner::run`].

use crate::figures::{self, ExperimentOutput};
use crate::models::{self, Fig8Config, FittedModels};
use crate::{extensions, scenarios, streaming, Analysis};
use geosocial_checkin::scenario::ScenarioConfig;

/// Every experiment, in `--exp all` order, with a one-line description.
pub const EXPERIMENTS: &[(&str, &str)] = &[
    ("table1", "Table 1 — dataset statistics for both cohorts"),
    ("fig1", "Figure 1 — checkin/visit matching Venn"),
    ("fig2", "Figure 2 — inter-arrival CDFs"),
    ("fig3", "Figure 3 — top-n missing-checkin concentration"),
    ("fig4", "Figure 4 — missing checkins by POI category"),
    ("table2", "Table 2 — incentive correlations"),
    ("fig5", "Figure 5 — per-user extraneous ratio"),
    ("fig6", "Figure 6 — checkin burstiness"),
    ("fig7", "Figure 7 — Levy Walk fits"),
    ("fig8", "Figure 8 — MANET routing metrics"),
    ("sweep", "§4.1 α/β threshold sensitivity sweep"),
    ("detect", "§7 extraneous-checkin detection P/R curve"),
    ("filter", "§5.3 user-filter tradeoff"),
    ("recover", "§7 missing-location recovery"),
    ("learned", "§7 learned extraneous detector (X5)"),
    ("fidelity", "generative-model fidelity audit (X6)"),
    ("rates", "§7 per-category rate recovery (X7)"),
    ("visitdef", "visit-definition sensitivity sweep (X8)"),
    ("dsdv", "Figure 8 under DSDV routing (X9)"),
    ("equiv", "online-vs-batch streaming equivalence audit (X10)"),
    ("scenarios", "per-scenario detector scorecards (X15)"),
];

/// What the experiments read besides the shared [`Analysis`].
#[derive(Debug, Clone, Default)]
pub struct Settings {
    /// Quick scale: [`Fig8Config::quick`] and the scorecards' small cohorts.
    pub quick: bool,
    /// Simulate Figure 8 in the paper's 100 km square.
    pub paper_area: bool,
    /// The run's seed (the one [`Analysis::run`] was given).
    pub seed: u64,
    /// Restrict the `scenarios` experiment to these families.
    pub scenarios: Option<Vec<String>>,
}

/// Runs catalogue experiments over one analysis. The Levy-walk models that
/// `fig8` and `dsdv` share are fitted once, on first use.
pub struct Runner<'a> {
    analysis: &'a Analysis,
    config: &'a ScenarioConfig,
    settings: &'a Settings,
    fitted: Option<FittedModels>,
}

impl<'a> Runner<'a> {
    /// A runner over `analysis`, which was generated from `config`.
    pub fn new(analysis: &'a Analysis, config: &'a ScenarioConfig, settings: &'a Settings) -> Self {
        Runner { analysis, config, settings, fitted: None }
    }

    /// Run experiment `exp`; `None` when the catalogue has no such name.
    pub fn run(&mut self, exp: &str) -> Option<ExperimentOutput> {
        let a = self.analysis;
        let s = self.settings;
        Some(match exp {
            "table1" => figures::table1(a),
            "fig1" => figures::fig1(a),
            "fig2" => figures::fig2(a),
            "fig3" => figures::fig3(a),
            "fig4" => figures::fig4(a),
            "table2" => figures::table2(a),
            "fig5" => figures::fig5(a),
            "fig6" => figures::fig6(a),
            "fig7" => models::fig7(a),
            "fig8" => models::fig8(self.fitted(), &fig8_config(s), s.seed),
            "dsdv" => models::fig8_dsdv(self.fitted(), &fig8_config(s), s.seed),
            "sweep" => extensions::alpha_beta_sweep(a),
            "detect" => extensions::detector_curve(a),
            "filter" => extensions::filter_curve(a),
            "recover" => extensions::recovery(a),
            "learned" => extensions::learned_detector(a),
            "fidelity" => extensions::model_fidelity(a),
            "rates" => extensions::category_rate_recovery(a),
            "visitdef" => extensions::visit_sensitivity(a),
            "equiv" => streaming::streaming_equivalence(a, self.config),
            "scenarios" => scenarios::scenario_scorecards(s.quick, s.seed, s.scenarios.as_deref()),
            _ => return None,
        })
    }

    fn fitted(&mut self) -> &FittedModels {
        let a = self.analysis;
        self.fitted.get_or_insert_with(|| {
            let traces = models::training_traces(&a.scenario.primary, &a.outcome);
            models::fit_models(&traces).expect("model fitting needs a non-trivial cohort")
        })
    }
}

fn fig8_config(s: &Settings) -> Fig8Config {
    let mut cfg = if s.quick { Fig8Config::quick() } else { Fig8Config::default() };
    if s.paper_area {
        cfg.area_m = 100_000.0;
    }
    cfg
}
