#![warn(missing_docs)]

//! Regeneration harness: every table and figure of the paper, as callable
//! experiments producing both human-readable text and CSV series.
//!
//! The per-experiment index lives in `DESIGN.md`; the measured-vs-paper
//! comparison in `EXPERIMENTS.md`. [`catalogue::EXPERIMENTS`] is the catalogue
//! and [`catalogue::Runner`] its one dispatcher; the `repro` binary drives
//! everything through it:
//!
//! ```text
//! cargo run --release -p geosocial-experiments --bin repro -- --exp all
//! ```
//!
//! | id | function | paper artifact |
//! |---|---|---|
//! | `table1` | [`figures::table1`] | Table 1 — dataset statistics |
//! | `fig1` | [`figures::fig1`] | Figure 1 — matching Venn |
//! | `fig2` | [`figures::fig2`] | Figure 2 — inter-arrival CDFs |
//! | `fig3` | [`figures::fig3`] | Figure 3 — top-n missing concentration |
//! | `fig4` | [`figures::fig4`] | Figure 4 — missing by category |
//! | `table2` | [`figures::table2`] | Table 2 — incentive correlations |
//! | `fig5` | [`figures::fig5`] | Figure 5 — per-user extraneous ratio |
//! | `fig6` | [`figures::fig6`] | Figure 6 — burstiness |
//! | `fig7` | [`models::fig7`] | Figure 7 — Levy Walk fits |
//! | `fig8` | [`models::fig8`] | Figure 8 — MANET metrics |
//! | `sweep` | [`extensions::alpha_beta_sweep`] | §4.1 α/β sensitivity |
//! | `detect` | [`extensions::detector_curve`] | §7 detection (P/R curve) |
//! | `filter` | [`extensions::filter_curve`] | §5.3 user-filter tradeoff |
//! | `recover` | [`extensions::recovery`] | §7 missing-location recovery |
//! | `learned` | [`extensions::learned_detector`] | §7 ML detection (X5) |
//! | `fidelity` | [`extensions::model_fidelity`] | model fidelity audit (X6) |
//! | `rates` | [`extensions::category_rate_recovery`] | §7 category rates (X7) |
//! | `visitdef` | [`extensions::visit_sensitivity`] | visit-definition sweep (X8) |
//! | `dsdv` | [`models::fig8_dsdv`] | Figure 8 under DSDV (X9) |
//! | `equiv` | [`streaming::streaming_equivalence`] | online-vs-batch audit (X10) |
//! | `scenarios` | [`scenarios::scenario_scorecards`] | per-scenario detector scorecards (X15) |

pub mod analysis;
pub mod catalogue;
pub mod extensions;
pub mod figures;
pub mod models;
pub mod output;
pub mod scenarios;
pub mod streaming;

/// Re-export of the cohort generator, so downstream users need only this
/// crate (plus `geosocial-core`) to reproduce the study.
pub mod scenario {
    pub use geosocial_checkin::scenario::{Scenario, ScenarioConfig};
}

pub use analysis::Analysis;
