//! End-to-end online-vs-batch equivalence over generated scenarios.
//!
//! The streaming subsystem's acceptance bar: replaying a full generated
//! cohort through [`geosocial_stream::CohortAuditor`] in event-time order
//! must reproduce the batch pipeline's per-user composition **exactly** —
//! honest/superfluous/remote/driveby/unclassified counts, visit counts, and
//! missing-visit counts, user for user.

use geosocial_checkin::{Scenario, ScenarioConfig};
use geosocial_core::classify::ClassifyConfig;
use geosocial_core::matching::MatchConfig;
use geosocial_stream::equivalence_report;

#[test]
fn stream_matches_batch_on_small_scenario() {
    let config = ScenarioConfig::small(12, 5);
    let scenario = Scenario::generate(&config, 0xEC0_FEED);
    for ds in [&scenario.primary, &scenario.baseline] {
        let report = equivalence_report(
            ds,
            &MatchConfig::paper(),
            &ClassifyConfig::default(),
            &config.visit,
        );
        assert!(report.total_checkins > 0, "{}: scenario generated no checkins", ds.name);
        assert!(
            report.identical,
            "{}: stream/batch divergence: {:?}",
            ds.name,
            &report.mismatches[..report.mismatches.len().min(10)]
        );
        assert_eq!(report.late_dropped, 0, "{}: in-order replay dropped events", ds.name);
        assert_eq!(report.forced, 0, "{}: budgets forced finalization", ds.name);
    }
}

#[test]
fn stream_matches_batch_under_non_paper_thresholds() {
    // Equivalence must hold for any operating point, not just α=500/β=30min.
    let config = ScenarioConfig::small(8, 4);
    let scenario = Scenario::generate(&config, 42);
    for (alpha_m, beta_s) in [(200.0, 600), (1_000.0, 3_600)] {
        let report = equivalence_report(
            &scenario.primary,
            &MatchConfig { alpha_m, beta_s },
            &ClassifyConfig::default(),
            &config.visit,
        );
        assert!(
            report.identical,
            "α={alpha_m} β={beta_s}: divergence: {:?}",
            &report.mismatches[..report.mismatches.len().min(10)]
        );
    }
}
