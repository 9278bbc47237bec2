//! Streaming-equivalence audit (`equiv`, X10): the online subsystem
//! against the batch pipeline.
//!
//! Every dataset of the scenario is streamed through
//! [`geosocial_stream::CohortAuditor`] in event-time order and diffed
//! per-user against the batch composition; every row must agree exactly.
//! The served forms of this oracle (1 and 4 shards, both wires, under
//! faults, as of a watermark, behind the router) are asserted by the
//! `geosocial-serve` integration tests, not re-run here.

use crate::figures::ExperimentOutput;
use crate::Analysis;
use geosocial_checkin::scenario::ScenarioConfig;
use geosocial_stream::equivalence_report;

/// The `equiv` experiment: see the module docs.
pub fn streaming_equivalence(a: &Analysis, config: &ScenarioConfig) -> ExperimentOutput {
    let mut text = String::from(
        "Streaming equivalence audit: online auditor vs batch pipeline.\n\
         Every row must report identical=yes — the online path is only\n\
         valid if it reproduces the batch composition exactly.\n\n",
    );
    let mut csv = String::from("mode,users,checkins,honest,extraneous,visits,missing,identical\n");
    let mut all_ok = true;

    // 1. In-process cohort replay, both datasets of the scenario.
    for ds in [&a.scenario.primary, &a.scenario.baseline] {
        let report = equivalence_report(ds, &a.match_config, &a.classify_config, &config.visit);
        let ok = report.identical && report.late_dropped == 0 && report.forced == 0;
        all_ok &= ok;
        text.push_str(&format!(
            "cohort {:<9} {:>4} users, {:>6} checkins: honest {} vs {}, missing {} vs {} -> identical={}\n",
            ds.name,
            report.users,
            report.total_checkins,
            report.stream_honest,
            report.batch_honest,
            report.stream_missing,
            report.batch_missing,
            if ok { "yes" } else { "NO" },
        ));
        if !ok {
            for m in report.mismatches.iter().take(5) {
                text.push_str(&format!("  mismatch: {m:?}\n"));
            }
        }
        csv.push_str(&format!(
            "cohort-{},{},{},{},{},{},{},{}\n",
            ds.name,
            report.users,
            report.total_checkins,
            report.stream_honest,
            report.total_checkins - report.stream_honest,
            report.total_visits,
            report.stream_missing,
            ok as u8,
        ));
    }

    text.push_str(&format!(
        "\noverall: {}\n",
        if all_ok {
            "streaming path reproduces the batch pipeline exactly"
        } else {
            "DIVERGENCE DETECTED"
        }
    ));
    ExperimentOutput { id: "equiv".into(), text, csv: vec![("".into(), csv)] }
}
