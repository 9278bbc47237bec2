//! The contract between the local `late_dropped` counters and the exported
//! `stream.late_dropped` metric.
//!
//! This lives in its own integration-test binary (= its own process) with
//! a single test, so the process-global metrics registry sees *only* this
//! test's drops and the exported-counter equality assertion is exact.

use geosocial_geo::LatLon;
use geosocial_stream::{AuditConfig, OnlineAuditor};
use geosocial_trace::GpsPoint;

fn fix(t: i64) -> GpsPoint {
    GpsPoint { t, pos: LatLon::new(34.0, -119.0) }
}

/// The auditor's local `late_dropped` count must equal the exported
/// `stream.late_dropped` counter.
#[test]
fn late_drop_totals_match_exported_metric() {
    let before =
        geosocial_obs::snapshot().counters.get("stream.late_dropped").copied().unwrap_or(0);

    // Auditor in-order drop sites: an out-of-order fix and a duplicate.
    let mut a = OnlineAuditor::new(1, AuditConfig::paper(LatLon::new(34.0, -119.0)));
    a.push_gps(fix(100));
    a.push_gps(fix(50)); // behind the fed frontier
    a.push_gps(fix(100)); // duplicate timestamp
    let comp = a.composition();
    assert_eq!(comp.late_dropped, 2);

    let after = geosocial_obs::snapshot().counters["stream.late_dropped"];
    assert_eq!(
        after - before,
        comp.late_dropped as u64,
        "exported stream.late_dropped must match the local counters"
    );
}
