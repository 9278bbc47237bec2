//! Watermark boundary accounting, and the contract between the local
//! `late_dropped` counters and the exported `stream.late_dropped` metric.
//!
//! This lives in its own integration-test binary (= its own process) so
//! the process-global metrics registry sees *only* this file's drops.
//! The tests of one binary run in parallel, so every test that drops
//! events holds [`METRIC`], making the exported-counter equality
//! assertion exact.

use std::sync::Mutex;

use geosocial_geo::LatLon;
use geosocial_stream::{AuditConfig, OnlineAuditor, Reorderer};
use geosocial_trace::GpsPoint;

/// Serializes this file's tests around the global `stream.late_dropped`.
static METRIC: Mutex<()> = Mutex::new(());

fn fix(t: i64) -> GpsPoint {
    GpsPoint { t, pos: LatLon::new(34.0, -119.0) }
}

/// An event whose timestamp equals the release frontier is *not* late:
/// the frontier is the largest timestamp already released, and an equal
/// timestamp can still be delivered in event-time order (equal keys keep
/// arrival order).
#[test]
fn event_at_release_frontier_is_accepted_not_late() {
    let _metric = METRIC.lock().unwrap_or_else(|e| e.into_inner());
    let mut r = Reorderer::new(60);
    assert!(r.push(100, "a"));
    assert!(r.push(200, "b"));
    // Watermark 200, lateness 60: everything up to t=140 releases.
    assert_eq!(r.pop_ready(), Some("a"));
    assert!(r.pop_ready().is_none());
    // Release frontier is now exactly 100; an equal-timestamp arrival
    // must be admitted and must not be counted.
    assert!(r.push(100, "c"), "t == release frontier is on time");
    assert_eq!(r.late_dropped(), 0);
    // It releases immediately (t=100 <= 140), after "a" — event-time
    // order holds for the equal key.
    assert_eq!(r.pop_ready(), Some("c"));
    // One below the frontier is late.
    assert!(!r.push(99, "d"));
    assert_eq!(r.late_dropped(), 1);
}

/// The sum of every local `late_dropped` count (reorderers + auditor
/// compositions) must equal the exported `stream.late_dropped` counter.
#[test]
fn late_drop_totals_match_exported_metric() {
    let _metric = METRIC.lock().unwrap_or_else(|e| e.into_inner());
    let before =
        geosocial_obs::snapshot().counters.get("stream.late_dropped").copied().unwrap_or(0);

    // Reorderer drop site: two events older than the release frontier.
    let mut r: Reorderer<u32> = Reorderer::new(60);
    r.push(1_000, 0);
    r.push(1_100, 1);
    while r.pop_ready().is_some() {}
    assert!(!r.push(900, 2));
    assert!(!r.push(800, 3));
    assert_eq!(r.late_dropped(), 2);

    // Auditor in-order drop sites: an out-of-order fix and a duplicate.
    let mut a = OnlineAuditor::new(1, AuditConfig::paper(LatLon::new(34.0, -119.0)));
    a.push_gps(fix(100));
    a.push_gps(fix(50)); // behind the fed frontier
    a.push_gps(fix(100)); // duplicate timestamp
    let comp = a.composition();
    assert_eq!(comp.late_dropped, 2);

    let local_total = r.late_dropped() + comp.late_dropped;
    let after = geosocial_obs::snapshot().counters["stream.late_dropped"];
    assert_eq!(
        after - before,
        local_total as u64,
        "exported stream.late_dropped must match the local counters"
    );
}
