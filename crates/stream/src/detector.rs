//! Incremental stay-point detection.
//!
//! [`OnlineVisitDetector`] folds GPS fixes one at a time and emits visits on
//! window closure. It runs the exact same extension and closure rules as the
//! batch [`geosocial_trace::detect_visits`] — both call
//! [`geosocial_trace::extends_stay`] and [`geosocial_trace::close_stay`] —
//! so for in-order input the emitted visit sequence is **identical** to the
//! batch output, in the same order, with the same timestamps and centroids.
//! Emitted visits are not snapped to POIs (`poi` is `None`): no audit
//! verdict reads the snapped id.
//!
//! The only behavioural additions are streaming concerns: out-of-order fixes
//! older than the ingest frontier are dropped (and counted), and a pending
//! window larger than the state budget is force-closed.

use crate::metrics;
use geosocial_trace::{close_stay, extends_stay, GpsPoint, Timestamp, Visit, VisitConfig};
use std::collections::VecDeque;

/// Incremental form of the §3 stay-point detector.
#[derive(Debug, Clone)]
pub struct OnlineVisitDetector {
    config: VisitConfig,
    /// Fixes not yet consumed by an emitted or discarded window. The front
    /// fix is the anchor of the currently open window.
    buffer: VecDeque<GpsPoint>,
    /// `buffer[..validated]` is a consistent stay window (every consecutive
    /// pair passes the extension rule against the front anchor).
    validated: usize,
    /// Whether extension stopped at a rule violation (window must close)
    /// rather than at the end of the buffer (window may still grow).
    broke: bool,
    /// Visits emitted but not yet popped by the caller.
    emitted: VecDeque<Visit>,
    /// Total visits emitted over the detector's lifetime; the next visit's
    /// batch-equivalent index.
    emitted_total: usize,
    /// Largest fix timestamp ingested so far.
    frontier: Option<Timestamp>,
    /// Out-of-order or duplicate-timestamp fixes dropped.
    late_dropped: usize,
    /// Windows force-closed by the state budget.
    forced_closures: usize,
    /// Maximum pending fixes before a window is force-closed (state budget).
    max_pending: usize,
    finished: bool,
}

impl OnlineVisitDetector {
    /// A detector with the given stay rules and an unbounded-ish default
    /// state budget (65 536 pending fixes ≈ 45 days of per-minute sampling).
    pub fn new(config: VisitConfig) -> Self {
        Self {
            config,
            buffer: VecDeque::new(),
            validated: 0,
            broke: false,
            emitted: VecDeque::new(),
            emitted_total: 0,
            frontier: None,
            late_dropped: 0,
            forced_closures: 0,
            max_pending: 65_536,
            finished: false,
        }
    }

    /// Cap the pending-fix buffer; a window reaching the cap is force-closed
    /// (emitted if long enough, else discarded), which bounds per-user memory
    /// at the cost of exact batch equivalence for pathological stays.
    pub fn with_state_budget(mut self, max_pending: usize) -> Self {
        self.max_pending = max_pending.max(2);
        self
    }

    /// Ingest one fix. Fixes at or before the ingest frontier (out-of-order
    /// or duplicate timestamps) are dropped and counted in
    /// [`OnlineVisitDetector::late_dropped`].
    pub fn push(&mut self, p: GpsPoint) {
        assert!(!self.finished, "push after finish");
        if let Some(f) = self.frontier {
            if p.t <= f {
                self.late_dropped += 1;
                metrics::late_dropped().inc();
                return;
            }
        }
        self.frontier = Some(p.t);
        self.buffer.push_back(p);
        if self.validated == 0 {
            self.validated = 1;
        }
        self.drain(false);
        if self.buffer.len() >= self.max_pending {
            // State budget: force the open window shut as if the stream had
            // paused here, then continue streaming from the break point.
            self.forced_closures += 1;
            metrics::forced_closures().inc();
            let consumed = self.close_front();
            self.buffer.drain(..consumed);
            self.broke = false;
            self.validated = usize::from(!self.buffer.is_empty());
            self.drain(false);
        }
    }

    /// Flush the trailing window; the stream is over. Further pushes panic.
    pub fn finish(&mut self) {
        if !self.finished {
            self.finished = true;
            self.drain(true);
        }
    }

    /// Pop the next emitted visit, in chronological (= batch) order.
    pub fn pop_visit(&mut self) -> Option<Visit> {
        self.emitted.pop_front()
    }

    /// Timestamp of the earliest pending (unconsumed) fix — a lower bound on
    /// the start of any visit this detector may still emit. `None` when no
    /// window is open.
    pub fn pending_front_time(&self) -> Option<Timestamp> {
        self.buffer.front().map(|p| p.t)
    }

    /// Number of pending fixes held (state-budget observability).
    pub fn pending_len(&self) -> usize {
        self.buffer.len()
    }

    /// Total visits emitted over the detector's lifetime.
    pub fn emitted_total(&self) -> usize {
        self.emitted_total
    }

    /// Out-of-order fixes dropped.
    pub fn late_dropped(&self) -> usize {
        self.late_dropped
    }

    /// Windows force-closed by the state budget.
    pub fn forced_closures(&self) -> usize {
        self.forced_closures
    }

    /// Largest fix timestamp ingested.
    pub fn frontier(&self) -> Option<Timestamp> {
        self.frontier
    }

    /// Export the complete mutable state (config and budget are the
    /// restoring side's responsibility).
    pub(crate) fn export_state(&self) -> crate::snapshot::DetectorState {
        crate::snapshot::DetectorState {
            buffer: self.buffer.iter().copied().collect(),
            validated: self.validated,
            broke: self.broke,
            emitted: self.emitted.iter().copied().collect(),
            emitted_total: self.emitted_total,
            frontier: self.frontier,
            late_dropped: self.late_dropped,
            forced_closures: self.forced_closures,
            finished: self.finished,
        }
    }

    /// Rebuild a detector that continues exactly where [`Self::export_state`]
    /// left off, under the same config and budget.
    pub(crate) fn restore(
        config: VisitConfig,
        max_pending: usize,
        state: crate::snapshot::DetectorState,
    ) -> Self {
        Self {
            config,
            buffer: state.buffer.into(),
            validated: state.validated,
            broke: state.broke,
            emitted: state.emitted.into(),
            emitted_total: state.emitted_total,
            frontier: state.frontier,
            late_dropped: state.late_dropped,
            forced_closures: state.forced_closures,
            max_pending: max_pending.max(2),
            finished: state.finished,
        }
    }

    /// Run the batch window loop as far as current knowledge permits.
    ///
    /// Invariant: `buffer[..validated]` is the (maximal so far) stay window
    /// anchored at `buffer[0]`. When the window breaks mid-buffer, or
    /// `closing` asserts no further fixes will arrive, the window is closed
    /// exactly like the batch detector: emit if it spans the minimum
    /// duration and restart after it, else slide the anchor one fix.
    fn drain(&mut self, closing: bool) {
        loop {
            if self.buffer.is_empty() {
                return;
            }
            if !self.broke {
                let anchor = self.buffer[0].pos;
                while self.validated < self.buffer.len() {
                    let prev = self.buffer[self.validated - 1];
                    let next = self.buffer[self.validated];
                    if extends_stay(anchor, &prev, &next, &self.config) {
                        self.validated += 1;
                    } else {
                        self.broke = true;
                        break;
                    }
                }
            }
            if !self.broke && !closing {
                // Window reaches the end of the buffer and may still grow.
                return;
            }
            let consumed = self.close_front();
            self.buffer.drain(..consumed);
            self.broke = false;
            self.validated = usize::from(!self.buffer.is_empty());
        }
    }

    /// Close the window `buffer[..validated]`; returns how many fixes were
    /// consumed (the whole window when a visit is emitted, one otherwise).
    fn close_front(&mut self) -> usize {
        let window: Vec<GpsPoint> = self.buffer.iter().take(self.validated).copied().collect();
        match close_stay(&window, &self.config, None) {
            Some(v) => {
                self.emitted.push_back(v);
                self.emitted_total += 1;
                self.validated
            }
            None => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosocial_geo::LatLon;
    use geosocial_trace::{detect_visits, GpsTrace, MINUTE};

    fn fix(t_min: i64, lat: f64, lon: f64) -> GpsPoint {
        GpsPoint { t: t_min * MINUTE, pos: LatLon::new(lat, lon) }
    }

    fn run_online(pts: &[GpsPoint]) -> Vec<Visit> {
        let mut d = OnlineVisitDetector::new(VisitConfig::default());
        for &p in pts {
            d.push(p);
        }
        d.finish();
        let mut out = Vec::new();
        while let Some(v) = d.pop_visit() {
            out.push(v);
        }
        out
    }

    fn assert_matches_batch(pts: Vec<GpsPoint>) {
        let online = run_online(&pts);
        let batch = detect_visits(&GpsTrace::new(pts), &VisitConfig::default(), None);
        assert_eq!(online.len(), batch.len(), "visit count");
        for (a, b) in online.iter().zip(&batch) {
            assert_eq!(a.start, b.start);
            assert_eq!(a.end, b.end);
            assert_eq!(a.centroid.lat.to_bits(), b.centroid.lat.to_bits());
            assert_eq!(a.centroid.lon.to_bits(), b.centroid.lon.to_bits());
        }
    }

    #[test]
    fn matches_batch_on_two_stays() {
        let mut pts: Vec<GpsPoint> = (0..=10).map(|m| fix(m, 34.0, -119.0)).collect();
        pts.push(fix(11, 34.02, -119.0));
        pts.push(fix(12, 34.04, -119.0));
        pts.extend((13..=25).map(|m| fix(m, 34.06, -119.0)));
        assert_matches_batch(pts);
    }

    #[test]
    fn matches_batch_on_short_stop_slide() {
        // 5-minute stop (below threshold) forces the anchor-slide path.
        let mut pts: Vec<GpsPoint> = (0..=5).map(|m| fix(m, 34.0, -119.0)).collect();
        pts.push(fix(6, 34.1, -119.0));
        pts.extend((7..=20).map(|m| fix(m, 34.2, -119.0)));
        assert_matches_batch(pts);
    }

    #[test]
    fn matches_batch_on_gap_break() {
        let mut pts: Vec<GpsPoint> = (0..=7).map(|m| fix(m, 34.0, -119.0)).collect();
        pts.extend((40..=47).map(|m| fix(m, 34.0, -119.0)));
        assert_matches_batch(pts);
    }

    #[test]
    fn trailing_open_window_needs_finish() {
        let mut d = OnlineVisitDetector::new(VisitConfig::default());
        for m in 0..=10 {
            d.push(fix(m, 34.0, -119.0));
        }
        assert!(d.pop_visit().is_none(), "open window must not emit early");
        assert_eq!(d.pending_front_time(), Some(0));
        d.finish();
        let v = d.pop_visit().expect("finish flushes the stay");
        assert_eq!(v.duration(), 10 * MINUTE);
        assert!(d.pop_visit().is_none());
    }

    #[test]
    fn late_fixes_are_dropped_and_counted() {
        let mut d = OnlineVisitDetector::new(VisitConfig::default());
        d.push(fix(5, 34.0, -119.0));
        d.push(fix(3, 34.0, -119.0)); // out of order
        d.push(fix(5, 34.0, -119.0)); // duplicate
        assert_eq!(d.late_dropped(), 2);
        assert_eq!(d.pending_len(), 1);
    }

    #[test]
    fn state_budget_forces_closure() {
        let mut d = OnlineVisitDetector::new(VisitConfig::default()).with_state_budget(8);
        for m in 0..40 {
            d.push(fix(m, 34.0, -119.0));
        }
        d.finish();
        assert!(d.forced_closures() > 0);
        // The stay is chopped into budget-sized visits rather than one.
        let mut n = 0;
        while d.pop_visit().is_some() {
            n += 1;
        }
        assert!(n >= 2, "expected the long stay split by the budget, got {n}");
    }

    #[test]
    fn empty_stream() {
        let mut d = OnlineVisitDetector::new(VisitConfig::default());
        d.finish();
        assert!(d.pop_visit().is_none());
        assert_eq!(d.emitted_total(), 0);
    }
}
