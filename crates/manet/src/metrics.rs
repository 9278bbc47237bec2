//! Per-pair and run-level metrics (the Figure 8 outputs).

use crate::event::SimTime;
use crate::packet::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Metrics for one CBR source–destination pair.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PairMetrics {
    /// Traffic source.
    pub src: NodeId,
    /// Traffic destination.
    pub dst: NodeId,
    /// Times the source's usable next hop toward `dst` changed
    /// (Figure 8a's numerator).
    pub route_changes: u64,
    /// Sampling ticks observed.
    pub samples_total: u64,
    /// Sampling ticks at which the source held a usable route
    /// (Figure 8b's numerator).
    pub samples_available: u64,
    /// Data packets the source emitted.
    pub data_sent: u64,
    /// Data packets the destination received.
    pub data_delivered: u64,
    /// Routing-packet transmissions attributable to this pair
    /// (RREQ/RREP floods for its discoveries, RERRs naming its
    /// destination — Figure 8c's numerator).
    pub routing_tx: u64,
}

impl PairMetrics {
    /// A zeroed record for `(src, dst)`.
    pub fn new(src: NodeId, dst: NodeId) -> Self {
        Self {
            src,
            dst,
            route_changes: 0,
            samples_total: 0,
            samples_available: 0,
            data_sent: 0,
            data_delivered: 0,
            routing_tx: 0,
        }
    }

    /// Route changes per minute of simulated time (Figure 8a).
    pub fn route_changes_per_minute(&self, duration: SimTime) -> f64 {
        if duration <= 0 {
            return 0.0;
        }
        self.route_changes as f64 / (duration as f64 / 60_000.0)
    }

    /// Fraction of sampling ticks with a usable route (Figure 8b).
    pub fn availability_ratio(&self) -> f64 {
        if self.samples_total == 0 {
            0.0
        } else {
            self.samples_available as f64 / self.samples_total as f64
        }
    }

    /// Routing packets per delivered data packet (Figure 8c). Pairs that
    /// never delivered anything report their raw routing cost (divided by
    /// one) — an infinite ratio would poison the CDF.
    pub fn overhead_per_data(&self) -> f64 {
        self.routing_tx as f64 / self.data_delivered.max(1) as f64
    }

    /// Delivered fraction of sent packets.
    pub fn delivery_ratio(&self) -> f64 {
        if self.data_sent == 0 {
            0.0
        } else {
            self.data_delivered as f64 / self.data_sent as f64
        }
    }
}

/// Zeroed metrics for each CBR pair plus the `(src, dst)` → pair index
/// map the simulators attribute traffic through.
///
/// # Panics
///
/// Panics if a pair references a node outside `0..nodes` or pairs a node
/// with itself.
pub(crate) fn pair_set(
    pairs: Vec<(NodeId, NodeId)>,
    nodes: usize,
) -> (Vec<PairMetrics>, HashMap<(NodeId, NodeId), usize>) {
    let mut index = HashMap::new();
    for (i, &(s, d)) in pairs.iter().enumerate() {
        assert!(s < nodes && d < nodes, "pair ({s},{d}) out of range");
        assert!(s != d, "self-pair ({s},{d})");
        index.insert((s, d), i);
    }
    (pairs.into_iter().map(|(s, d)| PairMetrics::new(s, d)).collect(), index)
}

/// The full output of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsReport {
    /// One record per CBR pair.
    pub pairs: Vec<PairMetrics>,
    /// Every routing-packet (RREQ, RREP, RERR) transmission in the run
    /// (incl. unattributed): Figure 8c's overhead. Hello beacons count
    /// apart — constant background independent of the mobility input, as
    /// in most NS-2 AODV studies.
    pub total_routing_tx: u64,
    /// Every data-packet transmission (hops, not end-to-end deliveries).
    pub total_data_tx: u64,
    /// Every hello-beacon transmission.
    pub total_hello_tx: u64,
    /// Simulated duration, ms.
    pub duration: SimTime,
}

impl MetricsReport {
    /// Figure 8a series: per-pair route changes per minute.
    pub fn route_change_series(&self) -> Vec<f64> {
        self.pairs.iter().map(|p| p.route_changes_per_minute(self.duration)).collect()
    }

    /// Figure 8b series: per-pair availability ratios.
    pub fn availability_series(&self) -> Vec<f64> {
        self.pairs.iter().map(PairMetrics::availability_ratio).collect()
    }

    /// Figure 8c series: per-pair routing packets per delivered data packet.
    pub fn overhead_series(&self) -> Vec<f64> {
        self.pairs.iter().map(PairMetrics::overhead_per_data).collect()
    }

    /// Run-level delivery ratio across all pairs.
    pub fn delivery_ratio(&self) -> f64 {
        let sent: u64 = self.pairs.iter().map(|p| p.data_sent).sum();
        let got: u64 = self.pairs.iter().map(|p| p.data_delivered).sum();
        if sent == 0 {
            0.0
        } else {
            got as f64 / sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_ratios() {
        let mut p = PairMetrics::new(0, 1);
        p.route_changes = 6;
        p.samples_total = 100;
        p.samples_available = 40;
        p.data_sent = 50;
        p.data_delivered = 25;
        p.routing_tx = 100;
        assert!((p.route_changes_per_minute(120_000) - 3.0).abs() < 1e-12);
        assert!((p.availability_ratio() - 0.4).abs() < 1e-12);
        assert!((p.overhead_per_data() - 4.0).abs() < 1e-12);
        assert!((p.delivery_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn degenerate_pair_metrics() {
        let p = PairMetrics::new(0, 1);
        assert_eq!(p.availability_ratio(), 0.0);
        assert_eq!(p.delivery_ratio(), 0.0);
        assert_eq!(p.overhead_per_data(), 0.0);
        assert_eq!(p.route_changes_per_minute(0), 0.0);
    }

    #[test]
    fn report_series_align_with_pairs() {
        let mut a = PairMetrics::new(0, 1);
        a.samples_total = 10;
        a.samples_available = 10;
        let b = PairMetrics::new(2, 3);
        let r = MetricsReport {
            pairs: vec![a, b],
            total_routing_tx: 0,
            total_data_tx: 0,
            total_hello_tx: 0,
            duration: 60_000,
        };
        assert_eq!(r.availability_series(), vec![1.0, 0.0]);
        assert_eq!(r.route_change_series().len(), 2);
        assert_eq!(r.delivery_ratio(), 0.0);
    }
}
