//! DSDV: Destination-Sequenced Distance-Vector routing (Perkins & Bhagwat).
//!
//! The classic *proactive* MANET protocol, included as the counterpoint to
//! AODV's reactive design: every node periodically broadcasts its full
//! routing table; sequence numbers (even = fresh, odd = broken) prevent
//! loops. Running the paper's Figure 8 under both protocols answers a
//! robustness question the paper leaves open — whether the GPS-vs-checkin
//! deviations depend on the routing protocol or only on the mobility input
//! (experiment X9).
//!
//! Faithful subset: periodic full dumps, triggered updates on link breaks,
//! freshness/metric route selection, odd-sequence invalidation. Omitted:
//! incremental dumps and settling-time damping (they reduce overhead
//! volume but not the metric *shapes* compared here).

use crate::event::{EventQueue, SimTime};
use crate::metrics::{pair_set, MetricsReport, PairMetrics};
use crate::packet::NodeId;
use crate::radio::Radio;
use geosocial_mobility::MovementTrace;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// DSDV parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DsdvConfig {
    /// Radio range, meters.
    pub radio_range_m: f64,
    /// Per-hop delivery latency, ms.
    pub hop_latency_ms: SimTime,
    /// Full-dump broadcast period, ms (classic: 15 s; shorter here because
    /// the compared runs are 10 minutes).
    pub update_interval_ms: SimTime,
    /// Route entries older than this are purged, ms.
    pub route_timeout_ms: SimTime,
    /// CBR inter-packet interval, ms.
    pub cbr_interval_ms: SimTime,
    /// Data packet TTL, hops.
    pub data_ttl: u8,
    /// Metrics sampling period, ms.
    pub sample_interval_ms: SimTime,
    /// Total simulated time, ms.
    pub duration_ms: SimTime,
}

impl Default for DsdvConfig {
    fn default() -> Self {
        Self {
            radio_range_m: 1_000.0,
            hop_latency_ms: 5,
            update_interval_ms: 5_000,
            route_timeout_ms: 15_000,
            cbr_interval_ms: 1_000,
            data_ttl: 32,
            sample_interval_ms: 1_000,
            duration_ms: 600_000,
        }
    }
}

/// One advertised route: `(destination, metric, sequence)`.
type Advert = (NodeId, u16, u32);

#[derive(Debug, Clone, Copy)]
struct DsdvRoute {
    next_hop: NodeId,
    metric: u16,
    seq: u32,
    updated: SimTime,
}

impl DsdvRoute {
    fn usable(&self, now: SimTime, timeout: SimTime) -> bool {
        self.seq.is_multiple_of(2) && self.metric < u16::MAX && now - self.updated <= timeout
    }
}

#[derive(Debug)]
enum Ev {
    /// Node broadcasts its periodic full dump.
    Dump(NodeId),
    /// CBR source emits a packet.
    Cbr(usize),
    /// A full dump from `from` arrives at `to`.
    DeliverDump { to: NodeId, from: NodeId, adverts: Vec<Advert> },
    /// A data packet arrives at `to`.
    DeliverData { to: NodeId, src: NodeId, dst: NodeId, ttl: u8 },
    /// Metrics sampling tick.
    Sample,
}

/// The DSDV simulator. Shares the radio, the event queue, mobility
/// playback and metric definitions with the AODV [`crate::Simulator`] so
/// Figure-8 runs are directly comparable.
pub struct DsdvSimulator {
    cfg: DsdvConfig,
    radio: Radio,
    pairs: Vec<PairMetrics>,
    pair_index: HashMap<(NodeId, NodeId), usize>,
    /// Per-node routing tables.
    tables: Vec<HashMap<NodeId, DsdvRoute>>,
    /// Per-node own sequence numbers (kept even while alive).
    seqs: Vec<u32>,
    queue: EventQueue<Ev>,
    rng: ChaCha12Rng,
    total_routing_tx: u64,
    total_data_tx: u64,
}

impl DsdvSimulator {
    /// Build a simulator over one movement trace per node.
    ///
    /// # Panics
    ///
    /// Same validity requirements as the AODV simulator: non-empty traces,
    /// in-range non-self pairs.
    pub fn new(
        traces: Vec<MovementTrace>,
        pairs: Vec<(NodeId, NodeId)>,
        cfg: DsdvConfig,
        seed: u64,
    ) -> Self {
        let radio = Radio::new(traces, cfg.radio_range_m);
        let n = radio.len();
        let (pairs, pair_index) = pair_set(pairs, n);
        Self {
            cfg,
            radio,
            pairs,
            pair_index,
            tables: vec![HashMap::new(); n],
            seqs: vec![0; n],
            queue: EventQueue::new(),
            rng: ChaCha12Rng::seed_from_u64(seed),
            total_routing_tx: 0,
            total_data_tx: 0,
        }
    }

    /// Run to completion.
    pub fn run(mut self) -> MetricsReport {
        for node in 0..self.tables.len() {
            let jitter = self.rng.gen_range(0..self.cfg.update_interval_ms);
            self.queue.schedule(jitter, Ev::Dump(node));
        }
        for pair in 0..self.pairs.len() {
            let t0 = self.rng.gen_range(0..self.cfg.cbr_interval_ms);
            self.queue.schedule(t0, Ev::Cbr(pair));
        }
        self.queue.schedule(self.cfg.sample_interval_ms, Ev::Sample);

        while let Some((time, ev)) = self.queue.pop() {
            if time > self.cfg.duration_ms {
                break;
            }
            match ev {
                Ev::Dump(node) => self.on_dump(node, time),
                Ev::Cbr(pair) => self.on_cbr(pair, time),
                Ev::DeliverDump { to, from, adverts } => {
                    self.on_dump_received(to, from, adverts, time)
                }
                Ev::DeliverData { to, src, dst, ttl } => self.on_data(to, src, dst, ttl, time),
                Ev::Sample => self.on_sample(time),
            }
        }

        MetricsReport {
            pairs: self.pairs,
            total_routing_tx: self.total_routing_tx,
            total_data_tx: self.total_data_tx,
            total_hello_tx: 0,
            duration: self.cfg.duration_ms,
        }
    }

    fn on_dump(&mut self, node: NodeId, t: SimTime) {
        // Advance own sequence (stays even) and advertise self + table.
        self.seqs[node] = self.seqs[node].wrapping_add(2);
        let mut adverts: Vec<Advert> = vec![(node, 0, self.seqs[node])];
        for (&dst, route) in &self.tables[node] {
            if dst != node {
                adverts.push((dst, route.metric, route.seq));
            }
        }
        self.total_routing_tx += 1;
        for to in self.radio.neighbors_of(node, t) {
            let jitter = self.rng.gen_range(0..3);
            self.queue.schedule(
                t + self.cfg.hop_latency_ms + jitter,
                Ev::DeliverDump { to, from: node, adverts: adverts.clone() },
            );
        }
        self.queue.schedule(t + self.cfg.update_interval_ms, Ev::Dump(node));
    }

    fn on_dump_received(&mut self, node: NodeId, from: NodeId, adverts: Vec<Advert>, t: SimTime) {
        for (dst, metric, seq) in adverts {
            if dst == node {
                continue;
            }
            let offered =
                DsdvRoute { next_hop: from, metric: metric.saturating_add(1), seq, updated: t };
            let changed = match self.tables[node].get(&dst) {
                // DSDV rule: newer sequence wins; equal sequence needs a
                // strictly better metric.
                Some(cur) => {
                    seq > cur.seq
                        || (seq == cur.seq && offered.metric < cur.metric)
                        || !cur.usable(t, self.cfg.route_timeout_ms)
                }
                None => true,
            };
            if changed {
                let prev_hop = self.tables[node].get(&dst).map(|r| r.next_hop);
                let was_usable = self.tables[node]
                    .get(&dst)
                    .map(|r| r.usable(t, self.cfg.route_timeout_ms))
                    .unwrap_or(false);
                self.tables[node].insert(dst, offered);
                // Figure 8a accounting: a usable next hop changed at a CBR
                // source.
                if offered.usable(t, self.cfg.route_timeout_ms)
                    && (!was_usable || prev_hop != Some(from))
                {
                    if let Some(&idx) = self.pair_index.get(&(node, dst)) {
                        self.pairs[idx].route_changes += 1;
                    }
                }
            }
        }
    }

    fn on_cbr(&mut self, pair: usize, t: SimTime) {
        let (src, dst) = (self.pairs[pair].src, self.pairs[pair].dst);
        self.pairs[pair].data_sent += 1;
        let ttl = self.cfg.data_ttl;
        self.forward_data(src, src, dst, ttl, t);
        self.queue.schedule(t + self.cfg.cbr_interval_ms, Ev::Cbr(pair));
    }

    fn forward_data(&mut self, node: NodeId, src: NodeId, dst: NodeId, ttl: u8, t: SimTime) {
        if ttl == 0 {
            return;
        }
        let Some(route) =
            self.tables[node].get(&dst).filter(|r| r.usable(t, self.cfg.route_timeout_ms)).copied()
        else {
            // Proactive protocol: no route, no discovery — drop, and mark
            // the broken destination with an odd sequence so the next dump
            // propagates the loss.
            if let Some(r) = self.tables[node].get_mut(&dst) {
                if r.seq % 2 == 0 {
                    r.seq += 1;
                    r.metric = u16::MAX;
                }
            }
            return;
        };
        // The next hop must still be in range.
        let next = route.next_hop;
        if !self.radio.in_range(node, next, t) {
            // Link break: invalidate (odd seq) and drop.
            if let Some(route) = self.tables[node].get_mut(&dst) {
                route.seq |= 1;
                route.metric = u16::MAX;
            }
            return;
        }
        self.total_data_tx += 1;
        let jitter = self.rng.gen_range(0..3);
        self.queue.schedule(
            t + self.cfg.hop_latency_ms + jitter,
            Ev::DeliverData { to: next, src, dst, ttl: ttl - 1 },
        );
    }

    fn on_data(&mut self, node: NodeId, src: NodeId, dst: NodeId, ttl: u8, t: SimTime) {
        if node == dst {
            if let Some(&idx) = self.pair_index.get(&(src, dst)) {
                self.pairs[idx].data_delivered += 1;
            }
            return;
        }
        self.forward_data(node, src, dst, ttl, t);
    }

    fn on_sample(&mut self, t: SimTime) {
        for pair in &mut self.pairs {
            pair.samples_total += 1;
            let usable = self.tables[pair.src]
                .get(&pair.dst)
                .map(|r| r.usable(t, self.cfg.route_timeout_ms))
                .unwrap_or(false);
            if usable {
                pair.samples_available += 1;
            }
        }
        if t + self.cfg.sample_interval_ms <= self.cfg.duration_ms {
            self.queue.schedule(t + self.cfg.sample_interval_ms, Ev::Sample);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosocial_geo::Point;

    fn chain(n: usize, duration_s: i64) -> Vec<MovementTrace> {
        (0..n)
            .map(|i| {
                MovementTrace::new(vec![
                    (0, Point::new(i as f64 * 800.0, 0.0)),
                    (duration_s, Point::new(i as f64 * 800.0, 0.0)),
                ])
            })
            .collect()
    }

    #[test]
    fn static_chain_converges_and_delivers() {
        let cfg = DsdvConfig { duration_ms: 120_000, ..Default::default() };
        let report = DsdvSimulator::new(chain(5, 120), vec![(0, 4)], cfg, 1).run();
        let p = &report.pairs[0];
        // Proactive convergence takes a few dump rounds (~diameter × period),
        // after which everything flows.
        assert!(
            p.delivery_ratio() > 0.7,
            "delivery {:.2} ({} of {})",
            p.delivery_ratio(),
            p.data_delivered,
            p.data_sent
        );
        assert!(p.availability_ratio() > 0.6, "avail {:.2}", p.availability_ratio());
        assert!(report.total_routing_tx > 0);
    }

    #[test]
    fn partitioned_pair_never_delivers() {
        let traces = vec![
            MovementTrace::new(vec![(0, Point::new(0.0, 0.0)), (60, Point::new(0.0, 0.0))]),
            MovementTrace::new(vec![
                (0, Point::new(30_000.0, 0.0)),
                (60, Point::new(30_000.0, 0.0)),
            ]),
        ];
        let cfg = DsdvConfig { duration_ms: 60_000, ..Default::default() };
        let report = DsdvSimulator::new(traces, vec![(0, 1)], cfg, 2).run();
        assert_eq!(report.pairs[0].data_delivered, 0);
        assert_eq!(report.pairs[0].samples_available, 0);
    }

    #[test]
    fn proactive_overhead_is_constant_rate() {
        // Routing transmissions are one dump per node per period, traffic
        // or not.
        let cfg =
            DsdvConfig { duration_ms: 60_000, update_interval_ms: 5_000, ..Default::default() };
        let report = DsdvSimulator::new(chain(4, 60), vec![], cfg, 3).run();
        // 4 nodes × 12 periods = 48 dumps (± the staggered start).
        assert!(
            (40..=52).contains(&(report.total_routing_tx as i64)),
            "dumps {}",
            report.total_routing_tx
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = DsdvConfig { duration_ms: 30_000, ..Default::default() };
        let a = DsdvSimulator::new(chain(4, 30), vec![(0, 3)], cfg.clone(), 7).run();
        let b = DsdvSimulator::new(chain(4, 30), vec![(0, 3)], cfg, 7).run();
        assert_eq!(a.pairs[0].data_delivered, b.pairs[0].data_delivered);
        assert_eq!(a.total_routing_tx, b.total_routing_tx);
    }

    #[test]
    fn moving_relay_breaks_and_reconverges() {
        // Node 1 relays 0↔2, walks away at t=60, node 3 takes over.
        let stay = |x: f64, until: i64| {
            MovementTrace::new(vec![(0, Point::new(x, 0.0)), (until, Point::new(x, 0.0))])
        };
        let traces = vec![
            stay(0.0, 240),
            MovementTrace::new(vec![
                (0, Point::new(900.0, 0.0)),
                (60, Point::new(900.0, 0.0)),
                (120, Point::new(900.0, 30_000.0)),
                (240, Point::new(900.0, 30_000.0)),
            ]),
            stay(1_800.0, 240),
            MovementTrace::new(vec![
                (0, Point::new(900.0, 200.0)),
                (240, Point::new(900.0, 200.0)),
            ]),
        ];
        let cfg = DsdvConfig { duration_ms: 240_000, ..Default::default() };
        let report = DsdvSimulator::new(traces, vec![(0, 2)], cfg, 4).run();
        let p = &report.pairs[0];
        assert!(p.data_delivered > 100, "delivered {}", p.data_delivered);
        assert!(p.route_changes >= 1, "route changes {}", p.route_changes);
    }

    /// X9's "same radio model" claim: both protocols see the same radio,
    /// traffic, sampling and duration by default.
    #[test]
    fn radio_and_traffic_defaults_match_aodv() {
        let (aodv, dsdv) = (crate::SimConfig::default(), DsdvConfig::default());
        assert_eq!(aodv.radio_range_m, dsdv.radio_range_m);
        assert_eq!(aodv.hop_latency_ms, dsdv.hop_latency_ms);
        assert_eq!(aodv.cbr_interval_ms, dsdv.cbr_interval_ms);
        assert_eq!(aodv.data_ttl, dsdv.data_ttl);
        assert_eq!(aodv.sample_interval_ms, dsdv.sample_interval_ms);
        assert_eq!(aodv.duration_ms, dsdv.duration_ms);
    }

    #[test]
    #[should_panic(expected = "self-pair")]
    fn self_pair_rejected() {
        DsdvSimulator::new(chain(2, 10), vec![(0, 0)], DsdvConfig::default(), 0);
    }
}
