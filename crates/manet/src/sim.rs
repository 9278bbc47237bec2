//! The AODV simulator: event dispatch and AODV message handling over the
//! shared radio.

use crate::aodv::NodeState;
use crate::event::{EventKind, EventQueue, SimTime};
use crate::metrics::{pair_set, MetricsReport, PairMetrics};
use crate::packet::{NodeId, Packet};
use crate::radio::Radio;
use geosocial_mobility::MovementTrace;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Simulation parameters. Defaults follow the paper's §6.2 setup where
/// stated (1 km range) and NS-2 AODV defaults elsewhere.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Radio range, meters (paper: 1 km).
    pub radio_range_m: f64,
    /// Per-hop delivery latency, ms.
    pub hop_latency_ms: SimTime,
    /// Hello beacon interval, ms (RFC: 1 s).
    pub hello_interval_ms: SimTime,
    /// Silence after which a neighbor is declared lost, ms
    /// (RFC: ~2–3 hello intervals).
    pub neighbor_timeout_ms: SimTime,
    /// Active route lifetime, ms (NS-2 default 10 s).
    pub route_lifetime_ms: SimTime,
    /// CBR inter-packet interval, ms.
    pub cbr_interval_ms: SimTime,
    /// Route-discovery retries after the first attempt (RFC: 2).
    pub rreq_retries: u32,
    /// First discovery timeout, ms; doubles per retry.
    pub rreq_timeout_ms: SimTime,
    /// RREQ flood TTL, hops (the network-diameter flood).
    pub rreq_ttl: u8,
    /// Data packet TTL, hops.
    pub data_ttl: u8,
    /// RERR re-broadcast budget, hops.
    pub rerr_ttl: u8,
    /// Per-destination buffer while discovering, packets.
    pub buffer_cap: usize,
    /// Metrics sampling period, ms.
    pub sample_interval_ms: SimTime,
    /// Total simulated time, ms.
    pub duration_ms: SimTime,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            radio_range_m: 1_000.0,
            hop_latency_ms: 5,
            hello_interval_ms: 1_000,
            neighbor_timeout_ms: 3_500,
            route_lifetime_ms: 10_000,
            cbr_interval_ms: 1_000,
            rreq_retries: 2,
            rreq_timeout_ms: 2_000,
            rreq_ttl: 32,
            data_ttl: 32,
            rerr_ttl: 2,
            buffer_cap: 16,
            sample_interval_ms: 1_000,
            duration_ms: 600_000,
        }
    }
}

/// The discrete-event MANET simulator.
///
/// # Example
///
/// ```
/// use geosocial_manet::{SimConfig, Simulator};
/// use geosocial_mobility::RandomWaypoint;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(1);
/// let rwp = RandomWaypoint::default();
/// let traces: Vec<_> = (0..10).map(|_| rwp.generate(3_000.0, 120, &mut rng)).collect();
/// let cfg = SimConfig { duration_ms: 120_000, ..Default::default() };
/// let report = Simulator::new(traces, vec![(0, 5), (2, 9)], cfg, 7).run();
/// assert_eq!(report.pairs.len(), 2);
/// ```
pub struct Simulator {
    cfg: SimConfig,
    radio: Radio,
    nodes: Vec<NodeState>,
    pairs: Vec<PairMetrics>,
    /// `(src, dst)` → pair index, for metric attribution.
    pair_index: HashMap<(NodeId, NodeId), usize>,
    queue: EventQueue,
    rng: ChaCha12Rng,
    cbr_seq: Vec<u64>,
    total_routing_tx: u64,
    total_data_tx: u64,
    total_hello_tx: u64,
}

impl Simulator {
    /// Build a simulator over one movement trace per node and a list of
    /// CBR `(source, destination)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a pair references a missing node, pairs a node with
    /// itself, or any trace is empty.
    pub fn new(
        traces: Vec<MovementTrace>,
        pairs: Vec<(NodeId, NodeId)>,
        cfg: SimConfig,
        seed: u64,
    ) -> Self {
        let radio = Radio::new(traces, cfg.radio_range_m);
        let n = radio.len();
        let (pairs, pair_index) = pair_set(pairs, n);
        let n_pairs = pairs.len();
        Self {
            cfg,
            radio,
            nodes: vec![NodeState::new(); n],
            pairs,
            pair_index,
            queue: EventQueue::new(),
            rng: ChaCha12Rng::seed_from_u64(seed),
            cbr_seq: vec![0; n_pairs],
            total_routing_tx: 0,
            total_data_tx: 0,
            total_hello_tx: 0,
        }
    }

    /// Run to completion and produce the metrics report.
    pub fn run(mut self) -> MetricsReport {
        // Stagger periodic processes so the network does not beat in
        // lockstep.
        for node in 0..self.nodes.len() {
            let h0 = self.rng.gen_range(0..self.cfg.hello_interval_ms);
            self.queue.schedule(h0, EventKind::Hello(node));
            let c0 = self.rng.gen_range(0..self.cfg.hello_interval_ms);
            self.queue.schedule(c0, EventKind::LinkCheck(node));
        }
        for pair in 0..self.pairs.len() {
            let t0 = self.rng.gen_range(0..self.cfg.cbr_interval_ms);
            self.queue.schedule(t0, EventKind::CbrSend { pair });
        }
        self.queue.schedule(self.cfg.sample_interval_ms, EventKind::Sample);

        while let Some((t, ev)) = self.queue.pop() {
            if t > self.cfg.duration_ms {
                break;
            }
            match ev {
                EventKind::Hello(node) => self.on_hello(node, t),
                EventKind::LinkCheck(node) => self.on_link_check(node, t),
                EventKind::CbrSend { pair } => self.on_cbr(pair, t),
                EventKind::Deliver { to, from, packet } => self.on_deliver(to, from, packet, t),
                EventKind::RreqTimeout { node, dst, attempt } => {
                    self.on_rreq_timeout(node, dst, attempt, t)
                }
                EventKind::Sample => self.on_sample(t),
            }
        }

        MetricsReport {
            pairs: self.pairs,
            total_routing_tx: self.total_routing_tx,
            total_data_tx: self.total_data_tx,
            total_hello_tx: self.total_hello_tx,
            duration: self.cfg.duration_ms,
        }
    }

    // --- transmission -----------------------------------------------------

    fn count_tx(&mut self, packet: &Packet) {
        match packet {
            Packet::Hello { .. } => self.total_hello_tx += 1,
            Packet::Data { .. } => self.total_data_tx += 1,
            _ => self.total_routing_tx += 1,
        }
        // Pair attribution for Figure 8c.
        let pair = match packet {
            Packet::Rreq { origin, dst, .. } => self.pair_index.get(&(*origin, *dst)).copied(),
            Packet::Rrep { origin, dst, .. } => self.pair_index.get(&(*origin, *dst)).copied(),
            Packet::Rerr { unreachable, .. } => {
                for &(dst, _) in unreachable {
                    for (key, &idx) in &self.pair_index {
                        if key.1 == dst {
                            self.pairs[idx].routing_tx += 1;
                        }
                    }
                }
                None
            }
            _ => None,
        };
        if let Some(idx) = pair {
            self.pairs[idx].routing_tx += 1;
        }
    }

    /// Wireless broadcast: one transmission, delivered to every node
    /// currently in range after the hop latency (+ per-receiver jitter).
    fn broadcast(&mut self, from: NodeId, packet: Packet, t: SimTime) {
        self.count_tx(&packet);
        for to in self.radio.neighbors_of(from, t) {
            let jitter = self.rng.gen_range(0..3);
            self.queue.schedule(
                t + self.cfg.hop_latency_ms + jitter,
                EventKind::Deliver { to, from, packet: packet.clone() },
            );
        }
    }

    /// Unicast to a specific neighbor. Returns `false` (without
    /// transmitting) when the target has moved out of range — the MAC-layer
    /// feedback AODV uses for immediate link-break detection.
    fn unicast(&mut self, from: NodeId, to: NodeId, packet: Packet, t: SimTime) -> bool {
        if !self.radio.in_range(from, to, t) {
            return false;
        }
        self.count_tx(&packet);
        let jitter = self.rng.gen_range(0..3);
        self.queue.schedule(
            t + self.cfg.hop_latency_ms + jitter,
            EventKind::Deliver { to, from, packet },
        );
        true
    }

    // --- periodic processes -------------------------------------------------

    fn on_hello(&mut self, node: NodeId, t: SimTime) {
        let seq = self.nodes[node].seq;
        self.broadcast(node, Packet::Hello { seq }, t);
        let next = self.cfg.hello_interval_ms + self.rng.gen_range(0..50);
        self.queue.schedule(t + next, EventKind::Hello(node));
    }

    fn on_link_check(&mut self, node: NodeId, t: SimTime) {
        let stale = self.nodes[node].expire_neighbors(t, self.cfg.neighbor_timeout_ms);
        let mut unreachable = Vec::new();
        for neighbor in stale {
            unreachable.extend(self.nodes[node].invalidate_via(neighbor, t));
        }
        if !unreachable.is_empty() {
            let ttl = self.cfg.rerr_ttl;
            self.broadcast(node, Packet::Rerr { unreachable, ttl }, t);
        }
        self.queue.schedule(t + self.cfg.hello_interval_ms, EventKind::LinkCheck(node));
    }

    fn on_cbr(&mut self, pair: usize, t: SimTime) {
        let (src, dst) = (self.pairs[pair].src, self.pairs[pair].dst);
        let seq = self.cbr_seq[pair];
        self.cbr_seq[pair] += 1;
        self.pairs[pair].data_sent += 1;
        let ttl = self.cfg.data_ttl;
        self.route_or_buffer(src, Packet::Data { src, dst, seq, ttl }, t);
        self.queue.schedule(t + self.cfg.cbr_interval_ms, EventKind::CbrSend { pair });
    }

    fn on_sample(&mut self, t: SimTime) {
        for pair in &mut self.pairs {
            pair.samples_total += 1;
            if self.nodes[pair.src].route(pair.dst, t).is_some() {
                pair.samples_available += 1;
            }
        }
        if t + self.cfg.sample_interval_ms <= self.cfg.duration_ms {
            self.queue.schedule(t + self.cfg.sample_interval_ms, EventKind::Sample);
        }
    }

    // --- data path ----------------------------------------------------------

    /// Forward `data` from `node`, buffering + discovering at the source,
    /// erroring back from intermediates.
    fn route_or_buffer(&mut self, node: NodeId, data: Packet, t: SimTime) {
        let Packet::Data { src, dst, .. } = data else {
            unreachable!("route_or_buffer only handles data")
        };
        if let Some(route) = self.nodes[node].route(dst, t) {
            let next = route.next_hop;
            if self.unicast(node, next, data.clone(), t) {
                self.nodes[node].refresh_route(dst, t, self.cfg.route_lifetime_ms);
                return;
            }
            // MAC feedback: the next hop is gone.
            self.handle_link_break(node, next, t);
        }
        if node == src {
            let buf = self.nodes[node].buffer.entry(dst).or_default();
            if buf.len() < self.cfg.buffer_cap {
                buf.push(data);
            }
            if !self.nodes[node].pending_discovery.contains_key(&dst) {
                self.start_discovery(node, dst, 1, t);
            }
        } else {
            // Intermediate with no route: report the loss toward whoever
            // still routes through here.
            let seq = self.nodes[node].route_any(dst).map(|r| r.seq).unwrap_or(0);
            let ttl = self.cfg.rerr_ttl;
            self.broadcast(node, Packet::Rerr { unreachable: vec![(dst, seq)], ttl }, t);
        }
    }

    fn handle_link_break(&mut self, node: NodeId, neighbor: NodeId, t: SimTime) {
        self.nodes[node].hear(neighbor, t - self.cfg.neighbor_timeout_ms - 1);
        let _ = self.nodes[node].expire_neighbors(t, self.cfg.neighbor_timeout_ms);
        let unreachable = self.nodes[node].invalidate_via(neighbor, t);
        if !unreachable.is_empty() {
            let ttl = self.cfg.rerr_ttl;
            self.broadcast(node, Packet::Rerr { unreachable, ttl }, t);
        }
    }

    // --- route discovery ------------------------------------------------------

    /// Every discovery attempt floods the network diameter (`rreq_ttl`);
    /// the timeout doubles per retry, and the first attempt plus
    /// `rreq_retries` retries are made before the buffer is dropped.
    fn start_discovery(&mut self, node: NodeId, dst: NodeId, attempt: u32, t: SimTime) {
        let state = &mut self.nodes[node];
        state.seq += 1;
        state.rreq_id += 1;
        state.pending_discovery.insert(dst, attempt);
        let rreq = Packet::Rreq {
            origin: node,
            rreq_id: state.rreq_id,
            dst,
            origin_seq: state.seq,
            dst_seq: state.route_any(dst).map(|r| r.seq).unwrap_or(0),
            hop_count: 0,
            ttl: self.cfg.rreq_ttl,
        };
        // The originator also suppresses re-processing its own flood.
        let id = state.rreq_id;
        let lifetime = 2 * self.cfg.rreq_timeout_ms;
        self.nodes[node].note_rreq(node, id, t, lifetime);
        self.broadcast(node, rreq, t);
        let timeout = self.cfg.rreq_timeout_ms << attempt.saturating_sub(1).min(8);
        self.queue.schedule(t + timeout, EventKind::RreqTimeout { node, dst, attempt });
    }

    fn on_rreq_timeout(&mut self, node: NodeId, dst: NodeId, attempt: u32, t: SimTime) {
        if self.nodes[node].pending_discovery.get(&dst) != Some(&attempt) {
            return; // superseded or resolved
        }
        if self.nodes[node].route(dst, t).is_some() {
            self.nodes[node].pending_discovery.remove(&dst);
            return;
        }
        if attempt < 1 + self.cfg.rreq_retries {
            self.start_discovery(node, dst, attempt + 1, t);
        } else {
            // Give up: drop the buffered packets.
            self.nodes[node].pending_discovery.remove(&dst);
            self.nodes[node].buffer.remove(&dst);
        }
    }

    // --- packet handlers ----------------------------------------------------

    fn on_deliver(&mut self, to: NodeId, from: NodeId, packet: Packet, t: SimTime) {
        self.nodes[to].hear(from, t);
        match packet {
            Packet::Hello { .. } => {}
            Packet::Rreq { origin, rreq_id, dst, origin_seq, dst_seq, hop_count, ttl } => {
                self.on_rreq(to, from, origin, rreq_id, dst, origin_seq, dst_seq, hop_count, ttl, t)
            }
            Packet::Rrep { origin, dst, dst_seq, hop_count } => {
                self.on_rrep(to, from, origin, dst, dst_seq, hop_count, t)
            }
            Packet::Rerr { unreachable, ttl } => self.on_rerr(to, from, unreachable, ttl, t),
            Packet::Data { src, dst, seq, ttl } => self.on_data(to, src, dst, seq, ttl, t),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_rreq(
        &mut self,
        node: NodeId,
        sender: NodeId,
        origin: NodeId,
        rreq_id: u32,
        dst: NodeId,
        origin_seq: u32,
        dst_seq: u32,
        hop_count: u8,
        ttl: u8,
        t: SimTime,
    ) {
        if origin == node {
            return;
        }
        let seen_ttl = 2 * self.cfg.rreq_timeout_ms;
        if !self.nodes[node].note_rreq(origin, rreq_id, t, seen_ttl) {
            return;
        }
        // Reverse route toward the originator.
        let changed = self.nodes[node].offer_route(
            origin,
            sender,
            origin_seq,
            hop_count + 1,
            t,
            self.cfg.route_lifetime_ms,
        );
        self.note_route_event(node, origin, changed);

        if node == dst {
            // Destination reply: freshen own sequence number first.
            let state = &mut self.nodes[node];
            state.seq = state.seq.max(dst_seq).max(state.seq + 1);
            let rep = Packet::Rrep { origin, dst, dst_seq: state.seq, hop_count: 0 };
            if !self.unicast(node, sender, rep, t) {
                self.handle_link_break(node, sender, t);
            }
            return;
        }
        // Intermediate reply if we hold a fresh-enough route.
        if let Some(route) = self.nodes[node].route(dst, t) {
            if route.seq >= dst_seq && dst_seq > 0 {
                let rep = Packet::Rrep { origin, dst, dst_seq: route.seq, hop_count: route.hops };
                if !self.unicast(node, sender, rep, t) {
                    self.handle_link_break(node, sender, t);
                }
                return;
            }
        }
        // Re-flood.
        if ttl > 1 {
            let fwd = Packet::Rreq {
                origin,
                rreq_id,
                dst,
                origin_seq,
                dst_seq,
                hop_count: hop_count + 1,
                ttl: ttl - 1,
            };
            self.broadcast(node, fwd, t);
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the RREP wire fields
    fn on_rrep(
        &mut self,
        node: NodeId,
        sender: NodeId,
        origin: NodeId,
        dst: NodeId,
        dst_seq: u32,
        hop_count: u8,
        t: SimTime,
    ) {
        // Forward route toward the destination.
        let changed = self.nodes[node].offer_route(
            dst,
            sender,
            dst_seq,
            hop_count + 1,
            t,
            self.cfg.route_lifetime_ms,
        );
        self.note_route_event(node, dst, changed);

        if node == origin {
            // Discovery complete: flush the buffer.
            self.nodes[node].pending_discovery.remove(&dst);
            if let Some(buffered) = self.nodes[node].buffer.remove(&dst) {
                for data in buffered {
                    self.route_or_buffer(node, data, t);
                }
            }
            return;
        }
        // Relay along the reverse route toward the originator.
        if let Some(route) = self.nodes[node].route(origin, t) {
            let next = route.next_hop;
            let rep = Packet::Rrep { origin, dst, dst_seq, hop_count: hop_count + 1 };
            if !self.unicast(node, next, rep, t) {
                self.handle_link_break(node, next, t);
            }
        }
    }

    fn on_rerr(
        &mut self,
        node: NodeId,
        sender: NodeId,
        unreachable: Vec<(NodeId, u32)>,
        ttl: u8,
        t: SimTime,
    ) {
        let mut own_losses = Vec::new();
        for (dst, _seq) in unreachable {
            let via_sender =
                self.nodes[node].route(dst, t).map(|r| r.next_hop == sender).unwrap_or(false);
            if via_sender {
                if let Some(pair) = self.nodes[node].invalidate(dst, t) {
                    own_losses.push(pair);
                }
            }
        }
        if !own_losses.is_empty() && ttl > 1 {
            self.broadcast(node, Packet::Rerr { unreachable: own_losses, ttl: ttl - 1 }, t);
        }
    }

    fn on_data(&mut self, node: NodeId, src: NodeId, dst: NodeId, seq: u64, ttl: u8, t: SimTime) {
        if node == dst {
            if let Some(&idx) = self.pair_index.get(&(src, dst)) {
                self.pairs[idx].data_delivered += 1;
            }
            return;
        }
        if ttl <= 1 {
            return; // hop budget exhausted
        }
        self.route_or_buffer(node, Packet::Data { src, dst, seq, ttl: ttl - 1 }, t);
    }

    /// Record a route-change event for Figure 8a when a CBR source's usable
    /// next hop toward its pair destination changes.
    fn note_route_event(&mut self, node: NodeId, dst: NodeId, changed: bool) {
        if !changed {
            return;
        }
        if let Some(&idx) = self.pair_index.get(&(node, dst)) {
            self.pairs[idx].route_changes += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosocial_geo::Point;

    /// Static nodes on a line, spaced 800 m (range 1 km): a 4-hop chain.
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

    fn quick_cfg(duration_ms: SimTime) -> SimConfig {
        SimConfig { duration_ms, ..Default::default() }
    }

    #[test]
    fn static_chain_delivers_end_to_end() {
        let report = Simulator::new(chain(5, 120), vec![(0, 4)], quick_cfg(120_000), 1).run();
        let p = &report.pairs[0];
        assert!(p.data_sent >= 100, "sent {}", p.data_sent);
        // After discovery converges, virtually everything is delivered.
        assert!(
            p.delivery_ratio() > 0.9,
            "delivery {:.2} ({} of {})",
            p.delivery_ratio(),
            p.data_delivered,
            p.data_sent
        );
        // Availability approaches 1 once the route exists.
        assert!(p.availability_ratio() > 0.8, "avail {:.2}", p.availability_ratio());
        // A static chain re-discovers rarely: low route-change rate.
        assert!(
            p.route_changes_per_minute(report.duration) < 3.0,
            "route changes/min {:.2}",
            p.route_changes_per_minute(report.duration)
        );
    }

    #[test]
    fn partitioned_nodes_never_deliver() {
        // Two nodes 50 km apart.
        let traces = vec![
            MovementTrace::new(vec![(0, Point::new(0.0, 0.0)), (600, Point::new(0.0, 0.0))]),
            MovementTrace::new(vec![
                (0, Point::new(50_000.0, 0.0)),
                (600, Point::new(50_000.0, 0.0)),
            ]),
        ];
        let report = Simulator::new(traces, vec![(0, 1)], quick_cfg(60_000), 2).run();
        let p = &report.pairs[0];
        assert_eq!(p.data_delivered, 0);
        assert_eq!(p.availability_ratio(), 0.0);
        // Discovery attempts still cost routing packets.
        assert!(p.routing_tx > 0);
    }

    #[test]
    fn link_break_triggers_rediscovery() {
        // Node 1 relays between 0 and 2, then walks away at t=60 s,
        // while node 3 sits in a position to take over relaying.
        let stay = |x: f64, y: f64, until: i64| {
            MovementTrace::new(vec![(0, Point::new(x, y)), (until, Point::new(x, y))])
        };
        let traces = vec![
            stay(0.0, 0.0, 300),
            MovementTrace::new(vec![
                (0, Point::new(900.0, 0.0)),
                (60, Point::new(900.0, 0.0)),
                (120, Point::new(900.0, 40_000.0)), // leaves at ~660 m/s... clamp
                (300, Point::new(900.0, 40_000.0)),
            ]),
            stay(1_800.0, 0.0, 300),
            stay(900.0, 300.0, 300), // alternate relay
        ];
        let report = Simulator::new(traces, vec![(0, 2)], quick_cfg(300_000), 3).run();
        let p = &report.pairs[0];
        // Traffic flows before and after the relay swap.
        assert!(p.data_delivered > 100, "delivered {}", p.data_delivered);
        // The swap forces at least one route change.
        assert!(p.route_changes >= 1, "route changes {}", p.route_changes);
    }

    #[test]
    fn rreq_rrep_handshake_installs_a_route_and_delivers() {
        // Data from 0 reaches 2 only over a route that node 0 installed
        // from an RREP answering its RREQ flood.
        let cfg = SimConfig { duration_ms: 20_000, ..Default::default() };
        let report = Simulator::new(chain(3, 30), vec![(0, 2)], cfg, 1).run();
        let p = &report.pairs[0];
        assert!(p.data_delivered > 0, "no data delivered");
        assert!(p.route_changes >= 1, "the source never installed a route");
        assert!(p.routing_tx > 0 && report.total_routing_tx > 0, "no RREQ/RREP was sent");
    }

    #[test]
    fn deterministic_under_seed() {
        let r1 = Simulator::new(chain(4, 60), vec![(0, 3)], quick_cfg(60_000), 9).run();
        let r2 = Simulator::new(chain(4, 60), vec![(0, 3)], quick_cfg(60_000), 9).run();
        assert_eq!(r1.pairs[0].data_delivered, r2.pairs[0].data_delivered);
        assert_eq!(r1.total_routing_tx, r2.total_routing_tx);
        assert_eq!(r1.pairs[0].route_changes, r2.pairs[0].route_changes);
    }

    #[test]
    fn overhead_accounting_is_positive_and_bounded() {
        let report = Simulator::new(chain(5, 120), vec![(0, 4)], quick_cfg(120_000), 4).run();
        assert!(report.total_hello_tx > 0);
        assert!(report.total_routing_tx > 0);
        assert!(report.total_data_tx >= report.pairs[0].data_delivered);
        // A stable chain's overhead per data packet is far below flood-storm
        // levels.
        assert!(report.pairs[0].overhead_per_data() < 10.0);
    }

    #[test]
    #[should_panic(expected = "self-pair")]
    fn self_pair_rejected() {
        Simulator::new(chain(2, 10), vec![(1, 1)], quick_cfg(1_000), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_pair_rejected() {
        Simulator::new(chain(2, 10), vec![(0, 5)], quick_cfg(1_000), 0);
    }
}
