//! Per-node AODV protocol state.
//!
//! The state machine is kept as plain data plus pure-ish methods so the
//! protocol rules are unit-testable without spinning up a simulator; the
//! simulator in [`crate::sim`] owns transmission and timing.

use crate::event::SimTime;
use crate::packet::{NodeId, Packet};
use std::collections::HashMap;

/// One routing-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// Neighbor to forward through.
    pub next_hop: NodeId,
    /// Destination sequence number this route was learned with.
    pub seq: u32,
    /// Hop count to the destination.
    pub hops: u8,
    /// Absolute expiry time; stale routes are unusable but keep their
    /// sequence number for freshness comparisons.
    pub expires: SimTime,
    /// Cleared when a link break invalidates the route.
    pub valid: bool,
}

impl RouteEntry {
    /// Whether the route can carry traffic at time `now`.
    pub fn usable(&self, now: SimTime) -> bool {
        self.valid && self.expires > now
    }
}

/// AODV state for one node.
#[derive(Debug, Clone, Default)]
pub struct NodeState {
    /// This node's own sequence number.
    pub seq: u32,
    /// This node's RREQ id counter.
    pub rreq_id: u32,
    routes: HashMap<NodeId, RouteEntry>,
    /// `(origin, rreq_id)` pairs already processed, with their expiry.
    seen_rreqs: HashMap<(NodeId, u32), SimTime>,
    /// Neighbor → time of last hello/packet heard.
    neighbors: HashMap<NodeId, SimTime>,
    /// Destination → buffered data packets awaiting a route.
    pub buffer: HashMap<NodeId, Vec<Packet>>,
    /// Destination → current discovery attempt (present while discovering).
    pub pending_discovery: HashMap<NodeId, u32>,
}

impl NodeState {
    /// Fresh state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The usable route to `dst` at `now`, if any.
    pub fn route(&self, dst: NodeId, now: SimTime) -> Option<&RouteEntry> {
        self.routes.get(&dst).filter(|r| r.usable(now))
    }

    /// The raw table entry (possibly stale/invalid) — used for sequence
    /// numbers in RREQs and RERRs.
    pub fn route_any(&self, dst: NodeId) -> Option<&RouteEntry> {
        self.routes.get(&dst)
    }

    /// AODV route-update rule: install the offered route if it is fresher
    /// (higher seq), equally fresh but shorter, or the current entry is
    /// unusable. Returns `true` if the usable next hop changed (the route
    /// -change event Figure 8a counts).
    pub fn offer_route(
        &mut self,
        dst: NodeId,
        next_hop: NodeId,
        seq: u32,
        hops: u8,
        now: SimTime,
        lifetime: SimTime,
    ) -> bool {
        let new = RouteEntry { next_hop, seq, hops, expires: now + lifetime, valid: true };
        match self.routes.get_mut(&dst) {
            Some(cur) => {
                // RFC 3561 §6.2: accept strictly fresher sequence numbers,
                // or equal freshness when the offer is shorter or the
                // current entry is unusable. A *stale*-seq offer must never
                // resurrect an invalidated route.
                let accept =
                    seq > cur.seq || (seq == cur.seq && (hops < cur.hops || !cur.usable(now)));
                if !accept {
                    return false;
                }
                let changed = !cur.usable(now) || cur.next_hop != next_hop;
                *cur = new;
                changed
            }
            None => {
                self.routes.insert(dst, new);
                true
            }
        }
    }

    /// Push a route's expiry forward (called when the route carries data).
    pub fn refresh_route(&mut self, dst: NodeId, now: SimTime, lifetime: SimTime) {
        if let Some(r) = self.routes.get_mut(&dst) {
            if r.usable(now) {
                r.expires = r.expires.max(now + lifetime);
            }
        }
    }

    /// Invalidate the route to `dst`, bumping its sequence number so stale
    /// offers cannot resurrect it. Returns the `(dst, seq)` pair for a RERR
    /// if a usable route existed.
    pub fn invalidate(&mut self, dst: NodeId, now: SimTime) -> Option<(NodeId, u32)> {
        let r = self.routes.get_mut(&dst)?;
        let was_usable = r.usable(now);
        r.valid = false;
        r.seq = r.seq.saturating_add(1);
        was_usable.then_some((dst, r.seq))
    }

    /// Invalidate every route whose next hop is `neighbor`; returns the
    /// RERR payload for the routes that were actually usable, by
    /// destination (the table's own order differs from run to run).
    pub fn invalidate_via(&mut self, neighbor: NodeId, now: SimTime) -> Vec<(NodeId, u32)> {
        let mut dsts: Vec<NodeId> =
            self.routes.iter().filter(|(_, r)| r.next_hop == neighbor).map(|(&d, _)| d).collect();
        dsts.sort_unstable();
        dsts.into_iter().filter_map(|d| self.invalidate(d, now)).collect()
    }

    /// Record an RREQ `(origin, id)`; `true` if it is new (process it),
    /// `false` if it is a duplicate (drop it).
    pub fn note_rreq(&mut self, origin: NodeId, id: u32, now: SimTime, ttl: SimTime) -> bool {
        // Opportunistic purge keeps the set bounded without a timer event.
        if self.seen_rreqs.len() > 1024 {
            self.seen_rreqs.retain(|_, &mut exp| exp > now);
        }
        match self.seen_rreqs.get(&(origin, id)) {
            Some(&exp) if exp > now => false,
            _ => {
                self.seen_rreqs.insert((origin, id), now + ttl);
                true
            }
        }
    }

    /// Record having heard `from` at `now` (hello or any packet).
    pub fn hear(&mut self, from: NodeId, now: SimTime) {
        self.neighbors.insert(from, now);
    }

    /// Neighbors not heard from since `now - timeout`; they are removed
    /// from the table and returned, in node order, for route invalidation.
    pub fn expire_neighbors(&mut self, now: SimTime, timeout: SimTime) -> Vec<NodeId> {
        let mut stale: Vec<NodeId> = self
            .neighbors
            .iter()
            .filter(|(_, &last)| now - last > timeout)
            .map(|(&n, _)| n)
            .collect();
        stale.sort_unstable();
        for n in &stale {
            self.neighbors.remove(n);
        }
        stale
    }

    /// Current neighbor count (for diagnostics).
    pub fn neighbor_count(&self) -> usize {
        self.neighbors.len()
    }

    /// Number of routing-table entries (any state).
    pub fn table_size(&self) -> usize {
        self.routes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LT: SimTime = 10_000;

    #[test]
    fn offer_route_prefers_fresher_sequence() {
        let mut n = NodeState::new();
        assert!(n.offer_route(9, 1, 5, 3, 0, LT));
        // Older seq rejected.
        assert!(!n.offer_route(9, 2, 4, 1, 0, LT));
        assert_eq!(n.route(9, 0).unwrap().next_hop, 1);
        // Fresher seq accepted even with more hops.
        assert!(n.offer_route(9, 3, 6, 7, 0, LT));
        assert_eq!(n.route(9, 0).unwrap().next_hop, 3);
    }

    #[test]
    fn offer_route_prefers_shorter_at_equal_seq() {
        let mut n = NodeState::new();
        n.offer_route(9, 1, 5, 4, 0, LT);
        // Same seq, more hops: rejected.
        assert!(!n.offer_route(9, 2, 5, 6, 0, LT));
        // Same seq, fewer hops: accepted.
        assert!(n.offer_route(9, 2, 5, 2, 0, LT));
        assert_eq!(n.route(9, 0).unwrap().hops, 2);
    }

    #[test]
    fn same_next_hop_reinstall_is_not_a_change() {
        let mut n = NodeState::new();
        assert!(n.offer_route(9, 1, 5, 3, 0, LT));
        // Fresher seq via the same neighbor: accepted but not a "change".
        assert!(!n.offer_route(9, 1, 6, 3, 0, LT));
    }

    #[test]
    fn expiry_makes_route_unusable_but_replaceable() {
        let mut n = NodeState::new();
        n.offer_route(9, 1, 5, 3, 0, LT);
        assert!(n.route(9, LT - 1).is_some());
        assert!(n.route(9, LT).is_none());
        // An otherwise-worse offer is accepted once the entry is stale.
        assert!(n.offer_route(9, 2, 5, 9, LT + 1, LT));
        assert!(n.route(9, LT + 2).is_some());
    }

    #[test]
    fn refresh_extends_lifetime() {
        let mut n = NodeState::new();
        n.offer_route(9, 1, 5, 3, 0, LT);
        n.refresh_route(9, LT - 1, LT);
        assert!(n.route(9, LT + 100).is_some());
        // Refreshing an expired route does nothing.
        n.refresh_route(9, 3 * LT, LT);
        assert!(n.route(9, 3 * LT).is_none());
    }

    #[test]
    fn invalidate_bumps_seq_and_reports_once() {
        let mut n = NodeState::new();
        n.offer_route(9, 1, 5, 3, 0, LT);
        let rerr = n.invalidate(9, 1).unwrap();
        assert_eq!(rerr, (9, 6));
        // Already invalid: no second RERR payload.
        assert!(n.invalidate(9, 1).is_none());
        // Stale same-seq offer cannot resurrect it...
        assert!(n.route(9, 2).is_none());
        n.offer_route(9, 1, 5, 3, 2, LT);
        // ...the bumped seq (6) beats the old offer's (5); entry stays dead
        // until a fresh-enough seq arrives.
        assert!(n.route(9, 2).is_none() || n.route(9, 2).unwrap().seq >= 6);
    }

    #[test]
    fn invalidate_via_neighbor_sweeps_routes() {
        let mut n = NodeState::new();
        n.offer_route(7, 1, 5, 3, 0, LT);
        n.offer_route(8, 1, 2, 2, 0, LT);
        n.offer_route(9, 2, 9, 1, 0, LT);
        // Enough routes via neighbor 1 that a payload in hash-map order
        // would almost never come out sorted.
        for dst in (10..40).rev() {
            n.offer_route(dst, 1, 1, 1, 0, LT);
        }
        let rerr = n.invalidate_via(1, 0);
        let mut want = vec![(7, 6), (8, 3)];
        want.extend((10..40).map(|d| (d, 2)));
        assert_eq!(rerr, want);
        assert!(n.route(9, 0).is_some());
    }

    #[test]
    fn rreq_duplicate_suppression() {
        let mut n = NodeState::new();
        assert!(n.note_rreq(4, 1, 0, 5_000));
        assert!(!n.note_rreq(4, 1, 100, 5_000));
        assert!(n.note_rreq(4, 2, 100, 5_000));
        // After expiry, the same id is fresh again.
        assert!(n.note_rreq(4, 1, 6_000, 5_000));
    }

    #[test]
    fn neighbor_expiry() {
        let mut n = NodeState::new();
        n.hear(1, 0);
        n.hear(2, 900);
        for far in (10..40).rev() {
            n.hear(far, 0);
        }
        let stale = n.expire_neighbors(3_000, 2_500);
        let mut want = vec![1];
        want.extend(10..40);
        assert_eq!(stale, want);
        assert_eq!(n.neighbor_count(), 1);
    }
}
