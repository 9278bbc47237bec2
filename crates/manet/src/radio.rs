//! The shared radio: unit-disk connectivity over the nodes' movement
//! traces, as both the AODV and the DSDV simulator see it.

use crate::event::SimTime;
use crate::packet::NodeId;
use geosocial_geo::Point;
use geosocial_mobility::MovementTrace;

/// Node positions are sampled once per simulated second
/// (`position_at(t / 1_000)`), so the radio caches them per second and
/// recomputes only when an event lands in a new second.
pub(crate) struct Radio {
    traces: Vec<MovementTrace>,
    r2: f64,
    /// The simulated second `positions` belongs to.
    second: Option<SimTime>,
    positions: Vec<Point>,
}

impl Radio {
    /// A radio of range `range_m` over one movement trace per node.
    ///
    /// # Panics
    ///
    /// Panics if there are no traces or any trace is empty.
    pub(crate) fn new(traces: Vec<MovementTrace>, range_m: f64) -> Self {
        assert!(!traces.is_empty(), "need at least one node");
        for (i, t) in traces.iter().enumerate() {
            assert!(!t.is_empty(), "node {i} has an empty movement trace");
        }
        Self { traces, r2: range_m * range_m, second: None, positions: Vec::new() }
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.traces.len()
    }

    fn positions_at(&mut self, t: SimTime) -> &[Point] {
        let second = t / 1_000;
        if self.second != Some(second) {
            self.positions.clear();
            self.positions.extend(
                self.traces
                    .iter()
                    .map(|tr| tr.position_at(second).expect("traces validated non-empty")),
            );
            self.second = Some(second);
        }
        &self.positions
    }

    /// Whether `a` and `b` are within range of each other at `t`.
    pub(crate) fn in_range(&mut self, a: NodeId, b: NodeId, t: SimTime) -> bool {
        let r2 = self.r2;
        let pos = self.positions_at(t);
        pos[a].distance_sq(pos[b]) <= r2
    }

    /// Every other node within range of `node` at `t`, in node order.
    pub(crate) fn neighbors_of(&mut self, node: NodeId, t: SimTime) -> Vec<NodeId> {
        let r2 = self.r2;
        let pos = self.positions_at(t);
        let here = pos[node];
        (0..pos.len()).filter(|&n| n != node && pos[n].distance_sq(here) <= r2).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosocial_mobility::RandomWaypoint;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The reference: a node's position at `t`'s simulated second,
    /// computed directly from its trace.
    fn position(traces: &[MovementTrace], node: NodeId, t: SimTime) -> Point {
        traces[node].position_at(t / 1_000).unwrap()
    }

    #[test]
    fn cached_positions_match_the_uncached_formula_at_every_millisecond() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        // Fast nodes with no pauses: every node moves hundreds of meters a
        // second, so links flip from one sampled second to the next and a
        // stale cache entry shows up as a wrong answer.
        let rwp = RandomWaypoint { speed_min: 200.0, speed_max: 400.0, pause_min: 0, pause_max: 0 };
        let traces: Vec<_> = (0..12).map(|_| rwp.generate(3_000.0, 5, &mut rng)).collect();
        let end = traces.iter().map(|tr| tr.waypoints().last().unwrap().0).max().unwrap();
        let range = 1_000.0;
        let mut radio = Radio::new(traces.clone(), range);
        let mut changes = 0;
        let mut last = Vec::new();
        // 1 ms steps from just below the first second boundary to two
        // seconds past the end clamp, so every boundary t = k·1000 is hit.
        for t in 990..(end + 2) * 1_000 + 10 {
            let mut adjacency = Vec::new();
            for node in 0..traces.len() {
                let here = position(&traces, node, t);
                let direct: Vec<bool> = (0..traces.len())
                    .map(|n| position(&traces, n, t).distance_sq(here) <= range * range)
                    .collect();
                for (other, &linked) in direct.iter().enumerate() {
                    assert_eq!(
                        radio.in_range(node, other, t),
                        linked,
                        "in_range({node}, {other}, {t})"
                    );
                }
                let want: Vec<NodeId> =
                    (0..traces.len()).filter(|&n| n != node && direct[n]).collect();
                let got = radio.neighbors_of(node, t);
                assert_eq!(got, want, "neighbors_of({node}, {t})");
                adjacency.push(got);
            }
            if adjacency != last {
                changes += 1;
                last = adjacency;
            }
        }
        assert!(changes > 3, "the topology changed {changes} times: the test proves nothing");
    }

    #[test]
    #[should_panic(expected = "empty movement trace")]
    fn empty_trace_rejected() {
        Radio::new(vec![MovementTrace::new(Vec::new())], 1.0);
    }
}
