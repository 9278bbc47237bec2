//! The discrete-event core: a time-ordered queue with deterministic
//! tie-breaking.

use crate::packet::{NodeId, Packet};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation time in milliseconds.
pub type SimTime = i64;

/// Everything that can happen in the AODV simulator (DSDV schedules its
/// own event type on the same [`EventQueue`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A node's periodic hello beacon fires.
    Hello(NodeId),
    /// A node checks its neighbor table for silent links.
    LinkCheck(NodeId),
    /// CBR source of pair `pair` emits its next data packet.
    CbrSend {
        /// Index into the simulator's pair list.
        pair: usize,
    },
    /// A transmitted packet arrives at `to` (sent by `from`).
    Deliver {
        /// Receiving node.
        to: NodeId,
        /// Transmitting node.
        from: NodeId,
        /// The packet.
        packet: Packet,
    },
    /// Route discovery for `dst` at `node` timed out (attempt number given).
    RreqTimeout {
        /// The requesting node.
        node: NodeId,
        /// The destination being discovered.
        dst: NodeId,
        /// Which attempt this timeout guards.
        attempt: u32,
    },
    /// Periodic metrics sampling tick.
    Sample,
}

/// A scheduled event.
#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    /// Monotone sequence number: equal-time events fire in scheduling
    /// order, making runs bit-for-bit reproducible.
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic future-event list over any event type; both the AODV
/// and the DSDV simulator run on it.
///
/// # Example
///
/// ```
/// use geosocial_manet::{EventKind, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule(20, EventKind::Sample);
/// q.schedule(10, EventKind::Hello(0));
/// q.schedule(10, EventKind::Hello(1)); // same time: FIFO order
/// assert_eq!(q.pop(), Some((10, EventKind::Hello(0))));
/// assert_eq!(q.pop(), Some((10, EventKind::Hello(1))));
/// assert_eq!(q.pop(), Some((20, EventKind::Sample)));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E = EventKind> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self { heap: BinaryHeap::new(), next_seq: 0, now: 0 }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is before the last popped event's time — an event
    /// scheduled into the past is always a simulator bug.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        assert!(time >= self.now, "scheduling into the past: {time} < {}", self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Scheduled { time, seq, event }));
    }

    /// Pop the next event with its time. `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(ev) = self.heap.pop()?;
        self.now = ev.time;
        Some((ev.time, ev.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.schedule(5, EventKind::Sample);
        q.schedule(1, EventKind::Hello(7));
        q.schedule(5, EventKind::Hello(1));
        q.schedule(3, EventKind::LinkCheck(2));
        let order: Vec<SimTime> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(order, vec![1, 3, 5, 5]);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.schedule(10, EventKind::Sample);
        q.pop();
        q.schedule(5, EventKind::Sample);
    }
}
