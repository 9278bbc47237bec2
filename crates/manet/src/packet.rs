//! AODV packet formats (RFC 3561 subset).

/// Index of a node in the simulator's node array.
pub type NodeId = usize;

/// Over-the-air message types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// Route request, flooded toward the destination.
    Rreq {
        /// The node that wants a route.
        origin: NodeId,
        /// Originator-scoped request id (for duplicate suppression).
        rreq_id: u32,
        /// The destination sought.
        dst: NodeId,
        /// Originator's sequence number (for reverse-route freshness).
        origin_seq: u32,
        /// Last known destination sequence number (0 = unknown).
        dst_seq: u32,
        /// Hops traveled so far.
        hop_count: u8,
        /// Remaining time-to-live.
        ttl: u8,
    },
    /// Route reply, unicast back along the reverse path.
    Rrep {
        /// The node the reply is heading to (the RREQ's originator).
        origin: NodeId,
        /// The destination the route leads to.
        dst: NodeId,
        /// Destination's sequence number at reply time.
        dst_seq: u32,
        /// Hops from the replying node to `dst` so far.
        hop_count: u8,
    },
    /// Route error: the listed destinations became unreachable.
    Rerr {
        /// `(destination, its last known sequence number)` pairs.
        unreachable: Vec<(NodeId, u32)>,
        /// Bounded re-broadcast budget (substitute for precursor lists).
        ttl: u8,
    },
    /// Link-sensing beacon.
    Hello {
        /// Sender's current sequence number.
        seq: u32,
    },
    /// Application payload (one CBR packet).
    Data {
        /// Originating node.
        src: NodeId,
        /// Final destination.
        dst: NodeId,
        /// Per-pair packet sequence number.
        seq: u64,
        /// Remaining hop budget (guards against forwarding loops).
        ttl: u8,
    },
}
