#![warn(missing_docs)]

//! A deterministic discrete-event MANET simulator with AODV routing.
//!
//! This crate replaces the paper's NS-2/AODV setup (§6.2): 200 mobile nodes
//! in a square field, 1 km radio range, 100 CBR source–destination pairs,
//! reporting the three Figure-8 metrics — **route-change frequency**,
//! **route availability ratio** and **routing overhead** (routing packets
//! per delivered data packet).
//!
//! Design notes (following the event-driven, no-surprises style of the
//! networking guides):
//!
//! * **Synchronous discrete-event core** — a binary-heap [`EventQueue`]
//!   with a deterministic (time, scheduling order) tie-break, shared by
//!   the AODV and DSDV simulators; no async runtime (the workload is
//!   CPU-bound simulation, exactly the case the tokio guide advises
//!   against an async runtime for).
//! * **AODV subset** (RFC 3561): RREQ flooding with id-based duplicate
//!   suppression and TTL, destination and intermediate RREP with
//!   sequence-number freshness, RERR propagation on link breaks, hello
//!   beacons for link sensing, per-route lifetimes, source buffering with
//!   bounded RREQ retries. Omitted: expanding-ring search, precursor
//!   lists (RERRs use a bounded re-broadcast instead), local repair —
//!   none of which change the metric *shapes* the experiment compares.
//! * **Ideal radio** — unit-disk connectivity over node positions sampled
//!   once per simulated second (computed once per second and shared by
//!   every transmission in it), constant per-hop latency plus
//!   deterministic jitter; no collisions or fading. The paper's comparison is *between mobility inputs*, so the
//!   radio model cancels out.
//!
//! Mobility comes in as [`MovementTrace`]s — one per node — produced by any
//! of the `geosocial-mobility` models, which is exactly how the paper
//! drives NS-2 from its three fitted Levy-Walk models.
//!
//! [`MovementTrace`]: geosocial_mobility::MovementTrace

mod aodv;
pub mod dsdv;
mod event;
mod metrics;
mod packet;
mod radio;
mod sim;

pub use aodv::{NodeState, RouteEntry};
pub use dsdv::{DsdvConfig, DsdvSimulator};
pub use event::{EventKind, EventQueue, SimTime};
pub use metrics::{MetricsReport, PairMetrics};
pub use packet::{NodeId, Packet};
pub use sim::{SimConfig, Simulator};
