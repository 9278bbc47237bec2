//! Plain-data exports of the streaming operators' internal state.
//!
//! A durable snapshot of a live audit (see the serving layer's event
//! store) must capture *everything* an [`crate::OnlineAuditor`] knows that
//! is not derivable from its configuration: the open stay window, the
//! rolling evidence fixes, unretired visits and their dedup incumbents,
//! pending checkins with their pipeline stage, and the rolling
//! composition. These structs are that state, exhaustively, as plain data
//! — no `VecDeque`s, no projections — so a byte codec can serialize them
//! and [`crate::OnlineAuditor::restore`] can rebuild an auditor that
//! continues **bit-identically** to one that was never serialized (locals
//! are re-derived through the same `LocalProjection`, so every float is
//! reproduced exactly).
//!
//! Configuration ([`crate::AuditConfig`]) is *not* part of the export: the
//! restoring side constructs auditors from its own config, which must
//! match the exporting side's — the same contract the batch/stream
//! equivalence already relies on.

use crate::auditor::{AuditVerdict, StreamComposition};
use geosocial_trace::{Checkin, GpsPoint, Timestamp, UserId, Visit};

/// State of an [`crate::OnlineVisitDetector`].
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorState {
    /// Pending fixes; the front one anchors the open stay window.
    pub buffer: Vec<GpsPoint>,
    /// Length of the validated window prefix of `buffer`.
    pub validated: usize,
    /// Whether the window broke mid-buffer and must close.
    pub broke: bool,
    /// Visits emitted but not yet popped by the auditor.
    pub emitted: Vec<Visit>,
    /// Lifetime visit count (the next visit's chronological index).
    pub emitted_total: usize,
    /// Largest fix timestamp ingested.
    pub frontier: Option<Timestamp>,
    /// Out-of-order fixes dropped.
    pub late_dropped: usize,
    /// Windows force-closed by the state budget.
    pub forced_closures: usize,
    /// Whether `finish` ran.
    pub finished: bool,
}

/// Pipeline stage of a pending checkin (no `Done`: finalized entries are
/// swept before any state export).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageState {
    /// Waiting for a provably complete candidate-visit set.
    Candidate,
    /// Contesting the visit with this chronological index.
    Dedup(usize),
    /// Extraneous; waiting for classification evidence.
    Classify,
}

/// One pending checkin (its local projection is re-derived on restore).
#[derive(Debug, Clone, PartialEq)]
pub struct PendingCheckinState {
    /// Chronological checkin index.
    pub index: usize,
    /// The checkin itself.
    pub checkin: Checkin,
    /// Where it sits in the finalization pipeline.
    pub stage: StageState,
}

/// One emitted, unretired visit with its dedup bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackedVisitState {
    /// Chronological visit index.
    pub index: usize,
    /// The visit.
    pub visit: Visit,
    /// Current dedup incumbent: `(checkin index, distance in meters)`.
    pub winner: Option<(usize, f64)>,
    /// Whether the winner is final.
    pub resolved: bool,
}

/// Complete exported state of an [`crate::OnlineAuditor`].
#[derive(Debug, Clone, PartialEq)]
pub struct AuditorState {
    /// The audited user.
    pub user: UserId,
    /// The embedded visit detector's state.
    pub detector: DetectorState,
    /// Rolling classification-evidence fixes, chronological.
    pub gps_window: Vec<GpsPoint>,
    /// Timestamp of the newest admitted fix.
    pub last_gps_t: Option<Timestamp>,
    /// Emitted, unretired visits in chronological order.
    pub visits: Vec<TrackedVisitState>,
    /// Chronological index of the next adopted visit.
    pub next_visit_index: usize,
    /// Pending checkins in chronological order.
    pub pending: Vec<PendingCheckinState>,
    /// Checkins ingested (the next checkin's chronological index).
    pub checkin_count: usize,
    /// Timestamp of the last event fed into the core.
    pub frontier: Timestamp,
    /// Finalized verdicts not yet drained by the caller.
    pub verdicts: Vec<AuditVerdict>,
    /// Rolling composition counters.
    pub comp: StreamComposition,
    /// Whether `finish` ran.
    pub finished: bool,
}
