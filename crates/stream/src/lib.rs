//! Online (incremental) visit detection and checkin-validity auditing.
//!
//! The batch pipeline in `geosocial-core` answers the paper's question —
//! *what fraction of geosocial checkins correspond to real visits?* — over
//! a complete, collected dataset. This crate answers it **while the data is
//! still arriving**: GPS fixes and checkins stream in as timestamped
//! events, and every checkin receives its verdict (honest, superfluous,
//! remote, driveby, unclassified) as soon as the event-time watermark
//! proves no future event can change it.
//!
//! Every operator reads each user's stream in event-time order, the order
//! the batch pipeline sorts into: an event older than the user's fed
//! frontier is dropped and counted in `late_dropped`, never reordered. The
//! serving layer delivers that order per user with sequence numbers.
//!
//! Layers, bottom up:
//!
//! * [`OnlineVisitDetector`] — incremental §3 stay-point detection, same
//!   extension/closure rules as the batch detector (shared code, not a
//!   reimplementation), identical output for in-order input;
//! * [`OnlineAuditor`] — per-user incremental matching (§4.1) and
//!   classification (§5.1) with bounded state, exactly reproducing the
//!   batch composition for in-order delivery;
//! * [`CohortAuditor`] — many users behind one ingest facade, the unit the
//!   `geosocial-serve` TCP layer shards across worker threads;
//! * [`equivalence_report`] — replays a batch dataset through the streaming
//!   path and diffs every per-user count against the batch pipeline: the
//!   subsystem's correctness anchor.
//!
//! For durable crash recovery the auditor state is exportable as plain
//! data ([`snapshot`], [`OnlineAuditor::export_state`] /
//! [`OnlineAuditor::restore`]): a restored auditor continues
//! bit-identically to one that was never serialized.

mod auditor;
mod cohort;
mod detector;
mod equivalence;
pub mod snapshot;

/// Cached handles to the crate's exported stream-health metrics (see the
/// README's Observability section for the full series list). Handles are
/// process-global: every auditor and detector in the process feeds the
/// same series.
pub(crate) mod metrics {
    use geosocial_obs::{counter, Counter};
    use std::sync::{Arc, OnceLock};

    /// Events dropped for arriving behind the fed frontier — auditor and
    /// detector drop sites combined, matching the `late_dropped`
    /// composition totals 1:1.
    pub(crate) fn late_dropped() -> &'static Counter {
        static H: OnceLock<Arc<Counter>> = OnceLock::new();
        H.get_or_init(|| counter("stream.late_dropped"))
    }

    /// Checkins force-finalized by the per-user pending budget.
    pub(crate) fn forced_finalize() -> &'static Counter {
        static H: OnceLock<Arc<Counter>> = OnceLock::new();
        H.get_or_init(|| counter("stream.forced_finalize"))
    }

    /// Stay windows force-closed by the detector's fix budget.
    pub(crate) fn forced_closures() -> &'static Counter {
        static H: OnceLock<Arc<Counter>> = OnceLock::new();
        H.get_or_init(|| counter("stream.forced_closures"))
    }
}

pub use auditor::{AuditConfig, AuditVerdict, OnlineAuditor, StreamComposition, VerdictKind};
pub use cohort::{dataset_events, window_compositions, CohortAuditor, StreamEvent};
pub use detector::OnlineVisitDetector;
pub use equivalence::{
    equivalence_report, replay_config, stream_compositions, EquivalenceReport, Mismatch,
};
