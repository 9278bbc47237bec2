//! Cohort-level streaming: many users, one merged event stream.
//!
//! [`CohortAuditor`] routes a merged event stream to per-user
//! [`OnlineAuditor`]s — the same structure the serving layer shards across
//! worker threads. [`dataset_events`] linearizes a batch [`Dataset`] into
//! the event stream a deployed collector would have produced: globally
//! sorted by event time, per-user per-stream order preserved.

use geosocial_trace::{Checkin, Dataset, GpsPoint, Timestamp, UserId};
use std::collections::HashMap;

use crate::auditor::{AuditConfig, AuditVerdict, OnlineAuditor, StreamComposition};

/// One event of the merged cohort stream.
#[derive(Debug, Clone)]
pub enum StreamEvent {
    /// A GPS fix of one user.
    Gps {
        /// The reporting user.
        user: UserId,
        /// The fix.
        point: GpsPoint,
    },
    /// A checkin of one user.
    Checkin {
        /// The reporting user.
        user: UserId,
        /// The checkin.
        checkin: Checkin,
    },
}

impl StreamEvent {
    /// The event's time.
    pub fn t(&self) -> Timestamp {
        match self {
            StreamEvent::Gps { point, .. } => point.t,
            StreamEvent::Checkin { checkin, .. } => checkin.t,
        }
    }

    /// The reporting user.
    pub fn user(&self) -> UserId {
        match self {
            StreamEvent::Gps { user, .. } | StreamEvent::Checkin { user, .. } => *user,
        }
    }
}

/// Linearize a dataset into the event stream a live collector would have
/// delivered: globally ordered by event time (ties: user id, then GPS
/// before checkin), with each user's per-stream order intact — exactly the
/// in-order delivery the online/batch equivalence argument assumes.
pub fn dataset_events(ds: &Dataset) -> Vec<StreamEvent> {
    let mut evs = Vec::new();
    for u in &ds.users {
        for &p in u.gps.points() {
            evs.push(StreamEvent::Gps { user: u.id, point: p });
        }
        for c in &u.checkins {
            evs.push(StreamEvent::Checkin { user: u.id, checkin: *c });
        }
    }
    let rank = |e: &StreamEvent| match e {
        StreamEvent::Gps { .. } => 0u8,
        StreamEvent::Checkin { .. } => 1u8,
    };
    // Stable: equal-keyed checkins keep their generation (= batch) order.
    evs.sort_by_key(|a| (a.t(), a.user(), rank(a)));
    evs
}

/// Audit a time window in isolation: feed each user's events with
/// `t ∈ [t0, t1]` (already per-user in-order) into a fresh auditor and
/// finish it, returning per-user compositions sorted by user id.
///
/// This is the primitive behind the serving layer's `Window` request —
/// *cohort composition over a historical interval* — answered from the
/// event store's log while live ingest keeps running. With
/// `t1 = ∞, t0 = -∞` it degenerates to a full replay; with `t1` at a past
/// watermark it equals the batch pipeline truncated there (the as-of
/// equivalence the time-travel experiment checks).
pub fn window_compositions(
    events: &[StreamEvent],
    cfg: &AuditConfig,
    t0: Timestamp,
    t1: Timestamp,
) -> Vec<StreamComposition> {
    let mut cohort = CohortAuditor::new(cfg.clone());
    for ev in events {
        if ev.t() < t0 || ev.t() > t1 {
            continue;
        }
        cohort.push(ev.clone());
    }
    cohort.finish();
    cohort.compositions()
}

/// Per-user online auditors behind a single ingest facade.
#[derive(Debug)]
pub struct CohortAuditor {
    cfg: AuditConfig,
    users: HashMap<UserId, OnlineAuditor>,
    verdicts: Vec<AuditVerdict>,
    finished: bool,
}

impl CohortAuditor {
    /// A cohort auditor applying `cfg` to every user.
    pub fn new(cfg: AuditConfig) -> Self {
        Self { cfg, users: HashMap::new(), verdicts: Vec::new(), finished: false }
    }

    fn auditor(&mut self, user: UserId) -> &mut OnlineAuditor {
        let cfg = &self.cfg;
        self.users.entry(user).or_insert_with(|| OnlineAuditor::new(user, cfg.clone()))
    }

    /// Ingest one event, collecting any verdicts it finalizes.
    pub fn push(&mut self, ev: StreamEvent) {
        match ev {
            StreamEvent::Gps { user, point } => self.push_gps(user, point),
            StreamEvent::Checkin { user, checkin } => self.push_checkin(user, checkin),
        }
    }

    /// Ingest one GPS fix for `user`.
    pub fn push_gps(&mut self, user: UserId, p: GpsPoint) {
        assert!(!self.finished, "push after finish");
        let a = self.auditor(user);
        a.push_gps(p);
        let new: Vec<AuditVerdict> = a.drain_verdicts().collect();
        self.verdicts.extend(new);
    }

    /// Ingest one checkin for `user`.
    pub fn push_checkin(&mut self, user: UserId, c: Checkin) {
        assert!(!self.finished, "push after finish");
        let a = self.auditor(user);
        a.push_checkin(c);
        let new: Vec<AuditVerdict> = a.drain_verdicts().collect();
        self.verdicts.extend(new);
    }

    /// End of stream for every user; all verdicts finalize.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let mut ids: Vec<UserId> = self.users.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let a = self.users.get_mut(&id).expect("known user");
            a.finish();
            let new: Vec<AuditVerdict> = a.drain_verdicts().collect();
            self.verdicts.extend(new);
        }
    }

    /// Take the verdicts finalized so far, in finalization order.
    pub fn take_verdicts(&mut self) -> Vec<AuditVerdict> {
        std::mem::take(&mut self.verdicts)
    }

    /// Per-user composition snapshots, sorted by user id.
    pub fn compositions(&self) -> Vec<StreamComposition> {
        let mut out: Vec<StreamComposition> =
            self.users.values().map(|a| a.composition()).collect();
        out.sort_by_key(|c| c.user);
        out
    }

    /// Cohort-wide aggregate composition (its `user` field is meaningless).
    pub fn total(&self) -> StreamComposition {
        let mut total = StreamComposition::default();
        for a in self.users.values() {
            total.merge(&a.composition());
        }
        total
    }

    /// Number of users seen.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }
}
