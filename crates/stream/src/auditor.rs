//! Online checkin-validity auditing.
//!
//! [`OnlineAuditor`] consumes one user's merged GPS + checkin event stream
//! in event-time order and classifies every checkin into the paper's
//! taxonomy — honest, superfluous, remote, driveby, unclassified — plus the
//! per-visit *missing* verdicts, **incrementally**, with bounded state.
//!
//! # Equivalence with the batch pipeline
//!
//! The batch pipeline (`match_checkins` → `classify_extraneous`) sees a
//! user's whole history at once. The auditor reproduces its output exactly
//! for in-order delivery by deferring each decision until the event-time
//! watermark proves no future event can change it:
//!
//! * a checkin's **candidate visit** is chosen once every visit that could
//!   lie within β of it is known — i.e. the GPS frontier has passed
//!   `t + β` and the visit detector holds no open window anchored before
//!   `t + β`;
//! * a visit's **winner** (the §4.1 dedup: geographically closest checkin,
//!   ties to the earlier one) is fixed once the stream frontier passes
//!   `visit.end + β` and every earlier checkin has registered its candidacy;
//! * an extraneous checkin is **classified** once a fix after its timestamp
//!   exists (the interpolation/speed brackets are then complete — all §5.1
//!   evidence rules only consult the fixes surrounding the checkin).
//!
//! All threshold logic is shared with the batch path
//! ([`geosocial_core::matching::prefer_candidate`],
//! [`geosocial_core::matching::challenger_wins`],
//! [`geosocial_core::classify::classify_against`],
//! [`geosocial_trace::extends_stay`] …), so equivalence is structural, not
//! coincidental.
//!
//! # Streaming concerns
//!
//! Late events (older than the fed frontier) are dropped and counted, never
//! reordered: delivery order is the caller's contract. Per-user state —
//! pending checkins, the rolling fix window, unretired visits — is bounded
//! by the configured budgets; exceeding them force-finalizes the oldest
//! pending checkin with the evidence at hand (counted, and documented as
//! the only divergence from batch output).

use geosocial_core::classify::{classify_against, ClassifyConfig, ExtraneousKind};
use geosocial_core::matching::{
    challenger_wins, prefer_candidate, within_beta, Candidate, MatchConfig,
};
use geosocial_geo::{LatLon, LocalProjection, Point};
use geosocial_trace::{Checkin, GpsPoint, Timestamp, UserId, Visit, VisitConfig};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

use crate::detector::OnlineVisitDetector;

/// Configuration of the online audit: the paper's thresholds plus the
/// streaming-only knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AuditConfig {
    /// α/β matching thresholds (paper: 500 m / 30 min).
    pub match_config: MatchConfig,
    /// §5.1 classification thresholds.
    pub classify: ClassifyConfig,
    /// Stay-point detection rules (must match the batch visit detector for
    /// equivalence).
    pub visit: VisitConfig,
    /// Origin of the local projection used for α distances. Must equal the
    /// batch dataset's `PoiUniverse` projection origin for exact
    /// equivalence.
    pub origin: LatLon,
    /// Per-user budget: maximum checkins awaiting finalization before the
    /// oldest is force-finalized with current evidence.
    pub max_pending_checkins: usize,
    /// Per-user budget: maximum fixes buffered inside an open stay window.
    pub max_pending_fixes: usize,
}

impl AuditConfig {
    /// Paper-default thresholds with a local projection anchored at
    /// `origin`.
    pub fn paper(origin: LatLon) -> Self {
        Self {
            match_config: MatchConfig::paper(),
            classify: ClassifyConfig::default(),
            visit: VisitConfig::default(),
            origin,
            max_pending_checkins: 4_096,
            max_pending_fixes: 65_536,
        }
    }
}

/// The audit verdict taxonomy: honest plus the four §5.1 extraneous kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VerdictKind {
    /// Checkin matched to a GPS visit.
    Honest,
    /// Extraneous — fired from the true location at a venue not visited.
    Superfluous,
    /// Extraneous — POI > 500 m from the user's true position.
    Remote,
    /// Extraneous — fired while moving above the speed threshold.
    Driveby,
    /// Extraneous — no usable GPS evidence.
    Unclassified,
}

impl VerdictKind {
    /// Display label used in reports and the wire protocol.
    pub fn label(self) -> &'static str {
        match self {
            VerdictKind::Honest => "Honest",
            VerdictKind::Superfluous => "Superfluous",
            VerdictKind::Remote => "Remote",
            VerdictKind::Driveby => "Driveby",
            VerdictKind::Unclassified => "Unclassified",
        }
    }
}

impl From<ExtraneousKind> for VerdictKind {
    fn from(k: ExtraneousKind) -> Self {
        match k {
            ExtraneousKind::Superfluous => VerdictKind::Superfluous,
            ExtraneousKind::Remote => VerdictKind::Remote,
            ExtraneousKind::Driveby => VerdictKind::Driveby,
            ExtraneousKind::Unclassified => VerdictKind::Unclassified,
        }
    }
}

impl std::fmt::Display for VerdictKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One finalized checkin verdict.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AuditVerdict {
    /// The owning user.
    pub user: UserId,
    /// Index of the checkin in the user's chronological stream — equal to
    /// the batch `CheckinRef::index` for in-order delivery.
    pub checkin_index: usize,
    /// The checkin's event time.
    pub t: Timestamp,
    /// The verdict.
    pub kind: VerdictKind,
    /// For honest verdicts: the certified visit's chronological index
    /// (batch `VisitRef::index`).
    pub visit_index: Option<usize>,
    /// For honest verdicts: spatial distance to the visit centroid, meters.
    pub distance_m: f64,
    /// For honest verdicts: footnote-2 temporal distance, seconds.
    pub dt_s: i64,
}

/// Rolling per-user composition — the streaming counterpart of the batch
/// `UserComposition`, plus visit-side and stream-health counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamComposition {
    /// The user.
    pub user: UserId,
    /// Checkins ingested.
    pub total_checkins: usize,
    /// Finalized honest checkins.
    pub honest: usize,
    /// Finalized superfluous checkins.
    pub superfluous: usize,
    /// Finalized remote checkins.
    pub remote: usize,
    /// Finalized driveby checkins.
    pub driveby: usize,
    /// Finalized unclassified checkins.
    pub unclassified: usize,
    /// Visits emitted by the online detector.
    pub visits_total: usize,
    /// Finalized visits no checkin certified.
    pub missing_visits: usize,
    /// Checkins still awaiting finalization.
    pub pending_checkins: usize,
    /// Late/duplicate events dropped (GPS + checkin).
    pub late_dropped: usize,
    /// Checkins force-finalized by the state budget.
    pub forced: usize,
}

impl StreamComposition {
    /// Finalized extraneous checkins.
    pub fn extraneous(&self) -> usize {
        self.superfluous + self.remote + self.driveby + self.unclassified
    }

    /// Tally one verdict.
    fn add(&mut self, kind: VerdictKind) {
        match kind {
            VerdictKind::Honest => self.honest += 1,
            VerdictKind::Superfluous => self.superfluous += 1,
            VerdictKind::Remote => self.remote += 1,
            VerdictKind::Driveby => self.driveby += 1,
            VerdictKind::Unclassified => self.unclassified += 1,
        }
    }

    /// Merge another user's composition into a cohort aggregate (the
    /// `user` field keeps the receiver's id).
    pub fn merge(&mut self, o: &StreamComposition) {
        self.total_checkins += o.total_checkins;
        self.honest += o.honest;
        self.superfluous += o.superfluous;
        self.remote += o.remote;
        self.driveby += o.driveby;
        self.unclassified += o.unclassified;
        self.visits_total += o.visits_total;
        self.missing_visits += o.missing_visits;
        self.pending_checkins += o.pending_checkins;
        self.late_dropped += o.late_dropped;
        self.forced += o.forced;
    }
}

/// Where a pending checkin sits in the finalization pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stage {
    /// Waiting for its candidate-visit set to be provably complete.
    Candidate,
    /// Contesting the tracked visit with this chronological index; waiting
    /// for the visit's winner to be fixed.
    Dedup(usize),
    /// Extraneous; waiting for classification evidence.
    Classify,
    /// Verdict emitted; entry awaits sweeping.
    Done,
}

#[derive(Debug, Clone)]
struct PendingCheckin {
    index: usize,
    checkin: Checkin,
    local: Point,
    stage: Stage,
}

#[derive(Debug, Clone)]
struct TrackedVisit {
    /// Chronological index — equal to the batch visit index.
    index: usize,
    visit: Visit,
    local: Point,
    /// Current dedup incumbent: `(checkin index, distance)`.
    winner: Option<(usize, f64)>,
    resolved: bool,
}

/// Incremental per-user auditor. See the module docs for the equivalence
/// argument.
#[derive(Debug, Clone)]
pub struct OnlineAuditor {
    user: UserId,
    cfg: AuditConfig,
    proj: LocalProjection,
    detector: OnlineVisitDetector,
    /// Rolling fix window: all fixes still needed as classification
    /// evidence for pending checkins, chronologically sorted.
    gps_window: VecDeque<GpsPoint>,
    last_gps_t: Option<Timestamp>,
    /// Emitted, unretired visits in chronological order.
    visits: VecDeque<TrackedVisit>,
    next_visit_index: usize,
    pending: VecDeque<PendingCheckin>,
    checkin_count: usize,
    /// Timestamp of the last event fed into the core (the fed frontier):
    /// in-order delivery means every future event is at or after it.
    frontier: Timestamp,
    verdicts: VecDeque<AuditVerdict>,
    comp: StreamComposition,
    finished: bool,
}

impl OnlineAuditor {
    /// A fresh auditor for `user`.
    pub fn new(user: UserId, cfg: AuditConfig) -> Self {
        let proj = LocalProjection::new(cfg.origin);
        let detector = OnlineVisitDetector::new(cfg.visit).with_state_budget(cfg.max_pending_fixes);
        Self {
            user,
            cfg,
            proj,
            detector,
            gps_window: VecDeque::new(),
            last_gps_t: None,
            visits: VecDeque::new(),
            next_visit_index: 0,
            pending: VecDeque::new(),
            checkin_count: 0,
            frontier: i64::MIN,
            verdicts: VecDeque::new(),
            comp: StreamComposition { user, ..Default::default() },
            finished: false,
        }
    }

    /// Ingest one GPS fix. Event-time order is expected: a fix at or
    /// before the newest admitted fix, or behind the fed frontier, is
    /// dropped and counted in `late_dropped`.
    pub fn push_gps(&mut self, p: GpsPoint) {
        assert!(!self.finished, "push after finish");
        if p.t < self.frontier || self.last_gps_t.is_some_and(|g| p.t <= g) {
            self.drop_late();
            return;
        }
        self.frontier = p.t;
        self.last_gps_t = Some(p.t);
        self.gps_window.push_back(p);
        self.detector.push(p);
        self.advance(false);
        self.enforce_budget();
    }

    /// Ingest one checkin (same ordering contract as [`Self::push_gps`];
    /// equal timestamps are kept in arrival order, matching the batch
    /// stable sort).
    pub fn push_checkin(&mut self, c: Checkin) {
        assert!(!self.finished, "push after finish");
        if c.t < self.frontier {
            self.drop_late();
            return;
        }
        self.frontier = c.t;
        let local = self.proj.to_local(c.location);
        self.pending.push_back(PendingCheckin {
            index: self.checkin_count,
            checkin: c,
            local,
            stage: Stage::Candidate,
        });
        self.checkin_count += 1;
        self.comp.total_checkins += 1;
        self.advance(false);
        self.enforce_budget();
    }

    /// End of stream: flush the open stay window, then finalize every
    /// pending verdict. After this the auditor's composition equals the
    /// batch composition (for in-order delivery within the state budgets).
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.detector.finish();
        self.advance(true);
        debug_assert!(self.pending.is_empty(), "finish leaves no pending checkins");
        debug_assert!(self.visits.iter().all(|v| v.resolved), "finish resolves all visits");
    }

    /// Count one event dropped for arriving out of order. The state is
    /// untouched, so there is nothing to advance.
    fn drop_late(&mut self) {
        self.comp.late_dropped += 1;
        crate::metrics::late_dropped().inc();
    }

    /// Drain finalized verdicts, in finalization order.
    pub fn drain_verdicts(&mut self) -> std::collections::vec_deque::Drain<'_, AuditVerdict> {
        self.verdicts.drain(..)
    }

    /// Current composition snapshot (counts only finalized verdicts).
    pub fn composition(&self) -> StreamComposition {
        let mut c = self.comp;
        c.pending_checkins = self.pending.len();
        c.late_dropped += self.detector.late_dropped();
        c
    }

    /// The user this auditor audits.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// Buffered state size: pending checkins + rolling fixes + open-window
    /// fixes + unretired visits (budget observability).
    pub fn state_size(&self) -> usize {
        self.pending.len() + self.gps_window.len() + self.detector.pending_len() + self.visits.len()
    }

    /// Export the auditor's complete mutable state as plain data for a
    /// durable snapshot. Everything derivable from the config — the
    /// projection, thresholds, budgets, local coordinates — is omitted and
    /// re-derived on [`Self::restore`], which makes the roundtrip
    /// bit-exact under an identical config.
    pub fn export_state(&self) -> crate::snapshot::AuditorState {
        use crate::snapshot::{PendingCheckinState, StageState, TrackedVisitState};
        crate::snapshot::AuditorState {
            user: self.user,
            detector: self.detector.export_state(),
            gps_window: self.gps_window.iter().copied().collect(),
            last_gps_t: self.last_gps_t,
            visits: self
                .visits
                .iter()
                .map(|tv| TrackedVisitState {
                    index: tv.index,
                    visit: tv.visit,
                    winner: tv.winner,
                    resolved: tv.resolved,
                })
                .collect(),
            next_visit_index: self.next_visit_index,
            pending: self
                .pending
                .iter()
                .map(|pc| PendingCheckinState {
                    index: pc.index,
                    checkin: pc.checkin,
                    stage: match pc.stage {
                        Stage::Candidate => StageState::Candidate,
                        Stage::Dedup(vi) => StageState::Dedup(vi),
                        Stage::Classify => StageState::Classify,
                        Stage::Done => unreachable!("Done entries are swept before export"),
                    },
                })
                .collect(),
            checkin_count: self.checkin_count,
            frontier: self.frontier,
            verdicts: self.verdicts.iter().copied().collect(),
            comp: self.comp,
            finished: self.finished,
        }
    }

    /// Rebuild an auditor from an exported state under `cfg` (which must
    /// equal the exporting side's config). The restored auditor's
    /// observable behaviour — verdicts, compositions, every float — is
    /// bit-identical to one that was never exported.
    pub fn restore(cfg: AuditConfig, state: crate::snapshot::AuditorState) -> Self {
        use crate::snapshot::StageState;
        let proj = LocalProjection::new(cfg.origin);
        let detector =
            OnlineVisitDetector::restore(cfg.visit, cfg.max_pending_fixes, state.detector);
        let visits = state
            .visits
            .into_iter()
            .map(|tv| TrackedVisit {
                index: tv.index,
                local: proj.to_local(tv.visit.centroid),
                visit: tv.visit,
                winner: tv.winner,
                resolved: tv.resolved,
            })
            .collect();
        let pending = state
            .pending
            .into_iter()
            .map(|pc| PendingCheckin {
                index: pc.index,
                local: proj.to_local(pc.checkin.location),
                checkin: pc.checkin,
                stage: match pc.stage {
                    StageState::Candidate => Stage::Candidate,
                    StageState::Dedup(vi) => Stage::Dedup(vi),
                    StageState::Classify => Stage::Classify,
                },
            })
            .collect();
        Self {
            user: state.user,
            cfg,
            proj,
            detector,
            gps_window: state.gps_window.into(),
            last_gps_t: state.last_gps_t,
            visits,
            next_visit_index: state.next_visit_index,
            pending,
            checkin_count: state.checkin_count,
            frontier: state.frontier,
            verdicts: state.verdicts.into(),
            comp: state.comp,
            finished: state.finished,
        }
    }

    // -- internal ----------------------------------------------------------

    /// β in seconds.
    fn beta(&self) -> i64 {
        self.cfg.match_config.beta_s
    }

    fn advance(&mut self, closing: bool) {
        // Adopt newly closed visits.
        while let Some(v) = self.detector.pop_visit() {
            let local = self.proj.to_local(v.centroid);
            self.visits.push_back(TrackedVisit {
                index: self.next_visit_index,
                visit: v,
                local,
                winner: None,
                resolved: false,
            });
            self.next_visit_index += 1;
            self.comp.visits_total += 1;
        }

        loop {
            let mut progress = false;
            progress |= self.select_candidates(closing);
            progress |= self.resolve_visits(closing);
            progress |= self.classify_pending(closing);
            if !progress {
                break;
            }
        }

        self.sweep_done();
        self.retire();
    }

    /// Stage 1: pick candidate visits for checkins whose candidate set is
    /// provably complete, registering dedup contests — the online form of
    /// the batch matcher's candidate pass.
    fn select_candidates(&mut self, closing: bool) -> bool {
        let mut progress = false;
        let mut contests: Vec<(usize, usize, f64)> = Vec::new(); // (pending idx, visit idx, dist)
        for (pi, pc) in self.pending.iter_mut().enumerate() {
            if pc.stage != Stage::Candidate {
                continue;
            }
            if !self.finished && !closing {
                // Pending checkins are time-ordered; completeness is
                // monotone in t, so the first incomplete one blocks the
                // rest.
                let horizon = pc.checkin.t + self.cfg.match_config.beta_s;
                let complete = match self.detector.pending_front_time() {
                    Some(p) => p >= horizon,
                    None => self.detector.frontier().is_some_and(|f| f >= horizon),
                };
                if !complete {
                    break;
                }
            }
            // The batch candidate rule: visits within α (inclusive, squared
            // compare exactly like the spatial grid), then closest in time,
            // ties by distance then index; accepted when dt < β.
            let alpha_sq = self.cfg.match_config.alpha_m.max(0.0).powi(2);
            let best = self
                .visits
                .iter()
                .filter_map(|tv| {
                    let d_sq = tv.local.distance_sq(pc.local);
                    if d_sq <= alpha_sq {
                        let dt = tv.visit.time_distance(pc.checkin.t);
                        Some((tv.index, dt, d_sq.sqrt()))
                    } else {
                        None
                    }
                })
                .min_by(prefer_candidate)
                .filter(|&(_, dt, _): &Candidate| within_beta(dt, &self.cfg.match_config));
            match best {
                Some((vi, _, d)) => {
                    pc.stage = Stage::Dedup(vi);
                    contests.push((pi, vi, d));
                }
                None => pc.stage = Stage::Classify,
            }
            progress = true;
        }
        for (pi, vi, d) in contests {
            self.register_contest(pi, vi, d);
        }
        progress
    }

    /// Apply the dedup rule for one new contest: strictly closer challenger
    /// takes the visit, displaced incumbent reverts to extraneous.
    fn register_contest(&mut self, pending_idx: usize, visit_index: usize, dist: f64) {
        let ci = self.pending[pending_idx].index;
        let tv = self
            .visits
            .iter_mut()
            .find(|tv| tv.index == visit_index)
            .expect("contested visit is tracked");
        debug_assert!(!tv.resolved, "contest on a resolved visit");
        match tv.winner {
            Some((_, incumbent_d)) if !challenger_wins(dist, incumbent_d) => {
                // Challenger loses immediately.
                self.pending[pending_idx].stage = Stage::Classify;
            }
            Some((old_ci, _)) => {
                tv.winner = Some((ci, dist));
                // Displaced incumbent reverts to extraneous.
                if let Some(old) = self.pending.iter_mut().find(|pc| pc.index == old_ci) {
                    debug_assert_eq!(old.stage, Stage::Dedup(visit_index));
                    old.stage = Stage::Classify;
                }
            }
            None => tv.winner = Some((ci, dist)),
        }
    }

    /// Stage 2: fix winners for visits whose contest window has provably
    /// closed; emit honest verdicts and count missing visits.
    fn resolve_visits(&mut self, closing: bool) -> bool {
        let mut progress = false;
        for i in 0..self.visits.len() {
            if self.visits[i].resolved {
                continue;
            }
            let end = self.visits[i].visit.end;
            if !closing {
                let horizon = end + self.beta();
                if self.frontier < horizon {
                    break; // visit ends are non-decreasing
                }
                let blocked = self
                    .pending
                    .iter()
                    .take_while(|pc| pc.checkin.t < horizon)
                    .any(|pc| pc.stage == Stage::Candidate);
                if blocked {
                    break;
                }
            }
            let tv_index = self.visits[i].index;
            let winner = self.visits[i].winner;
            self.visits[i].resolved = true;
            match winner {
                Some((ci, d)) => {
                    let pc = self
                        .pending
                        .iter_mut()
                        .find(|pc| pc.index == ci)
                        .expect("winning checkin still pending");
                    debug_assert_eq!(pc.stage, Stage::Dedup(tv_index));
                    pc.stage = Stage::Done;
                    let dt = self.visits[i].visit.time_distance(pc.checkin.t);
                    let verdict = AuditVerdict {
                        user: self.user,
                        checkin_index: ci,
                        t: pc.checkin.t,
                        kind: VerdictKind::Honest,
                        visit_index: Some(tv_index),
                        distance_m: d,
                        dt_s: dt,
                    };
                    self.verdicts.push_back(verdict);
                    self.comp.add(VerdictKind::Honest);
                }
                None => self.comp.missing_visits += 1,
            }
            progress = true;
        }
        progress
    }

    /// Stage 3: classify extraneous checkins whose evidence brackets are
    /// complete, with the shared §5.1 rule.
    fn classify_pending(&mut self, closing: bool) -> bool {
        let mut progress = false;
        let ready_frontier = self.last_gps_t;
        // Make the rolling window contiguous once per pass.
        let window: &[GpsPoint] = {
            self.gps_window.make_contiguous();
            self.gps_window.as_slices().0
        };
        let mut emitted: Vec<AuditVerdict> = Vec::new();
        for pc in self.pending.iter_mut() {
            if pc.stage != Stage::Classify {
                continue;
            }
            let ready = closing || ready_frontier.is_some_and(|g| g > pc.checkin.t);
            if !ready {
                continue;
            }
            let kind: VerdictKind =
                classify_against(window, &pc.checkin, &self.cfg.classify).into();
            pc.stage = Stage::Done;
            emitted.push(AuditVerdict {
                user: self.user,
                checkin_index: pc.index,
                t: pc.checkin.t,
                kind,
                visit_index: None,
                distance_m: 0.0,
                dt_s: 0,
            });
            progress = true;
        }
        for v in emitted {
            self.comp.add(v.kind);
            self.verdicts.push_back(v);
        }
        progress
    }

    /// Remove finalized pending entries.
    fn sweep_done(&mut self) {
        self.pending.retain(|pc| pc.stage != Stage::Done);
    }

    /// Free state no pending or future checkin can still reference.
    fn retire(&mut self) {
        // Every pending or future checkin has t ≥ horizon.
        let horizon = match self.pending.front() {
            Some(pc) => pc.checkin.t,
            None if self.finished => i64::MAX,
            None => self.frontier,
        };
        // Visits with end + β ≤ horizon can never be candidates again.
        while let Some(front) = self.visits.front() {
            if front.resolved && front.visit.end.saturating_add(self.beta()) <= horizon {
                self.visits.pop_front();
            } else {
                break;
            }
        }
        // Keep the last two fixes at or before the horizon (interpolation /
        // trailing-speed anchors) and everything after it.
        while self.gps_window.len() > 2 && self.gps_window[2].t <= horizon {
            self.gps_window.pop_front();
        }
    }

    /// State budget: force-finalize the oldest pending checkin with the
    /// evidence at hand. The only path that may diverge from batch output;
    /// counted in `forced`.
    fn enforce_budget(&mut self) {
        if self.pending.len() > self.cfg.max_pending_checkins {
            // One marker per budget breach (not per evicted checkin): the
            // trace is promoted either way, without span spam on batches.
            geosocial_obs::trace::task_mark(
                "stream.forced_finalize",
                geosocial_obs::trace::FLAG_FORCED,
            );
        }
        while self.pending.len() > self.cfg.max_pending_checkins {
            let Some(mut pc) = self.pending.pop_front() else { break };
            self.comp.forced += 1;
            crate::metrics::forced_finalize().inc();
            if let Stage::Dedup(vi) = pc.stage {
                // Withdraw the contest; the visit may now resolve missing.
                if let Some(tv) = self.visits.iter_mut().find(|tv| tv.index == vi) {
                    if tv.winner.map(|(ci, _)| ci) == Some(pc.index) {
                        tv.winner = None;
                    }
                }
            }
            self.gps_window.make_contiguous();
            let window = self.gps_window.as_slices().0;
            let kind: VerdictKind =
                classify_against(window, &pc.checkin, &self.cfg.classify).into();
            pc.stage = Stage::Done;
            self.comp.add(kind);
            self.verdicts.push_back(AuditVerdict {
                user: self.user,
                checkin_index: pc.index,
                t: pc.checkin.t,
                kind,
                visit_index: None,
                distance_m: 0.0,
                dt_s: 0,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosocial_trace::{PoiCategory, MINUTE};

    fn origin() -> LatLon {
        LatLon::new(34.4, -119.8)
    }

    fn proj() -> LocalProjection {
        LocalProjection::new(origin())
    }

    fn fix(t: Timestamp, x: f64) -> GpsPoint {
        GpsPoint { t, pos: proj().to_latlon(Point::new(x, 0.0)) }
    }

    fn ck(t: Timestamp, x: f64) -> Checkin {
        Checkin {
            t,
            poi: 0,
            category: PoiCategory::Food,
            location: proj().to_latlon(Point::new(x, 0.0)),
            provenance: None,
        }
    }

    fn drain(a: &mut OnlineAuditor) -> Vec<AuditVerdict> {
        a.drain_verdicts().collect()
    }

    #[test]
    fn honest_checkin_finalizes_mid_stream() {
        let mut a = OnlineAuditor::new(0, AuditConfig::paper(origin()));
        // A 10-minute stay at x=0, checkin inside it, then travel away.
        for i in 0..=5 {
            a.push_gps(fix(i * MINUTE, 0.0));
        }
        a.push_checkin(ck(5 * MINUTE, 10.0));
        for i in 6..=10 {
            a.push_gps(fix(i * MINUTE, 0.0));
        }
        // Break the stay and advance well past t + β.
        a.push_gps(fix(11 * MINUTE, 5_000.0));
        a.push_gps(fix(11 * MINUTE + 40 * MINUTE, 12_000.0));
        let vs = drain(&mut a);
        assert_eq!(vs.len(), 1, "honest verdict should finalize before finish");
        assert_eq!(vs[0].kind, VerdictKind::Honest);
        assert_eq!(vs[0].visit_index, Some(0));
        assert_eq!(vs[0].dt_s, 0);
        a.finish();
        let comp = a.composition();
        assert_eq!(comp.honest, 1);
        assert_eq!(comp.pending_checkins, 0);
    }

    #[test]
    fn remote_checkin_classified_online() {
        let mut a = OnlineAuditor::new(7, AuditConfig::paper(origin()));
        for i in 0..=5 {
            a.push_gps(fix(i * MINUTE, 0.0));
        }
        // Checkin 5 km away while parked at x=0.
        a.push_checkin(ck(5 * MINUTE, 5_000.0));
        for i in 6..=10 {
            a.push_gps(fix(i * MINUTE, 0.0));
        }
        a.finish();
        let vs = drain(&mut a);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind, VerdictKind::Remote);
        assert_eq!(a.composition().remote, 1);
    }

    #[test]
    fn missing_visit_counted() {
        let mut a = OnlineAuditor::new(1, AuditConfig::paper(origin()));
        for i in 0..=10 {
            a.push_gps(fix(i * MINUTE, 0.0));
        }
        a.finish();
        let comp = a.composition();
        assert_eq!(comp.visits_total, 1);
        assert_eq!(comp.missing_visits, 1);
        assert_eq!(comp.total_checkins, 0);
    }

    #[test]
    fn dedup_prefers_closer_checkin_and_loser_reverts() {
        let mut a = OnlineAuditor::new(2, AuditConfig::paper(origin()));
        for i in 0..=4 {
            a.push_gps(fix(i * MINUTE, 0.0));
        }
        a.push_checkin(ck(4 * MINUTE, 250.0)); // contender, 250 m
        a.push_gps(fix(5 * MINUTE, 0.0));
        a.push_gps(fix(6 * MINUTE, 0.0));
        a.push_checkin(ck(6 * MINUTE, 20.0)); // winner, 20 m
        for i in 7..=10 {
            a.push_gps(fix(i * MINUTE, 0.0));
        }
        a.finish();
        let vs = drain(&mut a);
        assert_eq!(vs.len(), 2);
        let honest: Vec<_> = vs.iter().filter(|v| v.kind == VerdictKind::Honest).collect();
        assert_eq!(honest.len(), 1);
        assert_eq!(honest[0].checkin_index, 1, "closer checkin wins the visit");
        let comp = a.composition();
        assert_eq!(comp.honest, 1);
        assert_eq!(comp.extraneous(), 1);
        assert_eq!(comp.missing_visits, 0);
    }

    #[test]
    fn late_events_are_dropped() {
        let mut a = OnlineAuditor::new(3, AuditConfig::paper(origin()));
        a.push_gps(fix(600, 0.0));
        a.push_gps(fix(300, 0.0)); // late fix
        a.push_checkin(ck(100, 0.0)); // late checkin
        assert_eq!(a.composition().late_dropped, 2);
        assert_eq!(a.composition().total_checkins, 0);
    }

    #[test]
    fn budget_forces_oldest_checkin_out() {
        let mut cfg = AuditConfig::paper(origin());
        cfg.max_pending_checkins = 2;
        let mut a = OnlineAuditor::new(4, cfg);
        // No GPS at all: checkins can never finalize before finish.
        for i in 0..5 {
            a.push_checkin(ck(i * MINUTE, 0.0));
        }
        let comp = a.composition();
        assert!(comp.forced >= 3, "forced {}", comp.forced);
        assert!(comp.pending_checkins <= 2);
        a.finish();
        let comp = a.composition();
        assert_eq!(comp.total_checkins, 5);
        assert_eq!(comp.unclassified, 5, "no-evidence checkins are unclassified");
    }

    #[test]
    fn export_restore_roundtrip_is_bit_identical() {
        // Drive two auditors through the same stream, exporting/restoring
        // one at every step; their verdicts and compositions must never
        // diverge, down to the float bits.
        let cfg = AuditConfig::paper(origin());
        let mut live = OnlineAuditor::new(9, cfg.clone());
        let mut churned = OnlineAuditor::new(9, cfg.clone());
        let mut t = 0;
        let mut live_vs = Vec::new();
        let mut churned_vs = Vec::new();
        for block in 0..4 {
            let x = block as f64 * 2_000.0;
            for j in 0..=8 {
                live.push_gps(fix(t, x));
                churned.push_gps(fix(t, x));
                if j == 4 {
                    live.push_checkin(ck(t, x + 30.0));
                    churned.push_checkin(ck(t, x + 30.0));
                }
                t += MINUTE;
                live_vs.extend(drain(&mut live));
                churned_vs.extend(drain(&mut churned));
                // Serialize-shaped roundtrip: export → restore.
                let state = churned.export_state();
                assert_eq!(state, churned.export_state(), "export is deterministic");
                churned = OnlineAuditor::restore(cfg.clone(), state);
            }
            live.push_gps(fix(t, x + 1_200.0));
            churned.push_gps(fix(t, x + 1_200.0));
            t += MINUTE;
        }
        live.finish();
        churned.finish();
        live_vs.extend(drain(&mut live));
        churned_vs.extend(drain(&mut churned));
        assert_eq!(live_vs.len(), churned_vs.len());
        for (a, b) in live_vs.iter().zip(&churned_vs) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.checkin_index, b.checkin_index);
            assert_eq!(a.visit_index, b.visit_index);
            assert_eq!(a.distance_m.to_bits(), b.distance_m.to_bits());
            assert_eq!(a.dt_s, b.dt_s);
        }
        assert_eq!(live.composition(), churned.composition());
        assert_eq!(live.composition().honest, 4);
    }

    #[test]
    fn state_is_retired_after_finalization() {
        let mut a = OnlineAuditor::new(5, AuditConfig::paper(origin()));
        // Two hours of movement with periodic stays; state must not grow
        // linearly with the stream.
        let mut t = 0;
        for block in 0..8 {
            let x = block as f64 * 3_000.0;
            for j in 0..=10 {
                a.push_gps(fix(t, x));
                if j == 5 {
                    a.push_checkin(ck(t, x + 10.0));
                }
                t += MINUTE;
            }
            // Travel burst to break the stay.
            a.push_gps(fix(t, x + 1_500.0));
            t += MINUTE;
        }
        assert!(a.state_size() < 60, "rolling state should stay bounded, got {}", a.state_size());
        a.finish();
        let comp = a.composition();
        assert_eq!(comp.total_checkins, 8);
        assert_eq!(comp.honest, 8);
    }
}
