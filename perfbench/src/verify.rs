//! The correctness oracle: after `Finish`, the served compositions must
//! equal the batch pipeline (`match_checkins` + `user_compositions`) run
//! on the same events. Every round ingests the whole input, so the batch
//! side is computed once per run and checked against every round.

use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use geosocial_core::classify::ClassifyConfig;
use geosocial_core::matching::{match_checkins, MatchConfig, MatchOutcome};
use geosocial_core::prevalence::{user_compositions, UserComposition};
use geosocial_serve::loadgen::control_request;
use geosocial_serve::protocol::{Request, Response, ServerStats};

use crate::inputs::Inputs;

/// The batch pipeline's answer for one run's inputs.
pub struct Oracle {
    outcome: MatchOutcome,
    users: Vec<UserComposition>,
    events: usize,
    /// `match_checkins` wall time.
    pub matching: Duration,
    /// `user_compositions` wall time.
    pub classify: Duration,
}

impl Oracle {
    /// Run the batch pipeline on every event of `inputs`.
    pub fn new(inputs: &Inputs) -> Oracle {
        let ds = &inputs.ds;
        let t = Instant::now();
        let outcome = match_checkins(ds, &MatchConfig::paper());
        let matching = t.elapsed();
        let t = Instant::now();
        let users = user_compositions(ds, &outcome, &ClassifyConfig::default());
        let classify = t.elapsed();
        let events = ds.users.iter().map(|u| u.gps.len() + u.checkins.len()).sum();
        Oracle { outcome, users, events, matching, classify }
    }

    /// Checkins the batch pipeline saw.
    pub fn checkins(&self) -> usize {
        self.outcome.total_checkins
    }

    /// Compare the finished server behind `addr` (whose `Stats` are
    /// `served`) against the batch pipeline. Returns every mismatch (empty
    /// when they agree).
    pub fn check(&self, addr: SocketAddr, served: &ServerStats) -> io::Result<Vec<String>> {
        let outcome = &self.outcome;
        let mut mismatches = Vec::new();
        let agg = &served.composition;
        for (field, got, want) in [
            ("total", agg.total_checkins, outcome.total_checkins),
            ("honest", agg.honest, outcome.honest.len()),
            ("extraneous", agg.extraneous(), outcome.extraneous.len()),
            ("visits", agg.visits_total, outcome.total_visits),
            ("missing", agg.missing_visits, outcome.missing.len()),
        ] {
            if got != want {
                mismatches.push(format!("aggregate {field}: served {got}, batch {want}"));
            }
        }
        if served.gps_events + served.checkin_events != self.events {
            mismatches.push(format!(
                "events: served {}, sent {}",
                served.gps_events + served.checkin_events,
                self.events
            ));
        }
        if served.duplicates != 0 {
            mismatches
                .push(format!("{} duplicate deliveries on a fault-free run", served.duplicates));
        }

        for want in &self.users {
            let got = match control_request(addr, &Request::User { user: want.user })? {
                Response::Composition { composition } => composition,
                other => {
                    mismatches.push(format!("user {}: unexpected reply {other:?}", want.user));
                    continue;
                }
            };
            for (field, got, want_n) in [
                ("total", got.total_checkins, want.total),
                ("honest", got.honest, want.honest),
                ("superfluous", got.superfluous, want.superfluous),
                ("remote", got.remote, want.remote),
                ("driveby", got.driveby, want.driveby),
                ("unclassified", got.unclassified, want.unclassified),
            ] {
                if got != want_n {
                    mismatches
                        .push(format!("user {} {field}: served {got}, batch {want_n}", want.user));
                }
            }
        }
        Ok(mismatches)
    }
}
