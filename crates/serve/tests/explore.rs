//! The seeded explorer: the served == batch contract, checked against one
//! [`Shard`] directly — no socket, no sleep — on drawn schedules.
//!
//! Each seed draws a scenario family and size, a frame shape (`run_len`
//! 1 is one `Gps` frame per fix), store settings (segment size, snapshot
//! cadence, flush threshold), filesystem faults (torn and failed flushes)
//! plus one worker kill at a drawn ingest count, and client actions
//! interleaved between the frames the production cutter
//! ([`partition_events`]) produces:
//!
//! * redeliver an acknowledged frame, or resend the last few frames as if
//!   their acks were lost — both must be acknowledged without effect;
//! * send a gap frame for a seen or an unseen user — it must be refused
//!   and change nothing;
//! * send reads (`User`, `AsOf`, `Stats`, `Window`) — they must change
//!   nothing;
//! * crash: drop the shard without closing it, reopen the directory,
//!   re-send `Hello` and resume each user from `AsOf { user, ∞ }.applied`
//!   (the load generator's fast-forward contract);
//! * hand off: close, ship the store with `export_handoff`, validate the
//!   copy with `import_handoff` and open the shard there.
//!
//! **Oracle.** After `Finish`, the shard's users and every user's
//! composition equal the batch pipeline (`match_checkins` +
//! `user_compositions`), `Stats` agrees with its totals, and `AsOf` at a
//! drawn watermark equals `window_compositions` truncated there; all of
//! it again after a clean restart. A failing seed prints one line with the
//! seed and every drawn choice.

use geosocial_core::classify::ClassifyConfig;
use geosocial_core::matching::{match_checkins, MatchConfig};
use geosocial_core::prevalence::user_compositions;
use geosocial_fault::{mix64, FaultPlan};
use geosocial_scenario::PopulationConfig;
use geosocial_serve::loadgen::partition_events;
use geosocial_serve::protocol::{Request, Response, ServerStats};
use geosocial_serve::server::ServerConfig;
use geosocial_serve::shard::Shard;
use geosocial_store::{import_handoff, EventStore, StoreOptions, FLUSH_THRESHOLD};
use geosocial_stream::{dataset_events, window_compositions, AuditConfig, StreamEvent};
use geosocial_trace::{Dataset, UserId};
use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Seeds every nightly run explores (`cargo test --release -p
/// geosocial-serve --test explore -- --ignored`).
const NIGHTLY_SEEDS: u64 = 5_000;

/// Deterministic draws for one seed: splitmix64 over a counter.
struct Draws {
    seed: u64,
    n: u64,
}

impl Draws {
    fn below(&mut self, n: u64) -> u64 {
        self.n += 1;
        mix64(self.seed ^ mix64(self.n)) % n.max(1)
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// A client action between two frames.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// Redeliver acknowledged frame `frame`.
    Redeliver { frame: usize },
    /// Resend the last `k` frames, as if their acks were lost.
    ResendLast { k: usize },
    /// A frame past the user's next sequence number (`extra` beyond the
    /// gap of one), for the last frame's user or a never-seen one.
    Gap { seen: bool, extra: u64 },
    /// `User`, `AsOf`, `Stats` and `Window` reads at event time `t`.
    Reads { t: i64 },
    /// Drop the shard without closing it, reopen and resume.
    Crash,
    /// Close, ship the store to a new directory and open it there.
    Handoff,
}

/// Everything one seed drew: the reproducer a failure prints.
#[derive(Debug)]
struct Plan {
    seed: u64,
    family: &'static str,
    users: u32,
    days: u32,
    run_len: usize,
    segment_bytes: usize,
    snapshot_every: usize,
    flush_bytes: usize,
    fault: String,
    /// The `AsOf` oracle's user and watermark.
    as_of: (UserId, i64),
    /// `(frame index, action)`: the action runs when the client is about
    /// to send that frame.
    actions: Vec<(usize, Action)>,
}

/// A generated scenario with everything the client and the oracle need.
struct Scenario {
    ds: Dataset,
    events: Vec<StreamEvent>,
    frames: Vec<Request>,
    gps: usize,
    checkins: usize,
}

fn draw(seed: u64) -> (Plan, Scenario) {
    let mut d = Draws { seed, n: 0 };
    let names = geosocial_scenario::names();
    let mut plan = Plan {
        seed,
        family: names[d.below(names.len() as u64) as usize],
        users: 1 + d.below(4) as u32,
        days: 1 + d.below(2) as u32,
        run_len: d.pick(&[1, 1, 2, 3, 8, 17, 32, 64]),
        segment_bytes: d.pick(&[1024, 4096, 16 * 1024]),
        snapshot_every: d.pick(&[16, 64, 256, 1024]),
        flush_bytes: d.pick(&[0, FLUSH_THRESHOLD]),
        fault: format!(
            "seed={seed},short={},flushfail={}",
            d.pick(&[0, 20, 60]),
            d.pick(&[0, 20, 40])
        ),
        as_of: (0, 0),
        actions: Vec::new(),
    };
    let sizing = PopulationConfig::small(plan.users, plan.days);
    let ds = geosocial_scenario::populate(plan.family, &sizing, seed)
        .expect("registered family")
        .dataset;
    let events = dataset_events(&ds);
    let (mut lanes, gps, checkins) = partition_events(&ds, 1, plan.run_len);
    let frames = lanes.pop().expect("one lane");

    plan.fault += &format!(",kill=0@{}", d.below((gps + checkins) as u64));
    let pick_event = |d: &mut Draws| events[d.below(events.len() as u64) as usize].clone();
    let e = pick_event(&mut d);
    plan.as_of = (e.user(), e.t());
    for _ in 0..d.below(8) {
        let at = d.below(frames.len() as u64) as usize;
        let action = match d.below(6) {
            0 if at > 0 => Action::Redeliver { frame: d.below(at as u64) as usize },
            1 => Action::ResendLast { k: 1 + d.below(8) as usize },
            2 => Action::Gap { seen: d.below(2) == 0, extra: d.below(3) },
            4 => Action::Crash,
            5 => Action::Handoff,
            _ => Action::Reads { t: pick_event(&mut d).t() },
        };
        plan.actions.push((at, action));
    }
    plan.actions.sort_by_key(|&(at, _)| at);
    (plan, Scenario { ds, events, frames, gps, checkins })
}

/// `(user, one past the frame's last sequence number)` of an ingest frame.
fn frame_span(req: &Request) -> (UserId, u64) {
    match req {
        Request::Gps { user, seq, .. } | Request::Checkin { user, seq, .. } => (*user, seq + 1),
        Request::GpsRun { user, first_seq, fixes } => (*user, first_seq + fixes.len() as u64),
        other => panic!("not an ingest frame: {other:?}"),
    }
}

/// The client side of one seed: the shard under test, its directory, and
/// what the client knows about each user's ingest.
struct Client<'a> {
    plan: &'a Plan,
    sc: &'a Scenario,
    config: ServerConfig,
    shard: Option<Shard>,
    dir: PathBuf,
    hello: Request,
    /// Directories used so far (one per handoff), removed at the end.
    dirs: Vec<PathBuf>,
    /// Next frame to send; frames before it are acknowledged.
    pos: usize,
    /// Per user, one past the last acknowledged sequence number.
    next: HashMap<UserId, u64>,
}

impl Client<'_> {
    fn shard(&mut self) -> &mut Shard {
        self.shard.as_mut().expect("shard open")
    }

    fn ask(&mut self, req: &Request) -> Response {
        self.shard().apply(req, None)
    }

    fn stats(&mut self) -> Result<ServerStats, String> {
        match self.ask(&Request::Stats) {
            Response::Stats { stats } => Ok(stats),
            other => Err(format!("Stats answered {other:?}")),
        }
    }

    /// Send a frame the shard must acknowledge. `fresh` frames may
    /// finalize verdicts; redeliveries must not.
    fn ack(&mut self, frame: usize, fresh: bool) -> Result<(), String> {
        let req = self.sc.frames[frame].clone();
        match self.ask(&req) {
            Response::Verdicts { verdicts } if fresh || verdicts.is_empty() => {
                let (user, end) = frame_span(&req);
                let next = self.next.entry(user).or_insert(0);
                *next = (*next).max(end);
                Ok(())
            }
            other => Err(format!("frame {frame} ({}) answered {other:?}", kind(&req))),
        }
    }

    fn open(&mut self) -> Result<(), String> {
        self.shard = Some(
            Shard::open(0, &self.dir, &self.config)
                .map_err(|e| format!("open {}: {e}", self.dir.display()))?,
        );
        Ok(())
    }

    fn act(&mut self, action: Action) -> Result<(), String> {
        match action {
            Action::Redeliver { frame } => self.ack(frame, false),
            Action::ResendLast { k } => {
                for frame in self.pos.saturating_sub(k)..self.pos {
                    self.ack(frame, false)?;
                }
                Ok(())
            }
            Action::Gap { seen, extra } => {
                let user = match self.pos.checked_sub(1) {
                    Some(last) if seen => frame_span(&self.sc.frames[last]).0,
                    _ => UserId::MAX - 1 - extra as UserId,
                };
                let seq = self.next.get(&user).copied().unwrap_or(0) + 1 + extra;
                let gap = Request::Gps { user, seq, t: 0, lat: 0.0, lon: 0.0 };
                let before = self.stats()?;
                match self.ask(&gap) {
                    Response::Error { message } if message.contains("gap") => {}
                    other => return Err(format!("gap frame {gap:?} answered {other:?}")),
                }
                unchanged(&before, &self.stats()?, "a refused gap frame")
            }
            Action::Reads { t } => {
                let before = self.stats()?;
                let cohort: Vec<UserId> = self.sc.ds.users.iter().map(|u| u.id).collect();
                let mut reads = vec![
                    Request::Window { cohort: cohort.clone(), t0: i64::MIN, t1: t },
                    Request::Stats,
                ];
                for &user in &cohort {
                    reads.push(Request::AsOf { user, t });
                    if self.next.contains_key(&user) {
                        reads.push(Request::User { user });
                    }
                }
                for req in reads {
                    match self.ask(&req) {
                        Response::Compositions { .. }
                        | Response::Stats { .. }
                        | Response::AsOf { .. }
                        | Response::Composition { .. } => {}
                        other => return Err(format!("{req:?} answered {other:?}")),
                    }
                }
                unchanged(&before, &self.stats()?, "reads")
            }
            Action::Crash => {
                // No `close`: whatever either store still buffers is lost.
                drop(self.shard.take());
                self.open()?;
                self.resume()
            }
            Action::Handoff => {
                let before = self.stats()?;
                self.shard
                    .take()
                    .expect("shard open")
                    .close()
                    .map_err(|e| format!("close: {e}"))?;
                let dest = self.dir.with_extension(format!("handoff{}", self.dirs.len()));
                let _ = std::fs::remove_dir_all(&dest);
                let mut store = EventStore::open(&self.dir, StoreOptions::default())
                    .map_err(|e| format!("reopen for export: {e}"))?;
                store.export_handoff(&dest).map_err(|e| format!("export_handoff: {e}"))?;
                drop(store);
                import_handoff(&dest).map_err(|e| format!("import_handoff: {e}"))?;
                self.dir = dest.clone();
                self.dirs.push(dest);
                self.open()?;
                same_audit(&before, &self.stats()?, "a handoff")
            }
        }
    }

    /// After a crash: `Hello` again, then ask the store how far each
    /// user's ingest got and resume from the first frame it does not
    /// fully hold. The durable log is a prefix of the applied events, so
    /// every later frame is unapplied too (a partial one dedups per event).
    fn resume(&mut self) -> Result<(), String> {
        let hello = self.hello.clone();
        match self.ask(&hello) {
            Response::Ok => {}
            other => return Err(format!("Hello after a crash answered {other:?}")),
        }
        self.next.clear();
        for u in &self.sc.ds.users {
            match self.ask(&Request::AsOf { user: u.id, t: i64::MAX }) {
                Response::AsOf { applied, .. } if applied > 0 => {
                    self.next.insert(u.id, applied);
                }
                Response::AsOf { .. } => {}
                other => return Err(format!("AsOf after a crash answered {other:?}")),
            }
        }
        let holds = |f: &Request| {
            let (user, end) = frame_span(f);
            self.next.get(&user).is_some_and(|&applied| applied >= end)
        };
        self.pos = (0..self.pos).find(|&f| !holds(&self.sc.frames[f])).unwrap_or(self.pos);
        Ok(())
    }
}

fn kind(req: &Request) -> &'static str {
    match req {
        Request::Gps { .. } => "Gps",
        Request::GpsRun { .. } => "GpsRun",
        Request::Checkin { .. } => "Checkin",
        _ => "other",
    }
}

fn unchanged(before: &ServerStats, after: &ServerStats, what: &str) -> Result<(), String> {
    let (b, a) = (format!("{before:?}"), format!("{after:?}"));
    if b == a {
        Ok(())
    } else {
        Err(format!("{what} changed the shard: {b} -> {a}"))
    }
}

/// The audit a restore must preserve. Duplicate and recovery counts are
/// bookkeeping of the live run a replay does not see.
fn same_audit(before: &ServerStats, after: &ServerStats, what: &str) -> Result<(), String> {
    let key = |s: &ServerStats| {
        (s.users, s.gps_events, s.checkin_events, s.verdicts, format!("{:?}", s.composition))
    };
    if key(before) == key(after) {
        Ok(())
    } else {
        Err(format!("{what} changed the audit: {:?} -> {:?}", key(before), key(after)))
    }
}

/// The oracle: the finished shard against the batch pipeline.
fn oracle(c: &mut Client<'_>) -> Result<(), String> {
    let sc = c.sc;
    let outcome = match_checkins(&sc.ds, &MatchConfig::paper());
    let batch = user_compositions(&sc.ds, &outcome, &ClassifyConfig::default());
    let stats = c.stats()?;
    let agg = &stats.composition;
    let served = [
        ("users", stats.users),
        ("gps events", stats.gps_events),
        ("checkin events", stats.checkin_events),
        ("checkins", agg.total_checkins),
        ("honest", agg.honest),
        ("extraneous", agg.extraneous()),
        ("visits", agg.visits_total),
        ("missing", agg.missing_visits),
    ];
    let want = [
        batch.len(),
        sc.gps,
        sc.checkins,
        outcome.total_checkins,
        outcome.honest.len(),
        outcome.extraneous.len(),
        outcome.total_visits,
        outcome.missing.len(),
    ];
    for ((field, got), want) in served.into_iter().zip(want) {
        if got != want {
            return Err(format!("Stats {field}: served {got}, batch {want}"));
        }
    }
    for bc in &batch {
        let comp = match c.ask(&Request::User { user: bc.user }) {
            Response::Composition { composition } => composition,
            other => return Err(format!("User {} answered {other:?}", bc.user)),
        };
        let got = (comp.total_checkins, comp.honest, comp.superfluous, comp.remote, comp.driveby);
        let want = (bc.total, bc.honest, bc.superfluous, bc.remote, bc.driveby);
        if got != want || comp.unclassified != bc.unclassified {
            return Err(format!("user {}: served {comp:?}, batch {bc:?}", bc.user));
        }
    }
    // Users the batch does not know (the unseen-user gap frames) were
    // never allocated.
    let known: BTreeSet<UserId> = batch.iter().map(|b| b.user).collect();
    for extra in 0..3 {
        let phantom = UserId::MAX - 1 - extra;
        if !known.contains(&phantom) {
            if let Response::Composition { .. } = c.ask(&Request::User { user: phantom }) {
                return Err(format!("refused gap frame left user {phantom} behind"));
            }
        }
    }
    let (user, t) = c.plan.as_of;
    let audit = AuditConfig::paper(sc.ds.pois.projection().origin());
    let want = window_compositions(&sc.events, &audit, i64::MIN, t)
        .into_iter()
        .find(|w| w.user == user)
        .ok_or("the AsOf watermark precedes the user's events")?;
    match c.ask(&Request::AsOf { user, t }) {
        Response::AsOf { composition, .. } if composition == want => Ok(()),
        other => Err(format!("AsOf {{ user: {user}, t: {t} }} answered {other:?}, want {want:?}")),
    }
}

/// Run one seed; `Err` carries the failure.
fn explore(plan: &Plan, sc: &Scenario) -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!(
        "geosocial-explore-{}-{}",
        std::process::id(),
        plan.seed
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let origin = sc.ds.pois.projection().origin();
    let mut c = Client {
        plan,
        sc,
        config: ServerConfig {
            segment_bytes: plan.segment_bytes,
            snapshot_every: plan.snapshot_every,
            flush_bytes: plan.flush_bytes,
            fault: FaultPlan::parse(&plan.fault).expect("drawn fault spec parses"),
            ..ServerConfig::default()
        },
        shard: None,
        dir: dir.clone(),
        hello: Request::Hello { origin_lat: origin.lat, origin_lon: origin.lon },
        dirs: vec![dir],
        pos: 0,
        next: HashMap::new(),
    };
    let result = run(&mut c);
    drop(c.shard.take());
    for d in &c.dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    result
}

fn run(c: &mut Client<'_>) -> Result<(), String> {
    c.open()?;
    let hello = c.hello.clone();
    match c.ask(&hello) {
        Response::Ok => {}
        other => return Err(format!("Hello answered {other:?}")),
    }
    let mut actions = c.plan.actions.iter().peekable();
    while c.pos < c.sc.frames.len() {
        while let Some(&(_, action)) = actions.next_if(|(at, _)| *at <= c.pos) {
            c.act(action)?;
        }
        if c.pos < c.sc.frames.len() {
            c.ack(c.pos, true)?;
            c.pos += 1;
        }
    }
    if c.config.fault.injected().kills != 1 {
        return Err("the planned worker kill never fired".into());
    }
    match c.ask(&Request::Finish) {
        Response::Verdicts { .. } => {}
        other => return Err(format!("Finish answered {other:?}")),
    }
    oracle(c)?;
    // A clean restart restores the same audit.
    let before = c.stats()?;
    c.shard.take().expect("shard open").close().map_err(|e| format!("close: {e}"))?;
    c.open()?;
    same_audit(&before, &c.stats()?, "a restart")?;
    oracle(c)
}

/// Explore `seeds`, panicking with one reproducer line per failing seed.
fn explore_seeds(seeds: impl IntoIterator<Item = u64>) {
    let mut failures = Vec::new();
    for seed in seeds {
        let (plan, sc) = draw(seed);
        let outcome = catch_unwind(AssertUnwindSafe(|| explore(&plan, &sc)))
            .unwrap_or_else(|_| Err("panicked".into()));
        if let Err(why) = outcome {
            failures.push(format!("explore seed {seed}: {why}; drawn: {plan:?}"));
        }
    }
    assert!(
        failures.is_empty(),
        "{} seeds broke the contract:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Seeds that once broke the contract, kept as fixed regression cases.
/// 93: one injected flush failure made `close` give up with records still
/// buffered, which a restart would have lost.
const REGRESSION_SEEDS: [u64; 1] = [93];

#[test]
fn served_equals_batch_on_seeds_0_to_24() {
    explore_seeds((0..25).chain(REGRESSION_SEEDS));
}

#[test]
fn served_equals_batch_on_seeds_25_to_49() {
    explore_seeds(25..50);
}

#[test]
#[ignore = "nightly: 5 000 seeds, run in release"]
fn served_equals_batch_on_nightly_seeds() {
    explore_seeds(0..NIGHTLY_SEEDS);
}
