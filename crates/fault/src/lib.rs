#![warn(missing_docs)]

//! Deterministic, seeded fault injection for the geosocial serving layer.
//!
//! The paper's argument is that checkin streams are noisy, lossy views of
//! ground truth; the online service extends that argument to the transport:
//! served verdicts must equal the batch pipeline even when connections
//! drop, peers stall, and shard workers crash. This crate provides the
//! *controlled* noise for proving that — a [`FaultPlan`] whose decisions
//! are pure functions of a seed, so every chaos run is exactly
//! reproducible.
//!
//! Faults come in two families:
//!
//! * **frame faults** ([`FaultPlan::frame_fault`]) — consulted by the
//!   load-generator client before writing frame `index` of lane `lane` on
//!   delivery attempt `attempt`: truncate the frame and half-close the
//!   connection (modelling a lost connection — TCP loses *connections*,
//!   not frames), abort it outright with pending acknowledgments
//!   destroyed (forcing redelivery of applied events), or stall long
//!   enough to trip the server's idle timeout.
//!   Keying the decision on the attempt number means a retried frame is
//!   re-rolled rather than re-faulted forever.
//! * **shard kills** ([`FaultPlan::should_kill`]) — consulted by a shard
//!   worker before applying its `n`-th ingest: fire exactly once (a
//!   one-shot consumed across all clones of the plan), panicking the
//!   worker so the server's snapshot/replay recovery path runs.
//! * **filesystem faults** ([`FaultPlan::fs_fault`]) — consulted by the
//!   event store's flush path before its `op`-th flush on shard `shard`:
//!   write only part of the buffered bytes (a short write the store must
//!   detect and repair by rewinding to the last durable record boundary),
//!   or fail the flush outright once (the bytes stay buffered and the
//!   next flush re-rolls).
//!
//! Injection is a run-time decision: [`FaultPlan::none`] (the default in
//! every config) never fires, so each injection site costs one branch on
//! a shard's per-event path and one hash per store flush.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The splitmix64 finalizer: the workspace's one cheap mixing function.
/// Fault plans, trace ids and head sampling (`geosocial-obs`), the
/// server's user→shard hash and the router's rendezvous weights all use
/// it, so its output is pinned by test vectors.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mix several words into one decision hash.
fn mix_all(words: &[u64]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for &w in words {
        h = mix64(h ^ w);
    }
    h
}

/// The verdict for one outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// Deliver the frame normally.
    None,
    /// Write a partial frame, then half-close: the peer sees a mid-frame
    /// EOF and must drop the session, but responses it already sent stay
    /// readable (a peer that crashed mid-write).
    Truncate,
    /// Tear the connection down in both directions without reading pending
    /// responses (a reset, or a client that died outright). Acknowledgments
    /// already delivered are destroyed, so the sender must redeliver events
    /// the receiver has in fact applied — the fault that exercises
    /// receiver-side sequence deduplication.
    Abort,
    /// Sleep this many milliseconds before the frame — long enough to trip
    /// the server's read timeout when armed aggressively.
    Stall {
        /// Stall duration, milliseconds.
        ms: u64,
    },
}

/// The verdict for one filesystem flush operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsFault {
    /// Flush normally.
    None,
    /// Write only part of the buffered bytes before "crashing" the write:
    /// the file ends in a torn record the store must truncate away and
    /// rewrite from its in-memory buffer.
    ShortWrite,
    /// Fail the flush with an I/O error, leaving the bytes buffered; the
    /// next flush attempt re-rolls.
    FlushFail,
}

/// A planned one-shot shard-worker kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardKill {
    /// The shard whose worker panics.
    pub shard: usize,
    /// Fire before that shard applies its `at_ingest`-th ingest
    /// (0-based count of applied GPS fixes + checkins).
    pub at_ingest: u64,
}

/// A planned one-shot whole-process shard kill. Unlike [`ShardKill`] (an
/// in-process worker panic) this names a separate `geosocial-serve`
/// process in a cluster; the plan only carries the schedule — the chaos
/// harness watches the clock and delivers the actual SIGKILL, since a
/// process cannot kill itself at a deterministic wall-clock point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessKill {
    /// Cluster shard-map entry id of the process to kill.
    pub shard: u64,
    /// Deliver the kill this many milliseconds after the replay starts.
    pub after_ms: u64,
}

/// How often each fault family actually fired. Shared across every clone
/// of the plan, so the server config's copy and the test's copy agree.
#[derive(Debug, Default)]
struct Fired {
    truncated: AtomicU64,
    aborted: AtomicU64,
    stalled: AtomicU64,
    kills: AtomicU64,
    short_writes: AtomicU64,
    flush_fails: AtomicU64,
    /// Set by the one `should_kill` that fires.
    kill_consumed: AtomicBool,
}

/// A point-in-time copy of the injection counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Frames truncated (connections half-closed mid-frame).
    pub truncated: u64,
    /// Connections aborted with acknowledgments destroyed.
    pub aborted: u64,
    /// Frames stalled.
    pub stalled: u64,
    /// Shard workers killed.
    pub kills: u64,
    /// Flushes that wrote only part of their bytes (torn tails repaired
    /// by the store).
    pub short_writes: u64,
    /// Flushes failed outright (bytes retained and retried).
    pub flush_fails: u64,
}

impl FaultCounts {
    /// Total injected faults of every kind.
    pub fn total(&self) -> u64 {
        self.truncated
            + self.aborted
            + self.stalled
            + self.kills
            + self.short_writes
            + self.flush_fails
    }
}

/// A deterministic, seeded fault plan. Decisions are pure functions of
/// `(seed, lane, index, attempt)` — replaying the same scenario with the
/// same plan injects the same faults at the same points.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Decision seed.
    pub seed: u64,
    /// Per-mille probability a frame is truncated (connection half-closed).
    pub truncate_per_mille: u16,
    /// Per-mille probability the connection is aborted before the frame,
    /// destroying delivered-but-unread acknowledgments.
    pub abort_per_mille: u16,
    /// Per-mille probability a frame is stalled.
    pub stall_per_mille: u16,
    /// Stall duration, milliseconds.
    pub stall_ms: u64,
    /// Per-mille probability a store flush writes only part of its bytes.
    pub short_write_per_mille: u16,
    /// Per-mille probability a store flush fails outright.
    pub flush_fail_per_mille: u16,
    /// Optional one-shot shard kill.
    pub kill: Option<ShardKill>,
    /// Optional one-shot whole-process kill, executed by the chaos
    /// harness rather than an injection site (see [`ProcessKill`]).
    pub prockill: Option<ProcessKill>,
    fired: Arc<Fired>,
}

impl FaultPlan {
    /// An inert plan: no fault ever fires.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when no fault can ever fire from this plan.
    pub fn is_inert(&self) -> bool {
        self.truncate_per_mille == 0
            && self.abort_per_mille == 0
            && self.stall_per_mille == 0
            && self.short_write_per_mille == 0
            && self.flush_fail_per_mille == 0
            && self.kill.is_none()
            && self.prockill.is_none()
    }

    /// An aggressive preset for chaos tests: ~2% of frames truncated, ~1%
    /// of connections aborted, ~0.5% of frames stalled for `stall_ms`, ~6%
    /// of store flushes torn short, ~4% failed outright, and one shard
    /// kill.
    pub fn aggressive(seed: u64, kill: ShardKill, stall_ms: u64) -> Self {
        Self {
            seed,
            truncate_per_mille: 20,
            abort_per_mille: 10,
            stall_per_mille: 5,
            stall_ms,
            short_write_per_mille: 60,
            flush_fail_per_mille: 40,
            kill: Some(kill),
            prockill: None,
            fired: Arc::default(),
        }
    }

    /// Parse a plan from its compact spec string, e.g.
    /// `seed=42,truncate=20,abort=10,stall=5:300,kill=1@500`:
    ///
    /// * `seed=N` — decision seed (default 0);
    /// * `truncate=N` — per-mille frame-truncation rate;
    /// * `abort=N` — per-mille connection-abort rate (acks destroyed);
    /// * `stall=N:MS` — per-mille stall rate and stall milliseconds;
    /// * `short=N` — per-mille store-flush short-write rate;
    /// * `flushfail=N` — per-mille store-flush failure rate;
    /// * `kill=SHARD@INGEST` — one-shot worker kill before that shard's
    ///   INGEST-th applied event;
    /// * `prockill=SHARD@MS` — one-shot SIGKILL of the whole shard
    ///   process with cluster map entry id SHARD, MS milliseconds into
    ///   the replay (delivered by the chaos harness, not an injection
    ///   site).
    ///
    /// The frame rates (`truncate+abort+stall`) and the flush rates
    /// (`short+flushfail`) must each sum to at most 1000.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = Self::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{part}`: expected key=value"))?;
            match key {
                "seed" => {
                    plan.seed = value.parse().map_err(|e| format!("fault seed `{value}`: {e}"))?;
                }
                "truncate" | "drop" => {
                    plan.truncate_per_mille = parse_per_mille(key, value)?;
                }
                "abort" => {
                    plan.abort_per_mille = parse_per_mille(key, value)?;
                }
                "short" => {
                    plan.short_write_per_mille = parse_per_mille(key, value)?;
                }
                "flushfail" => {
                    plan.flush_fail_per_mille = parse_per_mille(key, value)?;
                }
                "stall" => {
                    let (rate, ms) = value
                        .split_once(':')
                        .ok_or_else(|| format!("fault stall `{value}`: expected RATE:MS"))?;
                    plan.stall_per_mille = parse_per_mille(key, rate)?;
                    plan.stall_ms =
                        ms.parse().map_err(|e| format!("fault stall ms `{ms}`: {e}"))?;
                }
                "kill" => {
                    let (shard, at) = value
                        .split_once('@')
                        .ok_or_else(|| format!("fault kill `{value}`: expected SHARD@INGEST"))?;
                    plan.kill = Some(ShardKill {
                        shard: shard
                            .parse()
                            .map_err(|e| format!("fault kill shard `{shard}`: {e}"))?,
                        at_ingest: at
                            .parse()
                            .map_err(|e| format!("fault kill ingest `{at}`: {e}"))?,
                    });
                }
                "prockill" => {
                    let (shard, ms) = value
                        .split_once('@')
                        .ok_or_else(|| format!("fault prockill `{value}`: expected SHARD@MS"))?;
                    plan.prockill = Some(ProcessKill {
                        shard: shard
                            .parse()
                            .map_err(|e| format!("fault prockill shard `{shard}`: {e}"))?,
                        after_ms: ms
                            .parse()
                            .map_err(|e| format!("fault prockill ms `{ms}`: {e}"))?,
                    });
                }
                other => return Err(format!("unknown fault key `{other}`")),
            }
        }
        // Each family's rates split one roll out of 1000, so a sum past
        // 1000 would silently starve the later kinds.
        let frame = u32::from(plan.truncate_per_mille)
            + u32::from(plan.abort_per_mille)
            + u32::from(plan.stall_per_mille);
        let flush = u32::from(plan.short_write_per_mille) + u32::from(plan.flush_fail_per_mille);
        for (family, sum) in [("truncate+abort+stall", frame), ("short+flushfail", flush)] {
            if sum > 1000 {
                return Err(format!("fault {family} rates sum to {sum}, max 1000 per mille"));
            }
        }
        Ok(plan)
    }

    /// Decide the fate of frame `index` of lane `lane` on delivery attempt
    /// `attempt`. Deterministic; counts what it returns.
    pub fn frame_fault(&self, lane: u64, index: u64, attempt: u32) -> FrameFault {
        let roll = mix_all(&[self.seed, lane, index, attempt as u64]) % 1000;
        let truncate_below = self.truncate_per_mille as u64;
        let abort_below = truncate_below + self.abort_per_mille as u64;
        let stall_below = abort_below + self.stall_per_mille as u64;
        if roll < truncate_below {
            self.fired.truncated.fetch_add(1, Ordering::Relaxed);
            FrameFault::Truncate
        } else if roll < abort_below {
            self.fired.aborted.fetch_add(1, Ordering::Relaxed);
            FrameFault::Abort
        } else if roll < stall_below {
            self.fired.stalled.fetch_add(1, Ordering::Relaxed);
            FrameFault::Stall { ms: self.stall_ms }
        } else {
            FrameFault::None
        }
    }

    /// True exactly once, when `shard` is about to apply its
    /// `ingest_index`-th ingest and the plan schedules a kill there. The
    /// one-shot is consumed across all clones, so the retry of the killed
    /// command proceeds.
    pub fn should_kill(&self, shard: usize, ingest_index: u64) -> bool {
        let Some(kill) = self.kill else { return false };
        if kill.shard != shard || ingest_index < kill.at_ingest {
            return false;
        }
        // `>=` + one-shot (rather than `==`) so the kill still fires when
        // the exact index is skipped by seq dedup of resent events.
        if self.fired.kill_consumed.swap(true, Ordering::SeqCst) {
            return false;
        }
        self.fired.kills.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Decide the fate of flush operation `op` of the store serving shard
    /// `shard`. Deterministic; counts what it returns. Retried flushes use
    /// a fresh `op` index, so a failed flush re-rolls rather than failing
    /// forever.
    pub fn fs_fault(&self, shard: u64, op: u64) -> FsFault {
        let roll = mix_all(&[self.seed, 0x6673_5F66_6175_6C74, shard, op]) % 1000;
        let short_below = self.short_write_per_mille as u64;
        let fail_below = short_below + self.flush_fail_per_mille as u64;
        if roll < short_below {
            self.fired.short_writes.fetch_add(1, Ordering::Relaxed);
            FsFault::ShortWrite
        } else if roll < fail_below {
            self.fired.flush_fails.fetch_add(1, Ordering::Relaxed);
            FsFault::FlushFail
        } else {
            FsFault::None
        }
    }

    /// How many faults of each kind actually fired so far.
    pub fn injected(&self) -> FaultCounts {
        FaultCounts {
            truncated: self.fired.truncated.load(Ordering::Relaxed),
            aborted: self.fired.aborted.load(Ordering::Relaxed),
            stalled: self.fired.stalled.load(Ordering::Relaxed),
            kills: self.fired.kills.load(Ordering::Relaxed),
            short_writes: self.fired.short_writes.load(Ordering::Relaxed),
            flush_fails: self.fired.flush_fails.load(Ordering::Relaxed),
        }
    }
}

fn parse_per_mille(key: &str, value: &str) -> Result<u16, String> {
    let rate: u16 = value.parse().map_err(|e| format!("fault {key} `{value}`: {e}"))?;
    if rate > 1000 {
        return Err(format!("fault {key} `{value}`: rate is per-mille, max 1000"));
    }
    Ok(rate)
}

/// Deterministic "equal jitter" exponential backoff: half the exponential
/// window plus a seeded pseudo-random half, capped at `max_ms`. Pure in
/// `(seed, lane, attempt)`, so replays back off identically.
pub fn backoff_ms(seed: u64, lane: u64, attempt: u32, base_ms: u64, max_ms: u64) -> u64 {
    let window = base_ms
        .saturating_mul(1u64.checked_shl(attempt.min(20)).unwrap_or(u64::MAX))
        .min(max_ms.max(1));
    let jitter = mix_all(&[seed, lane, attempt as u64, 0x6A69_7474_6572]) % (window / 2 + 1);
    window / 2 + jitter
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference splitmix64 outputs for seeds 0 and 1. Trace ids, head
    /// sampling, shard assignment and rendezvous placement all derive from
    /// `mix64`, so a drift here would silently re-route every user.
    #[test]
    fn mix64_matches_the_standard_splitmix64_vectors() {
        assert_eq!(mix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(mix64(1), 0x910a_2dec_8902_5cc1);
    }

    #[test]
    fn parse_roundtrips_the_readme_example() {
        let plan = FaultPlan::parse(
            "seed=42,truncate=20,abort=10,stall=5:300,short=60,flushfail=40,kill=1@500,\
             prockill=2@750",
        )
        .expect("parse");
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.truncate_per_mille, 20);
        assert_eq!(plan.abort_per_mille, 10);
        assert_eq!(plan.stall_per_mille, 5);
        assert_eq!(plan.stall_ms, 300);
        assert_eq!(plan.short_write_per_mille, 60);
        assert_eq!(plan.flush_fail_per_mille, 40);
        assert_eq!(plan.kill, Some(ShardKill { shard: 1, at_ingest: 500 }));
        assert_eq!(plan.prockill, Some(ProcessKill { shard: 2, after_ms: 750 }));
        assert!(!plan.is_inert());
        assert!(FaultPlan::parse("").expect("empty spec").is_inert());
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultPlan::parse("bogus").is_err());
        assert!(FaultPlan::parse("truncate=1001").is_err());
        assert!(FaultPlan::parse("stall=5").is_err());
        assert!(FaultPlan::parse("kill=3").is_err());
        assert!(FaultPlan::parse("prockill=3").is_err());
        assert!(FaultPlan::parse("prockill=x@10").is_err());
        assert!(FaultPlan::parse("wat=1").is_err());
        for (spec, family) in [
            ("truncate=600,abort=600", "truncate+abort+stall"),
            ("short=700,flushfail=700", "short+flushfail"),
        ] {
            let err = FaultPlan::parse(spec).expect_err(spec);
            assert!(err.contains(family), "{spec}: {err}");
        }
        assert!(FaultPlan::parse("truncate=500,abort=300,stall=200:10").is_ok());
    }

    /// `FaultPlan::none()` is every production config's plan: it never
    /// fires and never counts, whatever the index.
    #[test]
    fn inert_plan_never_fires() {
        let plan = FaultPlan::none();
        for i in 0..10_000u64 {
            assert_eq!(plan.frame_fault(i % 7, i, (i % 3) as u32), FrameFault::None);
            assert_eq!(plan.fs_fault(i % 5, i), FsFault::None);
            assert!(!plan.should_kill((i % 4) as usize, i));
        }
        assert_eq!(plan.injected().total(), 0);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let a = backoff_ms(7, 1, 0, 10, 2_000);
        assert_eq!(a, backoff_ms(7, 1, 0, 10, 2_000), "same inputs, same backoff");
        for attempt in 0..32 {
            let ms = backoff_ms(7, 1, attempt, 10, 2_000);
            assert!((5..=2_000).contains(&ms), "attempt {attempt} backoff {ms}ms out of range");
        }
        assert!(backoff_ms(7, 1, 10, 10, 2_000) >= 1_000, "late attempts reach the cap window");
    }

    #[test]
    fn frame_faults_are_deterministic_and_counted() {
        let plan = FaultPlan::aggressive(99, ShardKill { shard: 0, at_ingest: 0 }, 50);
        let first: Vec<FrameFault> = (0..4_000).map(|i| plan.frame_fault(1, i, 0)).collect();
        let replay = FaultPlan::aggressive(99, ShardKill { shard: 0, at_ingest: 0 }, 50);
        let second: Vec<FrameFault> = (0..4_000).map(|i| replay.frame_fault(1, i, 0)).collect();
        assert_eq!(first, second, "decisions are pure in (seed, lane, index, attempt)");
        let counts = plan.injected();
        assert!(counts.truncated > 0, "aggressive plan never truncated in 4000 frames");
        assert!(counts.aborted > 0, "aggressive plan never aborted in 4000 frames");
        assert!(counts.stalled > 0, "aggressive plan never stalled in 4000 frames");
        // A retried frame re-rolls: not every faulted frame stays faulted.
        let refaulted = (0..4_000)
            .filter(|&i| {
                plan.frame_fault(1, i, 0) != FrameFault::None
                    && plan.frame_fault(1, i, 1) != FrameFault::None
            })
            .count();
        let faulted = (0..4_000).filter(|&i| plan.frame_fault(1, i, 0) != FrameFault::None).count();
        assert!(refaulted < faulted, "attempt number must re-roll the decision");
    }

    #[test]
    fn fs_faults_are_deterministic_counted_and_rerolled() {
        let plan = FaultPlan::aggressive(13, ShardKill { shard: 0, at_ingest: 0 }, 50);
        let first: Vec<FsFault> = (0..2_000).map(|op| plan.fs_fault(1, op)).collect();
        let replay = FaultPlan::aggressive(13, ShardKill { shard: 0, at_ingest: 0 }, 50);
        let second: Vec<FsFault> = (0..2_000).map(|op| replay.fs_fault(1, op)).collect();
        assert_eq!(first, second, "decisions are pure in (seed, shard, op)");
        let counts = plan.injected();
        assert!(counts.short_writes > 0, "aggressive plan never tore a flush in 2000 ops");
        assert!(counts.flush_fails > 0, "aggressive plan never failed a flush in 2000 ops");
        // A failed flush retried under the next op index must not fail
        // forever: some op after every failure flushes clean.
        let fails: Vec<u64> =
            (0..2_000).filter(|&op| first[op as usize] == FsFault::FlushFail).collect();
        assert!(
            fails.iter().any(|&op| first.get(op as usize + 1) == Some(&FsFault::None)),
            "every flush failure was followed by another fault"
        );
    }

    #[test]
    fn shard_kill_fires_exactly_once_across_clones() {
        let plan = FaultPlan::aggressive(7, ShardKill { shard: 2, at_ingest: 10 }, 50);
        let clone = plan.clone();
        assert!(!plan.should_kill(2, 9), "before the planned ingest");
        assert!(!plan.should_kill(1, 10), "wrong shard");
        assert!(plan.should_kill(2, 10), "fires at the planned point");
        assert!(!clone.should_kill(2, 10), "one-shot is shared across clones");
        assert!(!plan.should_kill(2, 11), "never re-fires");
        assert_eq!(plan.injected().kills, 1);
    }
}
