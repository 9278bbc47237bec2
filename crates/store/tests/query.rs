//! Historical reads through the per-user extent index equal a brute-force
//! scan: `EventStore::query(u, t0, t1)` returns exactly the user's records
//! from a full scan of the same log, in log order, filtered to `[t0, t1]`
//! and cut at the user's first record past `t1` — across segment rolls,
//! foreign runs right at the extent gap, interleaved control records, a
//! snapshot plus reopen and a torn-tail reopen. Reads also keep verifying
//! checksums: a corrupt or truncated sealed segment fails the reads that
//! touch it, and only those.

use geosocial_fault::mix64;
use geosocial_store::{
    append_record, scan_records, EventStore, StoreOptions, EXTENT_GAP, SENTINEL_USER,
};
use proptest::prelude::*;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

type Rec = (u32, i64, Vec<u8>);

/// User id of the gap-sized records that separate runs.
const FOREIGN: u32 = 1000;

/// Per-record times and payloads, drawn from one seed by the workspace
/// mixer (`mix64(seed ^ counter)`).
struct Draws {
    seed: u64,
    counter: u64,
}

impl Draws {
    fn next(&mut self) -> u64 {
        self.counter += 1;
        mix64(self.seed ^ self.counter)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("geosocial-store-query-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Segment files of `dir` in log order.
fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".log"))
        })
        .collect();
    files.sort();
    files
}

/// Every record of the log, in order, from a full scan of its segments.
fn full_scan(dir: &Path) -> Vec<Rec> {
    let mut out = Vec::new();
    for path in segment_files(dir) {
        let bytes = fs::read(&path).expect("read segment");
        scan_records(&bytes, |r| {
            out.push((r.user, r.t, r.payload.to_vec()));
            true
        })
        .expect("flushed segments scan clean");
    }
    out
}

/// The brute-force answer: `user`'s records in log order, cut at the
/// first one past `t1`, filtered to `[t0, t1]`.
fn reference(log: &[Rec], user: u32, t0: i64, t1: i64) -> Vec<(i64, Vec<u8>)> {
    let mut out = Vec::new();
    for (u, t, payload) in log {
        if *u != user {
            continue;
        }
        if *t > t1 {
            break;
        }
        if *t >= t0 {
            out.push((*t, payload.clone()));
        }
    }
    out
}

fn query(store: &EventStore, user: u32, t0: i64, t1: i64) -> Vec<(i64, Vec<u8>)> {
    let got = store.query(user, t0, t1).expect("query");
    assert!(got.iter().all(|r| r.user == user), "query returned a foreign record");
    got.into_iter().map(|r| (r.t, r.payload)).collect()
}

/// Payload that makes a `FOREIGN` record at `t = 0` exactly `bytes` long.
fn gap_payload(bytes: u64) -> Vec<u8> {
    let frame = append_record(&mut Vec::new(), FOREIGN, 0, &[]) as u64;
    vec![0xEE; (bytes - frame) as usize]
}

/// Close and reopen the store (the caller has flushed or snapshotted).
fn reopen(store: EventStore, opts: &StoreOptions) -> EventStore {
    let dir = store.dir().to_path_buf();
    drop(store);
    EventStore::open(dir, opts.clone()).expect("reopen")
}

/// Tear the log's tail the way a crash mid-write does: cut the last
/// record of the newest segment short (dropping it from `log`), or leave a
/// partial record header in an empty newest segment.
fn tear_tail(dir: &Path, log: &mut Vec<Rec>) {
    let newest = segment_files(dir).pop().expect("a segment");
    let bytes = fs::read(&newest).expect("read segment");
    if bytes.is_empty() {
        fs::write(&newest, [0xFF; 5]).expect("write partial header");
    } else {
        fs::write(&newest, &bytes[..bytes.len() - 3]).expect("cut last record");
        log.pop();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `query` equals the full-scan reference for `t0 = i64::MIN` on any
    /// per-user times, and for any `t0` when each user's times are
    /// non-decreasing (the documented precondition).
    #[test]
    fn query_equals_full_scan_reference(
        users in 1u32..33,
        runs in prop::collection::vec((0u32..32, 1u64..65, 0u64..301, 0u8..4), 1..96),
        segment_kind in 0u8..2,
        monotone in 0u8..2,
        midway in (0u8..3, 0.0f64..1.0),
        seed in 0u64..u64::MAX,
    ) {
        let dir = tmp_dir(&format!("{seed:016x}"));
        // 512-byte segments put extents against rolls; 1 MiB segments let
        // the gap-sized foreign runs land inside one segment.
        let segment_bytes = if segment_kind == 0 { 512 } else { 1 << 20 };
        let opts = StoreOptions { segment_bytes, ..StoreOptions::default() };
        let monotone = monotone == 1;
        let (event, frac) = midway;
        let event_after = ((runs.len() as f64) * frac) as usize;
        let mut rng = Draws { seed, counter: 0 };
        let mut clock = vec![0i64; users as usize];
        let mut log: Vec<Rec> = Vec::new();
        let mut store = EventStore::open(&dir, opts.clone()).expect("open");

        for (k, &(user, len, max_payload, separator)) in runs.iter().enumerate() {
            let user = user % users;
            for _ in 0..len {
                let t = if monotone {
                    clock[user as usize] += rng.below(3) as i64;
                    clock[user as usize]
                } else {
                    rng.below(2001) as i64 - 1000
                };
                let n = rng.below(max_payload + 1) as usize;
                let payload: Vec<u8> = (0..n).map(|_| rng.next() as u8).collect();
                store.append(user, t, &payload).expect("append");
                log.push((user, t, payload));
            }
            let sep: Option<Rec> = match separator {
                1 => Some((SENTINEL_USER, 0, b"ctl".to_vec())),
                2 => Some((FOREIGN, 0, gap_payload(EXTENT_GAP))),
                3 => Some((FOREIGN, 0, gap_payload(EXTENT_GAP + 1))),
                _ => None,
            };
            if let Some((u, t, payload)) = sep {
                store.append(u, t, &payload).expect("append");
                log.push((u, t, payload));
            }
            if k == event_after && event == 1 {
                store.snapshot(b"midway").expect("snapshot");
                store = reopen(store, &opts);
            } else if k == event_after && event == 2 {
                store.flush().expect("flush");
                drop(store);
                tear_tail(&dir, &mut log);
                store = EventStore::open(&dir, opts.clone()).expect("reopen torn");
            }
            prop_assert_eq!(store.next_lsn(), log.len() as u64);
        }
        store.flush().expect("flush");
        let scan = full_scan(&dir);
        prop_assert_eq!(&scan, &log);

        let check = |store: &EventStore, rng: &mut Draws| -> Result<(), TestCaseError> {
            prop_assert_eq!(store.applied(SENTINEL_USER), 0);
            for user in (0..users).chain([FOREIGN, 999]) {
                let times: Vec<i64> =
                    scan.iter().filter(|r| r.0 == user).map(|r| r.1).collect();
                prop_assert_eq!(store.applied(user), times.len() as u64);
                let pick = |rng: &mut Draws| match times.len() {
                    0 => rng.below(2001) as i64 - 1000,
                    n => times[rng.below(n as u64) as usize] + rng.below(3) as i64 - 1,
                };
                let mut windows = vec![(i64::MIN, i64::MAX)];
                for _ in 0..4 {
                    windows.push((i64::MIN, pick(rng)));
                }
                if monotone && user < users {
                    for _ in 0..6 {
                        windows.push((pick(rng), pick(rng)));
                    }
                }
                for (t0, t1) in windows {
                    prop_assert_eq!(
                        query(store, user, t0, t1),
                        reference(&scan, user, t0, t1),
                        "user {} window [{}, {}]", user, t0, t1
                    );
                }
            }
            Ok(())
        };
        check(&store, &mut rng)?;
        let store = reopen(store, &opts);
        check(&store, &mut rng)?;
        drop(store);
        fs::remove_dir_all(&dir).ok();
    }
}

/// A byte flipped inside user 1's record in a sealed segment fails user
/// 1's reads with an error instead of wrong data; user 2, whose extents
/// never cover that byte, still reads. Truncating or removing the sealed
/// segment on disk is an `io::Error` too, never a panic.
#[test]
fn corrupt_sealed_segment_fails_only_the_reads_that_touch_it() {
    let dir = tmp_dir("corrupt");
    let opts = StoreOptions { segment_bytes: 512, ..StoreOptions::default() };
    let mut store = EventStore::open(&dir, opts).expect("open");
    for i in 0..40 {
        store.append(1, i, &[1; 20]).expect("append");
    }
    for i in 0..40 {
        store.append(2, i, &[2; 20]).expect("append");
    }
    store.flush().expect("flush");
    assert!(store.segment_count() > 3, "user 1 fills sealed segments before user 2 starts");
    let first = segment_files(&dir).remove(0);

    // Byte 12 is inside the body of user 1's first record.
    let mut bytes = fs::read(&first).expect("read");
    bytes[12] ^= 0x40;
    fs::write(&first, &bytes).expect("write");
    let err = store.query(1, i64::MIN, i64::MAX).expect_err("checksum mismatch surfaces");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("checksum"), "{err}");
    assert_eq!(store.query(2, i64::MIN, i64::MAX).expect("user 2 untouched").len(), 40);

    // Truncate the sealed segment under the open store.
    fs::OpenOptions::new().write(true).open(&first).expect("open").set_len(5).expect("truncate");
    let err = store.query(1, i64::MIN, i64::MAX).expect_err("short segment surfaces");
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    assert!(store.replay_delta().is_err(), "a full walk hits the short segment too");
    assert_eq!(store.query(2, i64::MIN, i64::MAX).expect("user 2 untouched").len(), 40);

    // A sealed segment that can no longer be opened fails the same reads,
    // and the store keeps appending and serving everything else.
    fs::remove_file(&first).expect("remove");
    let err = store.query(1, i64::MIN, i64::MAX).expect_err("missing segment surfaces");
    assert_eq!(err.kind(), io::ErrorKind::NotFound, "{err}");
    for i in 40..80 {
        store.append(2, i, &[2; 20]).expect("append after a failed read");
    }
    assert_eq!(store.query(2, i64::MIN, i64::MAX).expect("user 2 untouched").len(), 80);
    drop(store);
    fs::remove_dir_all(&dir).ok();
}
