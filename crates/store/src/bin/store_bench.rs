//! Micro-benchmark for the event store, emitting one JSON document to
//! stdout (captured as `BENCH_store.json` by `scripts/bench_store.sh`):
//!
//! - append throughput (records/s and MiB/s) with background flushing,
//! - recovery (reopen) time as a function of delta size past the snapshot,
//! - as-of query latency through the per-user extent index (one
//!   positioned read per extent of the user's records), and the index's
//!   size (`store.index.extents`; 24 B each). Round-robin appends with
//!   more than `EXTENT_GAP` bytes of other users' records between two of
//!   one user's give every record its own extent, the index's worst case.
//!
//! Usage: `geosocial-store-bench [records] [payload_bytes] [users]`

use geosocial_store::{EventStore, StoreOptions};
use std::time::Instant;

fn bench_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("geosocial-store-bench-{}-{tag}", std::process::id()))
}

fn fresh(tag: &str, opts: StoreOptions) -> EventStore {
    let dir = bench_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    EventStore::open(dir, opts).expect("open bench store")
}

fn main() {
    let mut args = std::env::args().skip(1);
    let records: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(200_000);
    let payload_bytes: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(64);
    let users: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(256);
    let payload = vec![0xA5u8; payload_bytes];
    let opts = StoreOptions::default();

    // --- Append throughput ---------------------------------------------
    let mut store = fresh("append", opts.clone());
    let start = Instant::now();
    for i in 0..records {
        let user = (i % u64::from(users)) as u32;
        store.append(user, i as i64, &payload).expect("append");
    }
    store.flush().expect("flush");
    let append_s = start.elapsed().as_secs_f64();
    let bytes = store.total_bytes();
    let append_per_s = records as f64 / append_s;
    let append_mib_s = bytes as f64 / (1024.0 * 1024.0) / append_s;
    let segments = store.segment_count();
    // Only this store is open here, so the gauge is its extent count.
    let extents = geosocial_obs::gauge("store.index.extents").get();

    // --- Recovery time vs delta size -----------------------------------
    // Snapshot at increasing coverage, reopen, and time the open (scan +
    // index rebuild) plus the delta replay walk.
    let mut recovery = Vec::new();
    for f in [0u64, 25, 50, 75, 100] {
        let covered = records * f / 100;
        let mut s = fresh("recover", opts.clone());
        for i in 0..records {
            let user = (i % u64::from(users)) as u32;
            s.append(user, i as i64, &payload).expect("append");
            if i + 1 == covered {
                s.snapshot(b"bench-state").expect("snapshot");
            }
        }
        if covered == records {
            s.snapshot(b"bench-state").expect("snapshot");
        }
        s.flush().expect("flush");
        let dir = s.dir().to_path_buf();
        drop(s);
        let t0 = Instant::now();
        let reopened = EventStore::open(&dir, opts.clone()).expect("reopen");
        let delta = reopened.replay_delta().expect("delta");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        recovery
            .push(format!("{{\"delta_records\": {}, \"reopen_replay_ms\": {ms:.3}}}", delta.len()));
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // --- As-of query latency -------------------------------------------
    // Hot store from the append phase: per-user as-of reads at the
    // three-quarter point of history.
    let t_hi = (records as i64 * 3) / 4;
    let queries = u64::from(users.min(64));
    let t0 = Instant::now();
    let mut fetched = 0usize;
    for u in 0..queries {
        fetched += store.query(u as u32, i64::MIN, t_hi).expect("query").len();
    }
    let asof_us = t0.elapsed().as_secs_f64() * 1e6 / queries as f64;

    let dir = store.dir().to_path_buf();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    println!("{{");
    println!("  \"records\": {records},");
    println!("  \"payload_bytes\": {payload_bytes},");
    println!("  \"users\": {users},");
    println!("  \"segments\": {segments},");
    println!("  \"log_bytes\": {bytes},");
    println!("  \"append_per_s\": {append_per_s:.0},");
    println!("  \"append_mib_s\": {append_mib_s:.2},");
    println!("  \"index_extents\": {extents},");
    println!("  \"index_extents_per_record\": {:.4},", extents as f64 / records as f64);
    println!("  \"recovery\": [{}],", recovery.join(", "));
    println!("  \"asof_queries\": {queries},");
    println!("  \"asof_fetched\": {fetched},");
    println!("  \"asof_query_us\": {asof_us:.1}");
    println!("}}");
}
