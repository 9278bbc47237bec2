//! The store's index metrics: the `store.index.extents` gauge counts every
//! open store's extents once (claimed on open and append, released on
//! drop, so a reopen never double-counts), and each historical read lands
//! in the `store.latency_us.query` histogram. One test in its own binary:
//! the series are process-global.

use geosocial_obs::{gauge, histogram};
use geosocial_store::{EventStore, StoreOptions};

#[test]
fn extents_gauge_is_claimed_and_released_and_reads_are_timed() {
    let extents = gauge("store.index.extents");
    let reads = histogram("store.latency_us.query");
    let base = extents.get();
    let dir = |tag: &str| {
        let d = std::env::temp_dir()
            .join(format!("geosocial-store-gauge-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    };

    let mut a = EventStore::open(dir("a"), StoreOptions::default()).expect("open");
    // Three users, one contiguous run each: three extents.
    for user in 0..3u32 {
        for i in 0..10 {
            a.append(user, i, b"payload").expect("append");
        }
    }
    assert_eq!(extents.get(), base + 3);
    a.flush().expect("flush");
    let a_dir = a.dir().to_path_buf();
    drop(a);
    assert_eq!(extents.get(), base, "drop releases the claim");

    let a = EventStore::open(&a_dir, StoreOptions::default()).expect("reopen");
    assert_eq!(extents.get(), base + 3, "reopen re-claims from zero");
    let mut b = EventStore::open(dir("b"), StoreOptions::default()).expect("open");
    b.append(7, 0, b"x").expect("append");
    assert_eq!(extents.get(), base + 4, "stores add up");

    let before = reads.count();
    assert_eq!(a.query(1, i64::MIN, i64::MAX).expect("query").len(), 10);
    assert_eq!(reads.count(), before + 1);

    let b_dir = b.dir().to_path_buf();
    drop(a);
    drop(b);
    assert_eq!(extents.get(), base);
    std::fs::remove_dir_all(a_dir).ok();
    std::fs::remove_dir_all(b_dir).ok();
}
