//! The global metrics registry: lock-free atomic counters, gauges and
//! log₂-bucketed histograms.
//!
//! Registration ([`counter`], [`gauge`], [`histogram`]) takes the
//! registry mutex once and returns an `Arc` handle; call sites cache the
//! handle (typically in a `OnceLock`) so the hot path is a single relaxed
//! atomic op. Names are dotted paths (`serve.shard.0.verdicts`); the
//! exposition sorts them, so related series group naturally.
//!
//! # Exposition format
//!
//! [`render_text`] emits one line per instrument:
//!
//! ```text
//! # geosocial-obs exposition v1
//! counter serve.events.gps 182520
//! gauge serve.shard.0.queue 17
//! histogram serve.latency_us.gps count=182520 sum=912600 p50=7 p95=15 p99=63 buckets=3:812,7:90100,...
//! ```
//!
//! Histogram buckets are log₂: bucket `i` counts values in
//! `[2^(i-1), 2^i - 1]` (bucket 0 counts zeros) and is printed as
//! `<upper-bound>:<count>`, empty buckets omitted. Quantiles interpolate
//! linearly within the landing bucket (samples assumed uniform across
//! it), so the worst-case error is a fraction of the bucket width rather
//! than a full 2× step.
//!
//! The exposition is **deterministic**: series print in sorted name
//! order (the registry is a `BTreeMap`) and buckets ascend by upper
//! bound, so two renders of the same registry state are byte-identical —
//! CI gates may diff it. Series names carry their unit as a suffix
//! (`_us`, `_bytes`, `_s`); unitless names are dimensionless counts.
//!
//! With the `noop` feature every mutating operation compiles to nothing
//! and the exposition is empty — the build `scripts/bench_obs.sh`
//! benchmarks against.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        #[cfg(not(feature = "noop"))]
        self.0.fetch_add(n, Ordering::Relaxed);
        #[cfg(feature = "noop")]
        let _ = n;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that goes up and down (queue depths, buffered state).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Set the value.
    #[inline]
    pub fn set(&self, v: i64) {
        #[cfg(not(feature = "noop"))]
        self.0.store(v, Ordering::Relaxed);
        #[cfg(feature = "noop")]
        let _ = v;
    }

    /// Add `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        #[cfg(not(feature = "noop"))]
        self.0.fetch_add(d, Ordering::Relaxed);
        #[cfg(feature = "noop")]
        let _ = d;
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtract one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket count: zeros, then one bucket per power of two up to `u64::MAX`.
const BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples (typically microseconds).
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Bucket index of a sample: 0 for 0, else `floor(log2(v)) + 1`.
#[cfg_attr(feature = "noop", allow(dead_code))]
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn observe(&self, v: u64) {
        #[cfg(not(feature = "noop"))]
        {
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
            self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        }
        #[cfg(feature = "noop")]
        let _ = v;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy for exposition (buckets are read without
    /// a global lock; concurrent observes may straddle the read).
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = Vec::new();
        for i in 0..BUCKETS {
            let c = self.buckets[i].load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((bucket_upper(i), c));
            }
        }
        HistSnapshot { count: self.count(), sum: self.sum(), buckets }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, Default)]
pub struct HistSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// `(inclusive upper bound, count)` for every non-empty bucket,
    /// ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate with within-bucket linear interpolation: find
    /// the bucket where the cumulative count reaches rank `q·count`,
    /// then interpolate between the bucket's lower and upper bound
    /// assuming samples are uniform across it. Exact for the 0 and 1
    /// buckets; worst-case error elsewhere is a fraction of the bucket
    /// width (≤ the value itself / 2), so interpolated percentiles agree
    /// with independently measured latencies far better than the old
    /// upper-bound rule.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Fractional target rank in [1, count].
        let target = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut seen = 0u64;
        for &(ub, c) in &self.buckets {
            let before = seen;
            seen += c;
            if seen as f64 >= target {
                // Bucket value range: ub 0 holds only zeros, ub 2^i - 1
                // spans [2^(i-1), 2^i - 1].
                let lower = if ub == 0 { 0 } else { (ub >> 1) + 1 };
                if lower == ub {
                    return ub;
                }
                let frac = ((target - before as f64) / c as f64).clamp(0.0, 1.0);
                let est = lower as f64 + frac * (ub - lower) as f64;
                return (est.round() as u64).clamp(lower, ub);
            }
        }
        self.buckets.last().map_or(0, |&(ub, _)| ub)
    }
}

/// All registered instruments.
#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// The counter named `name`, registering it on first use.
pub fn counter(name: &str) -> Arc<Counter> {
    let mut map = registry().counters.lock().unwrap_or_else(|e| e.into_inner());
    Arc::clone(map.entry(name.to_string()).or_default())
}

/// The gauge named `name`, registering it on first use.
pub fn gauge(name: &str) -> Arc<Gauge> {
    let mut map = registry().gauges.lock().unwrap_or_else(|e| e.into_inner());
    Arc::clone(map.entry(name.to_string()).or_default())
}

/// The histogram named `name`, registering it on first use.
pub fn histogram(name: &str) -> Arc<Histogram> {
    let mut map = registry().histograms.lock().unwrap_or_else(|e| e.into_inner());
    Arc::clone(map.entry(name.to_string()).or_default())
}

/// Define `fn NAME() -> &'static Type` for one fixed-name series: the
/// registry lookup runs on the first call and a static caches the handle
/// after it, so a hot path never takes the registry mutex —
/// `obs::cached!(verdicts, counter, Counter, "serve.verdicts");`.
#[macro_export]
macro_rules! cached {
    ($(#[$doc:meta])* $fn_name:ident, $ctor:ident, $ty:ident, $name:literal) => {
        $(#[$doc])*
        pub(crate) fn $fn_name() -> &'static $crate::$ty {
            static H: ::std::sync::OnceLock<::std::sync::Arc<$crate::$ty>> =
                ::std::sync::OnceLock::new();
            H.get_or_init(|| $crate::$ctor($name))
        }
    };
}

/// Point-in-time copy of the whole registry.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistSnapshot>,
}

/// Snapshot every registered instrument.
pub fn snapshot() -> Snapshot {
    let r = registry();
    let counters = r
        .counters
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(k, v)| (k.clone(), v.get()))
        .collect();
    let gauges = r
        .gauges
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(k, v)| (k.clone(), v.get()))
        .collect();
    let histograms = r
        .histograms
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(k, v)| (k.clone(), v.snapshot()))
        .collect();
    Snapshot { counters, gauges, histograms }
}

/// Render the registry in the line-oriented text exposition format (see
/// the module docs for the grammar).
pub fn render_text() -> String {
    let snap = snapshot();
    let mut out = String::from("# geosocial-obs exposition v1\n");
    for (name, v) in &snap.counters {
        out.push_str(&format!("counter {name} {v}\n"));
    }
    for (name, v) in &snap.gauges {
        out.push_str(&format!("gauge {name} {v}\n"));
    }
    for (name, h) in &snap.histograms {
        out.push_str(&format!(
            "histogram {name} count={} sum={} p50={} p95={} p99={} buckets=",
            h.count,
            h.sum,
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99),
        ));
        for (i, (ub, c)) in h.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{ub}:{c}"));
        }
        out.push('\n');
    }
    out
}

/// One periodic capture of the whole registry (see [`history_tick`]).
#[derive(Debug, Clone)]
pub struct HistoryPoint {
    /// Capture time, unix µs.
    pub at_us: u64,
    /// The registry at that instant.
    pub snap: Snapshot,
}

/// Ring capacity of the metrics history (see [`history_tick`]).
const HISTORY_CAP: usize = 512;

fn history_ring() -> &'static Mutex<std::collections::VecDeque<HistoryPoint>> {
    static RING: OnceLock<Mutex<std::collections::VecDeque<HistoryPoint>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(std::collections::VecDeque::new()))
}

/// Capture the registry into the bounded metrics-history ring (oldest
/// point evicted past 512 entries). The serving layer calls this on a
/// periodic tick; `MetricsHistory` protocol queries read the ring back
/// and compute rates/deltas between points.
pub fn history_tick() {
    let point = HistoryPoint { at_us: crate::trace::now_us(), snap: snapshot() };
    let mut ring = history_ring().lock().unwrap_or_else(|e| e.into_inner());
    if ring.len() >= HISTORY_CAP {
        ring.pop_front();
    }
    ring.push_back(point);
}

/// The most recent `last` history points, oldest first (`0` = all).
pub fn history(last: usize) -> Vec<HistoryPoint> {
    let ring = history_ring().lock().unwrap_or_else(|e| e.into_inner());
    let skip = if last == 0 { 0 } else { ring.len().saturating_sub(last) };
    ring.iter().skip(skip).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_series_is_the_registered_handle() {
        crate::cached!(probe, histogram, Histogram, "test.cached.probe");
        assert!(std::ptr::eq(probe(), probe()));
        assert!(std::ptr::eq(probe(), &*histogram("test.cached.probe")));
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn histogram_quantiles_interpolate_within_buckets() {
        let h = Histogram::default();
        for v in [0u64, 1, 1, 2, 3, 5, 100, 1000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 8);
        assert_eq!(s.sum, 1112);
        // Rank 4 of 8 lands halfway through the [2,3] bucket: 2.5 → 3.
        assert_eq!(s.quantile(0.50), 3);
        // The extremes stay exact.
        assert_eq!(s.quantile(1.0), 1023);
        assert_eq!(s.quantile(0.0), 0);
        assert!((s.mean() - 139.0).abs() < 1.0);
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn interpolated_quantile_error_bounds() {
        // Uniform 1..=1000, one sample each: true p50 = 500, p99 = 990.
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.50);
        let p99 = s.quantile(0.99);
        // Interpolation pins p50 to ~1% of truth and p99 to ~3%; the old
        // upper-bound rule returned 511 and 1023 (2.2% and 3.3% high on
        // a distribution that FITS the buckets — up to 2x in general).
        assert!((p50 as i64 - 500).unsigned_abs() <= 5, "p50={p50}");
        assert!((p99 as i64 - 990).unsigned_abs() <= 30, "p99={p99}");
        // Monotone in q.
        assert!(s.quantile(0.25) <= p50 && p50 <= s.quantile(0.75));
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn exposition_is_deterministic_and_sorted() {
        // Register out of order; the exposition must sort by name and be
        // byte-identical across renders.
        counter("test.render.b").inc();
        counter("test.render.a").inc();
        histogram("test.render.h_us").observe(3);
        histogram("test.render.h_us").observe(300);
        // Other tests in this process move their own series concurrently;
        // compare only this test's series across the two renders.
        let own = |text: String| -> String {
            text.lines().filter(|l| l.contains("test.render.")).collect::<Vec<_>>().join("\n")
        };
        let once = own(render_text());
        let twice = own(render_text());
        assert_eq!(once, twice, "render_text must be deterministic");
        let a = once.find("counter test.render.a").unwrap();
        let b = once.find("counter test.render.b").unwrap();
        assert!(a < b, "series must print in sorted order:\n{once}");
        // Buckets ascend by upper bound.
        let line = once.lines().find(|l| l.contains("test.render.h_us")).unwrap();
        let buckets = line.rsplit("buckets=").next().unwrap();
        let ubs: Vec<u64> =
            buckets.split(',').map(|p| p.split(':').next().unwrap().parse().unwrap()).collect();
        assert!(ubs.windows(2).all(|w| w[0] < w[1]), "{line}");
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn history_ring_is_bounded_and_ordered() {
        counter("test.history.ticks").inc();
        history_tick();
        counter("test.history.ticks").inc();
        history_tick();
        let points = history(2);
        assert_eq!(points.len(), 2);
        assert!(points[0].at_us <= points[1].at_us);
        let first = points[0].snap.counters["test.history.ticks"];
        let last = points[1].snap.counters["test.history.ticks"];
        assert!(last > first, "{first} -> {last}");
        assert_eq!(history(1).len(), 1);
        assert!(history(0).len() >= 2, "0 returns everything");
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn registry_returns_shared_handles_and_renders() {
        let c = counter("test.metrics.shared");
        let c2 = counter("test.metrics.shared");
        c.add(5);
        c2.inc();
        assert_eq!(c.get(), 6);

        let g = gauge("test.metrics.gauge");
        g.set(7);
        g.dec();
        assert_eq!(g.get(), 6);

        let h = histogram("test.metrics.hist");
        h.observe(9);

        let text = render_text();
        assert!(text.starts_with("# geosocial-obs exposition v1\n"), "{text}");
        assert!(text.contains("counter test.metrics.shared 6\n"), "{text}");
        assert!(text.contains("gauge test.metrics.gauge 6\n"), "{text}");
        assert!(text.contains("histogram test.metrics.hist count=1 sum=9"), "{text}");
        assert!(text.contains("buckets=15:1"), "{text}");

        let snap = snapshot();
        assert_eq!(snap.counters["test.metrics.shared"], 6);
        assert_eq!(snap.histograms["test.metrics.hist"].count, 1);
    }

    #[cfg(feature = "noop")]
    #[test]
    fn noop_feature_disables_mutation() {
        let c = counter("test.noop.counter");
        c.add(5);
        assert_eq!(c.get(), 0);
        let h = histogram("test.noop.hist");
        h.observe(9);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let s = HistSnapshot::default();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }
}
