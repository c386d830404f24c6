//! The metric primitives and the registry that names them.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-shared atomic
//! cells: the registry keeps one canonical handle per name, and every
//! clone updates the same storage. An update takes no lock and no string
//! lookup, but it is still a compare-and-swap loop on a shared cache line
//! (a gauge, one `fetch_max`). That suits handles shared across threads;
//! a single-threaded hot path counts into plain fields and a
//! [`HistogramTally`] instead and publishes once (see the crate docs).
//!
//! All updates use saturating arithmetic so a metric can never wrap: a
//! counter stuck at `u64::MAX` is a visible anomaly, a counter that wrapped
//! past zero is a silent lie.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::snapshot::{HistogramSnapshot, MetricsSnapshot};

/// Add `v` to an atomic cell, saturating at `u64::MAX`.
fn saturating_add(cell: &AtomicU64, v: u64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(v);
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A monotonically increasing count. Merges across shards by (saturating)
/// sum.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, unregistered counter at zero (tests, placeholders).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Count one occurrence.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Count `n` occurrences.
    #[inline]
    pub fn add(&self, n: u64) {
        saturating_add(&self.0, n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// A high-water gauge: retains the maximum value ever recorded. Merges
/// across shards by max, which keeps sharded runs deterministic (max is
/// commutative and associative, unlike "last write wins").
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh, unregistered gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Raise the gauge to `v` if `v` exceeds the current value.
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current (maximum observed) value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

/// Number of histogram buckets: one for zero plus one per power of two
/// (`1 + ilog2(u64::MAX) + 1 = 65`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket a value lands in: bucket 0 holds exactly the value 0;
/// bucket `i >= 1` holds `[2^(i-1), 2^i)`. `u64::MAX` lands in bucket 64.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    match v {
        0 => 0,
        _ => 1 + v.ilog2() as usize,
    }
}

/// The smallest value belonging to bucket `i` (the inverse of
/// [`bucket_index`] on bucket boundaries).
pub fn bucket_floor(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A log2-bucketed histogram of `u64` samples. Merges across shards by
/// bucket-wise (saturating) sum.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// A fresh, unregistered histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` identical samples (bulk import of pre-counted data).
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        saturating_add(&self.0.buckets[bucket_index(v)], n);
        saturating_add(&self.0.count, n);
        saturating_add(&self.0.sum, v.saturating_mul(n));
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Add every sample of `tally` (bucket-wise saturating sum): one
    /// owner's counts published in one step.
    pub fn absorb(&self, tally: &HistogramTally) {
        for (cell, b) in self.0.buckets.iter().zip(&tally.buckets) {
            if b.get() > 0 {
                saturating_add(cell, b.get());
            }
        }
        saturating_add(&self.0.count, tally.count.get());
        saturating_add(&self.0.sum, tally.sum.get());
    }

    /// Freeze the current state into plain data.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = BTreeMap::new();
        for (i, b) in self.0.buckets.iter().enumerate() {
            let v = b.load(Ordering::Relaxed);
            if v > 0 {
                buckets.insert(i as u32, v);
            }
        }
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

/// A histogram's samples counted in plain cells by their single owner,
/// published into a shared [`Histogram`] with [`Histogram::absorb`].
///
/// Recording takes `&self` (the cells are [`Cell`]s), so an owner can count
/// from a `&self` method; the tally is therefore neither `Sync` nor meant
/// to be shared. It saturates like [`Histogram`].
pub struct HistogramTally {
    buckets: [Cell<u64>; HISTOGRAM_BUCKETS],
    count: Cell<u64>,
    sum: Cell<u64>,
}

impl Default for HistogramTally {
    fn default() -> Self {
        HistogramTally {
            buckets: std::array::from_fn(|_| Cell::new(0)),
            count: Cell::new(0),
            sum: Cell::new(0),
        }
    }
}

impl HistogramTally {
    /// An empty tally.
    pub fn new() -> Self {
        HistogramTally::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let bucket = &self.buckets[bucket_index(v)];
        bucket.set(bucket.get().saturating_add(1));
        self.count.set(self.count.get().saturating_add(1));
        self.sum.set(self.sum.get().saturating_add(v));
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Sum of the samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum.get()
    }
}

impl std::fmt::Debug for HistogramTally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramTally")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Metric state is plain atomics/maps: a panic elsewhere cannot leave it
    // logically inconsistent, so recover from poisoning instead of
    // propagating it.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The registry: names metrics, hands out shared handles, snapshots.
///
/// One registry per simulation domain — the sharded generator runs one per
/// shard and merges the snapshots, which is what keeps the merged metrics
/// independent of worker count.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The registered counter named `name`, creating it at zero on first
    /// use. The returned handle shares storage with every other handle of
    /// the same name from this registry.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = lock(&self.counters);
        match map.get(name) {
            Some(c) => c.clone(),
            None => {
                let c = Counter::default();
                map.insert(name.to_owned(), c.clone());
                c
            }
        }
    }

    /// The registered high-water gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = lock(&self.gauges);
        match map.get(name) {
            Some(g) => g.clone(),
            None => {
                let g = Gauge::default();
                map.insert(name.to_owned(), g.clone());
                g
            }
        }
    }

    /// The registered histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = lock(&self.histograms);
        match map.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = Histogram::default();
                map.insert(name.to_owned(), h.clone());
                h
            }
        }
    }

    /// Freeze every registered metric into plain, mergeable data.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = lock(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = lock(&self.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = lock(&self.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("counters", &lock(&self.counters).len())
            .field("gauges", &lock(&self.gauges).len())
            .field("histograms", &lock(&self.histograms).len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_storage() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(r.counter("x").get(), 5);
        assert_eq!(r.snapshot().counters["x"], 5);
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.add(10);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_keeps_high_water() {
        let r = MetricsRegistry::new();
        let g = r.gauge("depth");
        g.record_max(10);
        g.record_max(3);
        g.record_max(12);
        g.record_max(5);
        assert_eq!(g.get(), 12);
    }

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(bucket_index((1u64 << 63) - 1), 63);
    }

    #[test]
    fn bucket_floor_inverts_index_on_boundaries() {
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(bucket_floor(i)), i);
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(1000);
        h.record_n(u64::MAX, 2);
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, u64::MAX, "sum saturates");
        assert_eq!(s.buckets[&0], 1);
        assert_eq!(s.buckets[&1], 1);
        assert_eq!(s.buckets[&10], 1, "1000 is in [512, 1024)");
        assert_eq!(s.buckets[&64], 2);
    }

    #[test]
    fn record_n_zero_is_a_noop() {
        let h = Histogram::new();
        h.record_n(42, 0);
        assert_eq!(h.count(), 0);
        assert!(h.snapshot().buckets.is_empty());
    }

    #[test]
    fn absorbing_a_tally_equals_recording_each_sample() {
        let samples = [0, 1, 3, 1000, 1000, u64::MAX];
        let direct = Histogram::new();
        let tally = HistogramTally::new();
        for &v in &samples {
            direct.record(v);
            tally.record(v);
        }
        let published = Histogram::new();
        published.record(7);
        direct.record(7);
        published.absorb(&tally);
        assert_eq!(published.snapshot(), direct.snapshot());
        assert_eq!((tally.count(), tally.sum()), (6, u64::MAX));
        // An empty tally publishes nothing.
        published.absorb(&HistogramTally::new());
        assert_eq!(published.snapshot(), direct.snapshot());
    }

    #[test]
    fn handles_are_usable_across_threads() {
        let r = MetricsRegistry::new();
        let c = r.counter("shared");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}
