//! A deterministic metrics registry: counters, gauges, and log-scale
//! histograms.
//!
//! Determinism contract: every update is an atomic operation on a
//! pre-registered handle (name lookup takes a short registry lock; the
//! hot-path update itself is a single wait-free atomic op), histograms
//! use **fixed** power-of-two buckets, and snapshots iterate `BTreeMap`s
//! — so a snapshot's serialized form depends only on the values fed in,
//! never on thread interleaving or registration order. Feed metrics only
//! deterministic quantities (simulated time, counts, simulated spend) and
//! campaign output stays byte-identical across `--jobs` values; wall-clock
//! durations belong in trace events (see [`crate::event`]), never here.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Number of histogram buckets: one for zero plus one per power of two up
/// to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket index recording `value`: bucket 0 holds exactly zero, and
/// bucket `i >= 1` holds `2^(i-1) ..= 2^i - 1`.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The largest value falling in bucket `index` (inclusive upper bound).
///
/// # Panics
///
/// Panics if `index >= HISTOGRAM_BUCKETS`.
pub fn bucket_bound(index: usize) -> u64 {
    assert!(index < HISTOGRAM_BUCKETS, "bucket index out of range");
    match index {
        0 => 0,
        64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point level (e.g. total simulated spend).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }
}

impl Gauge {
    /// Sets the gauge to `value`.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket log-scale histogram of `u64` samples.
///
/// The bucket layout is [`bucket_index`]'s: bucket 0 for zero, then one
/// bucket per power of two. Fixed buckets make the serialized snapshot —
/// including the derived p50/p95/p99 — a pure function of the recorded
/// multiset, independent of recording order.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample.
    // tidy:allow(panic-reachability) -- `bucket_index` returns at most 64 and `buckets` has 65 entries (one per leading-zero class plus the zero bucket).
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// An immutable copy of the histogram's current state, with quantiles
    /// precomputed.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u64, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(index, bucket)| {
                let count = bucket.load(Ordering::Relaxed);
                (count > 0).then(|| (bucket_bound(index), count))
            })
            .collect();
        let count: u64 = buckets.iter().map(|&(_, n)| n).sum();
        let max = self.max.load(Ordering::Relaxed);
        let mut snapshot = HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max,
            p50: 0,
            p95: 0,
            p99: 0,
            buckets,
        };
        snapshot.recompute_quantiles();
        snapshot
    }
}

/// Serializable state of a [`Histogram`], with derived quantiles.
///
/// `buckets` is sparse: `(inclusive upper bound, sample count)` pairs for
/// every non-empty bucket, in ascending bound order. Quantiles are bucket
/// upper bounds clamped to the observed maximum, so a single-valued
/// histogram reports that exact value at every percentile.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (wrapping on overflow).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Sparse `(upper bound, count)` pairs, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// The value at quantile `q` (in `0.0..=1.0`), estimated as the upper
    /// bound of the bucket containing the target rank, clamped to the
    /// observed maximum. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for &(bound, n) in &self.buckets {
            cumulative += n;
            if cumulative >= target {
                return bound.min(self.max);
            }
        }
        self.max
    }

    /// Folds `other`'s samples into this snapshot, bucket-wise, and
    /// recomputes the quantiles. Merging is commutative and associative,
    /// so campaign aggregation is order-independent.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        let mut merged: BTreeMap<u64, u64> = self.buckets.iter().copied().collect();
        for &(bound, n) in &other.buckets {
            *merged.entry(bound).or_insert(0) += n;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.buckets = merged.into_iter().collect();
        self.recompute_quantiles();
    }

    fn recompute_quantiles(&mut self) {
        self.p50 = self.quantile(0.50);
        self.p95 = self.quantile(0.95);
        self.p99 = self.quantile(0.99);
    }
}

/// A named collection of [`Counter`]s, [`Gauge`]s, and [`Histogram`]s.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        lookup(&self.counters, name)
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        lookup(&self.gauges, name)
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        lookup(&self.histograms, name)
    }

    /// A deterministic, serializable copy of every registered metric,
    /// keyed by name in lexicographic order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(name, counter)| (name.clone(), counter.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .iter()
                .map(|(name, gauge)| (name.clone(), gauge.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(name, histogram)| (name.clone(), histogram.snapshot()))
                .collect(),
        }
    }
}

/// The metric named `name` in `map`, registering a default one on first
/// use. Only that first registration allocates the key: every later
/// lookup (each `obs::count`, `obs::gauge`, `obs::observe` under a
/// collector) borrows `name`.
fn lookup<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = map.lock();
    if let Some(metric) = map.get(name) {
        return Arc::clone(metric);
    }
    Arc::clone(map.entry(name.to_owned()).or_default())
}

/// A serializable point-in-time copy of a [`MetricsRegistry`].
///
/// This is the `metrics` block embedded in every campaign
/// [`RunRecord`](https://docs.rs/eaao-campaign) and folded, via
/// [`MetricsSnapshot::merge`], into the campaign-level aggregate.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Whether no metric was ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` into this snapshot: counters add, gauges take the
    /// maximum (the campaign-aggregate reading of "peak level"), and
    /// histograms merge bucket-wise.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &other.gauges {
            let entry = self.gauges.entry(name.clone()).or_insert(*value);
            *entry = entry.max(*value);
        }
        for (name, histogram) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .or_default()
                .merge(histogram);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_lands_in_the_zero_bucket() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_bound(0), 0);
        let histogram = Histogram::default();
        histogram.record(0);
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.buckets, vec![(0, 1)]);
        assert_eq!((snapshot.min, snapshot.max), (0, 0));
        assert_eq!((snapshot.p50, snapshot.p99), (0, 0));
    }

    #[test]
    fn u64_max_lands_in_the_top_bucket() {
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bound(64), u64::MAX);
        let histogram = Histogram::default();
        histogram.record(u64::MAX);
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.buckets, vec![(u64::MAX, 1)]);
        assert_eq!(snapshot.p50, u64::MAX);
        assert_eq!(snapshot.sum, u64::MAX);
    }

    #[test]
    fn bucket_boundaries_split_on_powers_of_two() {
        // Bucket i >= 1 holds 2^(i-1) ..= 2^i - 1.
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(bucket_index((1u64 << 63) - 1), 63);
        for index in 1..HISTOGRAM_BUCKETS {
            let bound = bucket_bound(index);
            assert_eq!(bucket_index(bound), index, "upper bound of bucket {index}");
            if index < 64 {
                assert_eq!(bucket_index(bound + 1), index + 1);
            }
        }
    }

    #[test]
    fn quantiles_clamp_to_the_observed_maximum() {
        let histogram = Histogram::default();
        for value in [5, 5, 5, 5] {
            histogram.record(value);
        }
        let snapshot = histogram.snapshot();
        // Bucket bound is 7, but no sample exceeds 5.
        assert_eq!(snapshot.p50, 5);
        assert_eq!(snapshot.p99, 5);
    }

    #[test]
    fn quantiles_walk_the_cumulative_distribution() {
        let histogram = Histogram::default();
        for value in 1..=100u64 {
            histogram.record(value);
        }
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count, 100);
        assert!(
            snapshot.p50 >= 50 && snapshot.p50 <= 63,
            "p50 = {}",
            snapshot.p50
        );
        assert!(
            snapshot.p95 >= 95 && snapshot.p95 <= 100,
            "p95 = {}",
            snapshot.p95
        );
        assert_eq!(snapshot.max, 100);
        assert_eq!(snapshot.sum, 5050);
    }

    #[test]
    fn snapshots_are_recording_order_independent() {
        let forward = Histogram::default();
        let backward = Histogram::default();
        let values = [0u64, 1, 7, 8, 1023, 1024, u64::MAX];
        for &v in &values {
            forward.record(v);
        }
        for &v in values.iter().rev() {
            backward.record(v);
        }
        assert_eq!(forward.snapshot(), backward.snapshot());
    }

    #[test]
    fn empty_histogram_snapshot_is_all_zero() {
        let snapshot = Histogram::default().snapshot();
        assert_eq!(snapshot, HistogramSnapshot::default());
        assert_eq!(snapshot.quantile(0.99), 0);
    }

    #[test]
    fn merge_equals_recording_into_one_histogram() {
        let left = Histogram::default();
        let right = Histogram::default();
        let combined = Histogram::default();
        for v in [3u64, 9, 1024] {
            left.record(v);
            combined.record(v);
        }
        for v in [0u64, 9, u64::MAX] {
            right.record(v);
            combined.record(v);
        }
        let mut merged = left.snapshot();
        merged.merge(&right.snapshot());
        assert_eq!(merged, combined.snapshot());
    }

    #[test]
    fn snapshot_merge_adds_counters_and_merges_histograms() {
        let a = MetricsRegistry::new();
        a.counter("runs").add(2);
        a.gauge("spend_usd").set(1.5);
        a.histogram("latency").record(10);
        let b = MetricsRegistry::new();
        b.counter("runs").add(3);
        b.gauge("spend_usd").set(0.5);
        b.histogram("latency").record(1000);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counters["runs"], 5);
        assert!((merged.gauges["spend_usd"] - 1.5).abs() < 1e-12);
        assert_eq!(merged.histograms["latency"].count, 2);
        assert_eq!(merged.histograms["latency"].max, 1000);
    }

    #[test]
    fn repeated_lookups_return_the_registered_handle() {
        let registry = MetricsRegistry::new();
        registry.counter("runs").add(2);
        registry.gauge("world.billed_usd").set(1.5);
        registry.histogram("latency").record(10);
        let before = registry.snapshot();
        assert!(Arc::ptr_eq(
            &registry.counter("runs"),
            &registry.counter("runs")
        ));
        assert!(Arc::ptr_eq(
            &registry.gauge("world.billed_usd"),
            &registry.gauge("world.billed_usd")
        ));
        assert!(Arc::ptr_eq(
            &registry.histogram("latency"),
            &registry.histogram("latency")
        ));
        assert_eq!(registry.snapshot(), before);
        // Updates through a looked-up handle reach the registered metric.
        registry.counter("runs").add(1);
        assert_eq!(registry.snapshot().counters["runs"], 3);
    }

    #[test]
    fn snapshots_round_trip_through_json() {
        let registry = MetricsRegistry::new();
        registry.counter("world.ctests").add(7);
        registry.gauge("world.billed_usd").set(12.25);
        registry.histogram("verify.sim_ns").record(1_670_000);
        let snapshot = registry.snapshot();
        let line = serde_json::to_string(&snapshot).expect("serializes");
        let back: MetricsSnapshot = serde_json::from_str(&line).expect("parses");
        assert_eq!(back, snapshot);
    }
}
