//! The metrics registry — the list of pull-time [`MetricsSource`]s —
//! and the log-bucketed [`Histogram`] the sources record into.
//!
//! Every series is read from its owner at scrape time: subsystems keep
//! their own counters and histograms, and the registry only remembers
//! whom to ask. Its one lock is taken to register a source (startup)
//! and to snapshot (scrape), both cold; `Histogram::record` touches only
//! the histogram's own atomics, so instrumented hot paths pay a handful
//! of uncontended atomic RMWs and nothing else.

use crate::source::{MetricsSnapshot, MetricsSource, Sample};
use sched::sync::atomic::{AtomicU64, Ordering};
use sched::sync::RwLock;
use std::sync::Arc;

/// Total histogram buckets: 16 exact small-value buckets plus 4
/// sub-buckets per power of two up to `u64::MAX` (16 + 60×4 = 256).
pub const HISTOGRAM_BUCKETS: usize = 256;

/// Values below this index exactly (one bucket per integer).
const EXACT_LIMIT: u64 = 16;

/// The bucket a value lands in.
///
/// Values `0..16` get an exact bucket each; larger values share a
/// power-of-two octave split into 4 sub-buckets (2 significant bits),
/// bounding relative quantile error at 12.5% (see
/// [`Histogram::quantile`]).
pub fn bucket_index(value: u64) -> usize {
    if value < EXACT_LIMIT {
        return value as usize;
    }
    // value ≥ 16 ⇒ leading_zeros ≤ 59 ⇒ exponent ∈ 4..=63.
    let exponent = 63 - value.leading_zeros() as usize;
    let sub = ((value >> (exponent - 2)) & 3) as usize;
    EXACT_LIMIT as usize + (exponent - 4) * 4 + sub
}

/// Inclusive `[low, high]` value range of bucket `index`.
///
/// Callers pass indices below [`HISTOGRAM_BUCKETS`]; anything larger is
/// clamped to the top bucket.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    if (index as u64) < EXACT_LIMIT {
        return (index as u64, index as u64);
    }
    let off = index.min(HISTOGRAM_BUCKETS - 1) - EXACT_LIMIT as usize;
    let exponent = 4 + off / 4;
    let sub = (off % 4) as u64;
    let width = 1u64 << (exponent - 2);
    let low = (1u64 << exponent) + sub * width;
    (low, low.wrapping_add(width - 1))
}

/// A fixed-size log-bucketed latency/size distribution.
///
/// `record` is lock-free and wait-free on the bucket array: one
/// `fetch_add` per bucket/sum, one `fetch_max`, and a releasing count
/// increment that publishes the sample to snapshot readers.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
    /// Samples recorded. Incremented last with `Release` so a reader
    /// that `Acquire`-loads the count observes every bucket/sum/max
    /// write of the samples it counts (buckets may run *ahead* of the
    /// count mid-record, never behind).
    // lint: publishes
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample. Lock-free; safe from any number of threads.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Release);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Acquire)
    }

    /// A coherent copy of the distribution.
    ///
    /// The snapshot's bucket total, `sum`, and `max` cover **at least**
    /// the samples in its `count` (a record racing the snapshot may
    /// have landed its bucket but not yet its count); quantiles are
    /// computed over the bucket total so the snapshot is internally
    /// consistent.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Acquire);
        let sum = self.sum.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let buckets: [u64; HISTOGRAM_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        HistogramSnapshot {
            count,
            sum,
            max,
            buckets,
        }
    }

    /// Estimate the `q`-quantile (see [`HistogramSnapshot::quantile`]).
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Samples published at snapshot time.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Per-bucket sample counts (see [`bucket_bounds`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Total samples across the bucket array (≥ `count` if records
    /// raced the snapshot).
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Estimate the `q`-quantile (`q` clamped to `[0, 1]`).
    ///
    /// Returns the midpoint of the bucket holding the rank-`⌈q·n⌉`
    /// sample: exact for values below 16, within 12.5% relative error
    /// otherwise (bucket width is a quarter octave, midpoint halves
    /// it). Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based; q = 0 means rank 1.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        if rank == total {
            // The target is the largest sample, which is tracked
            // exactly.
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (low, high) = bucket_bounds(i);
                // Midpoint without overflow; the top bucket's cap is
                // the recorded max, which is tighter than u64::MAX.
                let mid = low + (high - low) / 2;
                return mid.min(self.max);
            }
        }
        self.max
    }
}

/// The registry every stats-bearing subsystem plugs into: a list of
/// [`MetricsSource`]s sampled at scrape time, so subsystems keep their
/// own counters and the registry adapts rather than replaces them.
#[derive(Default)]
pub struct MetricsRegistry {
    sources: RwLock<Vec<Arc<dyn MetricsSource>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Attach a pull-time source, sampled on every snapshot.
    pub fn register_source(&self, source: Arc<dyn MetricsSource>) {
        self.sources.write().push(source);
    }

    /// Sample every registered source into one deterministic,
    /// name-sorted snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut samples = Vec::new();
        for source in self.sources.read().iter() {
            source.collect(&mut samples);
        }
        samples.sort_by(|a, b| {
            (&a.family, &a.suffix, &a.labels).cmp(&(&b.family, &b.suffix, &b.labels))
        });
        MetricsSnapshot { samples }
    }
}

/// Flatten one histogram snapshot into the six summary samples of the
/// exposition format (`quantile="0.5|0.9|0.99"`, `_sum`, `_count`,
/// `_max`), each carrying `labels` — the helper every
/// [`MetricsSource`] with labelled latency histograms uses (the
/// tracer's per-stage summaries, the serve edge's per-endpoint
/// request latencies).
pub fn push_summary(
    out: &mut Vec<Sample>,
    family: &str,
    labels: &[(String, String)],
    snap: &HistogramSnapshot,
) {
    for (q, tag) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
        let mut s = Sample::summary_quantile(family, tag, snap.quantile(q));
        s.labels.extend(labels.iter().cloned());
        // Keep the quantile label last-stable: sort by key for
        // deterministic exposition regardless of insertion order.
        s.labels.sort();
        out.push(s);
    }
    for (suffix, value) in [("_sum", snap.sum), ("_count", snap.count), ("_max", snap.max)] {
        let mut s = Sample::summary_part(family, suffix, value);
        s.labels.extend(labels.iter().cloned());
        s.labels.sort();
        out.push(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FixedSource;

    #[test]
    fn exact_buckets_below_sixteen() {
        for v in 0..16u64 {
            let i = bucket_index(v);
            assert_eq!(bucket_bounds(i), (v, v));
        }
    }

    #[test]
    fn bucket_bounds_partition_the_u64_line() {
        // Consecutive buckets tile without gap or overlap.
        let mut expected_low = 0u64;
        for i in 0..HISTOGRAM_BUCKETS {
            let (low, high) = bucket_bounds(i);
            assert_eq!(low, expected_low, "bucket {i} low");
            assert!(high >= low, "bucket {i} ordering");
            if i + 1 == HISTOGRAM_BUCKETS {
                assert_eq!(high, u64::MAX);
                break;
            }
            expected_low = high + 1;
        }
    }

    #[test]
    fn every_value_lands_in_its_bucket() {
        for v in [
            0,
            1,
            15,
            16,
            17,
            19,
            20,
            31,
            32,
            1000,
            u64::from(u32::MAX),
            1 << 62,
            u64::MAX,
        ] {
            let (low, high) = bucket_bounds(bucket_index(v));
            assert!(low <= v && v <= high, "value {v} in [{low}, {high}]");
        }
    }

    #[test]
    fn histogram_quantiles_over_known_data() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.sum, 5050);
        assert_eq!(snap.max, 100);
        let p50 = snap.quantile(0.5);
        let p99 = snap.quantile(0.99);
        assert!((38..=63).contains(&p50), "p50 = {p50}");
        assert!((87..=100).contains(&p99), "p99 = {p99}");
        assert_eq!(snap.quantile(1.0), 100);
    }

    #[test]
    fn snapshot_is_name_sorted_and_deterministic() {
        let reg = MetricsRegistry::new();
        let h = Histogram::new();
        h.record(5);
        let mut samples = vec![
            Sample::counter("evorec_b_total", 1),
            Sample::counter("evorec_a_total", 1),
        ];
        push_summary(&mut samples, "evorec_c_nanos", &[], &h.snapshot());
        reg.register_source(Arc::new(FixedSource::new(samples)));
        let a = reg.snapshot();
        let b = reg.snapshot();
        let names: Vec<String> = a.samples.iter().map(|s| s.full_name()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(a.render_prometheus(), b.render_prometheus());
    }
}
