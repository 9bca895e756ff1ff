//! Log-linear bucketed histogram for latency-style `u64` samples.
//!
//! The bucket layout is HdrHistogram-shaped: values below [`SUB_BUCKETS`]
//! get one exact bucket each, and every power-of-two octave above that is
//! split into [`SUB_BUCKETS`] equal sub-buckets. Bucket width is therefore
//! at most `1/SUB_BUCKETS` of the value (≤ 6.25% relative error), which is
//! plenty for p50/p95/p99 reporting while keeping the whole `u64` range in
//! [`NUM_BUCKETS`] fixed slots — recording is two relaxed atomic adds and
//! two relaxed min/max updates, no allocation, no locks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sub-buckets per octave (and the number of exact low-value buckets).
pub const SUB_BUCKETS: usize = 16;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// Total number of buckets covering all of `u64` (octaves `SUB_BITS..=63`
/// at [`SUB_BUCKETS`] each, plus the exact low-value block).
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS;

/// The bucket index a value falls into.
///
/// Values `0..16` map to buckets `0..16` exactly (in fact every value below
/// `2·SUB_BUCKETS` has its own bucket); larger values share a bucket with
/// at most `lower_bound/16` of their neighbours.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros(); // floor(log2 v), ≥ SUB_BITS
    let sub = ((v >> (octave - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
    ((octave - SUB_BITS) as usize + 1) * SUB_BUCKETS + sub
}

/// Inclusive lower and exclusive upper value bound of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < NUM_BUCKETS, "bucket index out of range");
    if i < SUB_BUCKETS {
        return (i as u64, i as u64 + 1);
    }
    let octave = (i / SUB_BUCKETS - 1) as u32 + SUB_BITS;
    let sub = (i % SUB_BUCKETS) as u64;
    let width = 1u64 << (octave - SUB_BITS);
    let lower = (SUB_BUCKETS as u64 + sub) * width;
    (lower, lower.saturating_add(width))
}

/// Shared histogram storage. Handles ([`Histogram`]) are cheap clones of an
/// `Arc` around this.
#[derive(Debug)]
pub(crate) struct HistogramCore {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    pub(crate) fn new() -> Self {
        Self {
            // `AtomicU64` is not Copy; build the array through a Vec.
            buckets: (0..NUM_BUCKETS)
                .map(|_| AtomicU64::new(0))
                .collect::<Vec<_>>()
                .into_boxed_slice()
                .try_into()
                .expect("NUM_BUCKETS entries"),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        // Two read-modify-writes per record: the sample count is the sum
        // of the buckets, taken at snapshot time.
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        // The extremes settle after a few samples; from then on a plain
        // load replaces two read-modify-writes per record. Skipping is safe
        // because `min` only falls and `max` only rises: a sample that does
        // not beat the value just read cannot beat a later one either.
        if v < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((i as u32, c));
            }
        }
        let count = buckets.iter().map(|&(_, c)| c).sum();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A histogram handle. Cloning shares the underlying storage; recording
/// through a handle from a disabled registry is a no-op.
#[derive(Debug, Clone)]
pub struct Histogram {
    pub(crate) core: Arc<HistogramCore>,
    pub(crate) enabled: bool,
}

impl Histogram {
    /// A detached, disabled histogram: every record is a no-op. Useful as
    /// the default for optional instrumentation fields.
    pub fn disabled() -> Self {
        Self { core: Arc::new(HistogramCore::new()), enabled: false }
    }

    /// True if records through this handle are kept.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if self.enabled {
            self.core.record(v);
        }
    }

    /// Record a [`std::time::Duration`] in nanoseconds (saturating).
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.core.snapshot()
    }
}

/// An immutable copy of a histogram's state: totals plus the non-empty
/// buckets (`(bucket_index, count)`, ascending by index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (wrapping is the caller's problem at ~584 years
    /// of nanoseconds).
    pub sum: u64,
    /// Smallest recorded sample (0 when empty).
    pub min: u64,
    /// Largest recorded sample (0 when empty).
    pub max: u64,
    /// Non-empty `(bucket_index, count)` pairs, ascending by index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper edge of the bucket
    /// holding the rank-`⌈q·count⌉` sample — i.e. "q of samples were ≤ this".
    ///
    /// The estimate lands in the same bucket as the exact sort-based
    /// quantile, so its relative error is bounded by the bucket width
    /// (≤ 1/16 of the value; exact for values < 32). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(i, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                let (_, upper) = bucket_bounds(i as usize);
                // Clamp to the observed maximum so e.g. p99 never exceeds
                // max; the result stays inside the bucket (max is at least
                // the bucket's lower bound when this is the last non-empty
                // bucket).
                return (upper - 1).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`Self::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Arithmetic mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_values_get_exact_buckets() {
        // Every value below 2·SUB_BUCKETS is its own bucket.
        for v in 0..(2 * SUB_BUCKETS as u64) {
            assert_eq!(bucket_index(v), v as usize, "v={v}");
            let (lo, hi) = bucket_bounds(v as usize);
            assert_eq!((lo, hi), (v, v + 1));
        }
    }

    #[test]
    fn bounds_and_index_agree_across_the_range() {
        // For every bucket: both edges map back to the bucket, and the
        // value just past the upper edge maps to the next one.
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "lower edge of {i}");
            assert_eq!(bucket_index(hi - 1), i, "upper edge of {i}");
            if hi < u64::MAX && i + 1 < NUM_BUCKETS {
                assert_eq!(bucket_index(hi), i + 1, "first value past {i}");
            }
        }
    }

    #[test]
    fn buckets_partition_contiguously() {
        for i in 1..NUM_BUCKETS {
            assert_eq!(bucket_bounds(i - 1).1, bucket_bounds(i).0, "gap before bucket {i}");
        }
        assert_eq!(bucket_bounds(0).0, 0);
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [100u64, 999, 12_345, 1 << 30, u64::MAX / 3] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v < hi);
            let width = hi - lo;
            assert!(width as f64 <= lo as f64 / (SUB_BUCKETS as f64 - 1.0) + 1.0);
        }
    }

    #[test]
    fn extreme_values_are_representable() {
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
        assert_eq!(bucket_index(0), 0);
        let (lo, hi) = bucket_bounds(bucket_index(u64::MAX));
        assert!(hi > lo);
        // The top bucket's lower bound maps back to the same bucket.
        assert_eq!(bucket_index(lo), bucket_index(u64::MAX));
    }

    #[test]
    fn snapshot_totals_and_quantiles() {
        let h = Histogram { core: Arc::new(HistogramCore::new()), enabled: true };
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        // Exact sort-based quantiles of 1..=100: p50 = 50, p95 = 95,
        // p99 = 99. Estimates must land in the same bucket.
        assert_eq!(bucket_index(s.p50()), bucket_index(50));
        assert_eq!(bucket_index(s.p95()), bucket_index(95));
        assert_eq!(bucket_index(s.p99()), bucket_index(99));
        // Low exact-bucket region: the estimate IS the exact value.
        let h2 = Histogram { core: Arc::new(HistogramCore::new()), enabled: true };
        for v in 0..20u64 {
            h2.record(v);
        }
        assert_eq!(h2.snapshot().p50(), 9);
    }

    #[test]
    fn disabled_histogram_records_nothing() {
        let h = Histogram::disabled();
        h.record(42);
        h.record_duration(std::time::Duration::from_millis(5));
        assert_eq!(h.snapshot().count, 0);
        assert_eq!(h.snapshot().quantile(0.5), 0);
    }

    #[test]
    fn quantile_clamps_to_observed_extremes() {
        let h = Histogram { core: Arc::new(HistogramCore::new()), enabled: true };
        h.record(1000);
        let s = h.snapshot();
        assert_eq!(s.p50(), 1000);
        assert_eq!(s.p99(), 1000);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Exact sort-based quantile with the same rank convention as
    /// [`HistogramSnapshot::quantile`]: the rank-`⌈q·n⌉` order statistic.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    proptest! {
        /// The histogram quantile always lands in the same bucket as the
        /// exact sort-based quantile, for arbitrary sample sets and
        /// arbitrary q.
        #[test]
        fn quantile_matches_exact_bucket(
            seed in 0u64..2000,
            n in 1usize..400,
            qi in 0usize..11,
        ) {
            use rand::RngExt;
            let q = qi as f64 / 10.0;
            let mut rng = gem_sampling::rng_from_seed(seed);
            let h = Histogram {
                core: Arc::new(HistogramCore::new()),
                enabled: true,
            };
            let mut samples: Vec<u64> = (0..n)
                .map(|_| {
                    // Mix magnitudes: exercise exact buckets and high octaves.
                    let raw = rng.random::<u64>();
                    match raw % 4 {
                        0 => raw % 32,
                        1 => raw % 10_000,
                        2 => raw % 100_000_000,
                        _ => raw,
                    }
                })
                .collect();
            for &v in &samples {
                h.record(v);
            }
            samples.sort_unstable();
            let s = h.snapshot();
            prop_assert_eq!(s.count, n as u64);
            prop_assert_eq!(s.min, samples[0]);
            prop_assert_eq!(s.max, *samples.last().unwrap());
            let exact = exact_quantile(&samples, q);
            let est = s.quantile(q);
            prop_assert_eq!(
                bucket_index(est), bucket_index(exact),
                "q={} est={} exact={}", q, est, exact
            );
        }
    }
}
