//! Log-linear histograms for latency recording.
//!
//! Bucketing follows the HdrHistogram idea: values below
//! `2 * SUB_BUCKETS` are exact; above that, each power-of-two octave is
//! divided into `SUB_BUCKETS` (64) linear sub-buckets, giving a bounded
//! relative error of `1 / SUB_BUCKETS` (< 1.6 %) at any magnitude. That
//! is plenty for reproducing "average / 90th / 99th / 99.9th percentile"
//! figures while keeping recording O(1) with no allocation.

use serde::{Deserialize, Serialize};

/// Linear sub-buckets per octave. 64 gives < 1.6 % relative error.
const SUB_BUCKETS: u64 = 64;
/// log2 of `SUB_BUCKETS`.
const SUB_BITS: u32 = 6;

/// Number of buckets needed to cover the full `u64` range.
const BUCKET_COUNT: usize = ((64 - SUB_BITS as usize) + 1) * SUB_BUCKETS as usize;

/// A log-linear histogram of `u64` samples (nanoseconds, typically).
///
/// # Examples
///
/// ```
/// use falcon_metrics::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.percentile(50.0);
/// assert!((490..=515).contains(&p50), "p50 was {p50}");
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_index(value: u64) -> usize {
    if value < 2 * SUB_BUCKETS {
        return value as usize;
    }
    // The octave is determined by the position of the highest set bit.
    let msb = 63 - value.leading_zeros();
    let octave = msb - SUB_BITS; // >= 1 here.
    let sub = (value >> octave) - SUB_BUCKETS; // In [0, SUB_BUCKETS).
    ((octave as u64 + 1) * SUB_BUCKETS + sub) as usize
}

/// Returns a representative value (upper bound) for a bucket index.
fn bucket_value(index: usize) -> u64 {
    let index = index as u64;
    if index < 2 * SUB_BUCKETS {
        return index;
    }
    let octave = index / SUB_BUCKETS - 1;
    let sub = index % SUB_BUCKETS;
    // Upper edge of the sub-bucket minus one (the largest value mapping
    // to this bucket). Computed in u128: the topmost bucket's edge is
    // 2^64, which overflows u64.
    let edge = ((SUB_BUCKETS + sub + 1) as u128) << octave;
    (edge - 1).min(u64::MAX as u128) as u64
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKET_COUNT],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(value)] += n;
        self.count += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Returns the number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns the exact sum of every recorded sample.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Returns the arithmetic mean, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Returns the smallest recorded sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Returns the largest recorded sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Returns the value at percentile `p` (0–100), with the bucketing's
    /// bounded relative error. Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile must be in 0..=100");
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_value(i).min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Returns the histogram of the samples recorded into `self` after
    /// the snapshot `earlier` was taken, by bucket-wise subtraction.
    ///
    /// This is what makes per-worker histogram *shards* snapshotable:
    /// a sampler can keep the previous cumulative snapshot and compute
    /// the interval histogram without coordinating with the writer.
    /// `earlier` must be a prior snapshot of the same recording stream
    /// (every bucket of `earlier` ≤ the matching bucket of `self`);
    /// mismatched snapshots saturate to zero rather than underflow.
    ///
    /// The delta's `min`/`max` are bucket-resolution approximations:
    /// the exact extremes of the interval are not recoverable from two
    /// cumulative snapshots.
    pub fn delta_since(&self, earlier: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        for (i, (&cur, &old)) in self.counts.iter().zip(earlier.counts.iter()).enumerate() {
            let d = cur.saturating_sub(old);
            if d > 0 {
                let rep = bucket_value(i);
                out.counts[i] = d;
                out.count += d;
                out.min = out.min.min(rep);
                out.max = out.max.max(rep);
            }
        }
        out.sum = self.sum.saturating_sub(earlier.sum);
        out
    }

    /// Iterates over `(representative_value, count)` for non-empty
    /// buckets, in increasing value order.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_value(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..128u64 {
            h.record(v);
        }
        for (i, (val, count)) in h.iter_buckets().enumerate() {
            assert_eq!(val, i as u64);
            assert_eq!(count, 1);
        }
    }

    #[test]
    fn bucket_relative_error_bounded() {
        for value in [
            100u64,
            1_000,
            10_000,
            123_456,
            9_999_999,
            u32::MAX as u64 * 3,
        ] {
            let rep = bucket_value(bucket_index(value));
            assert!(rep >= value, "representative below sample: {rep} < {value}");
            let err = (rep - value) as f64 / value as f64;
            assert!(
                err < 1.0 / SUB_BUCKETS as f64 + 1e-9,
                "error {err} for {value}"
            );
        }
    }

    #[test]
    fn bucket_index_monotone_at_boundaries() {
        // Crossing every octave boundary must never decrease the index.
        let mut last = 0usize;
        for shift in 6..32 {
            for delta in [-1i64, 0, 1] {
                let v = ((1u64 << shift) as i64 + delta) as u64;
                let idx = bucket_index(v);
                assert!(idx >= last, "index regressed at {v}");
                last = idx;
            }
        }
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(99.0), 0);
    }

    #[test]
    fn mean_min_max() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        h.record(30);
        assert_eq!(h.mean(), 20.0);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 30);
    }

    #[test]
    fn percentiles_of_uniform_data() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (p, expected) in [
            (50.0, 5_000u64),
            (90.0, 9_000),
            (99.0, 9_900),
            (100.0, 10_000),
        ] {
            let got = h.percentile(p);
            let err = (got as f64 - expected as f64).abs() / expected as f64;
            assert!(err < 0.02, "p{p}: got {got}, expected ~{expected}");
        }
    }

    #[test]
    fn p100_is_max_even_with_bucketing() {
        let mut h = Histogram::new();
        h.record(1_000_003);
        assert_eq!(h.percentile(100.0), 1_000_003);
    }

    #[test]
    fn record_n_equivalent_to_loop() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_n(12345, 100);
        for _ in 0..100 {
            b.record(12345);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(a.percentile(50.0), b.percentile(50.0));
        assert_eq!(a.mean(), b.mean());
        a.record_n(77, 0);
        assert_eq!(a.count(), 100);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..=100u64 {
            a.record(v);
        }
        for v in 101..=200u64 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 200);
        let p50 = a.percentile(50.0);
        assert!((98..=103).contains(&p50), "merged p50 {p50}");
    }

    #[test]
    fn delta_since_recovers_interval() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.clone();
        for v in 1_000..1_050u64 {
            h.record(v);
        }
        let d = h.delta_since(&snap);
        assert_eq!(d.count(), 50);
        assert!(d.min() >= 999, "delta min {} in interval", d.min());
        assert!(d.percentile(100.0) >= 1_049);
        // Snapshot of an unchanged stream is empty.
        assert_eq!(h.delta_since(&h.clone()).count(), 0);
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX / 2);
        assert_eq!(h.count(), 2);
        assert!(h.percentile(100.0) >= u64::MAX / 2);
    }
}
