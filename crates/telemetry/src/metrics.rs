//! Metrics primitives: a shared atomic counter and log₂ histograms.
//!
//! A [`Counter`] is a plain atomic behind a cheap cloneable handle, so
//! hot paths (a cache lookup, a functional run starting on a pool
//! worker) bump it without taking a lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of histogram buckets: one for zero plus one per power of
/// two up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples. Bucket 0 holds exact
/// zeros; bucket `i > 0` holds values in `[2^(i-1), 2^i)`. This gives
/// constant memory and ~2× relative resolution over the full `u64`
/// range — plenty for latencies, occupancies, and interval lengths.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// The bucket index a value lands in.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_low(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Count in bucket `i` (see [`bucket_low`] for its range).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Estimates the `p`-th percentile (`0.0..=100.0`) by linear
    /// interpolation inside the log₂ bucket that holds the target
    /// rank. Resolution is therefore ~2× relative (one bucket), which
    /// is what the buckets promise; the estimate is clamped to the
    /// exact observed `[min, max]` range.
    ///
    /// On an empty histogram this returns the documented sentinel
    /// `0.0`, indistinguishable from an all-zero sample set — use
    /// [`Histogram::try_percentile`] (or check [`Histogram::count`])
    /// when "no samples" must be told apart from "samples of zero".
    pub fn percentile(&self, p: f64) -> f64 {
        self.try_percentile(p).unwrap_or(0.0)
    }

    /// Like [`Histogram::percentile`], but `None` on an empty
    /// histogram instead of the `0.0` sentinel.
    pub fn try_percentile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        // 1-based target rank; p=0 → first sample, p=100 → last.
        let target = (p / 100.0 * self.count as f64).max(1.0);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c;
            if (next as f64) >= target {
                let low = bucket_low(i);
                // Bucket i > 0 covers [2^(i-1), 2^i): width == low.
                let width = if i == 0 { 0 } else { low };
                let into = (target - cum as f64) / c as f64;
                let est = low as f64 + into * width as f64;
                return Some(est.clamp(self.min as f64, self.max as f64));
            }
            cum = next;
        }
        Some(self.max as f64)
    }

    /// Median estimate (see [`Histogram::percentile`]).
    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// 90th-percentile estimate (see [`Histogram::percentile`]).
    pub fn p90(&self) -> f64 {
        self.percentile(90.0)
    }

    /// 99th-percentile estimate (see [`Histogram::percentile`]).
    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }

    /// `(bucket_low, count)` for every non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_low(i), c))
    }
}

/// A lock-free shared counter. Clones share the same underlying
/// atomic.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Every value lands in the bucket whose low bound it clears.
        for i in 0..HISTOGRAM_BUCKETS {
            let lo = bucket_low(i);
            assert_eq!(bucket_index(lo), i, "low bound of bucket {i}");
        }
    }

    #[test]
    fn histogram_records_and_summarizes() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 1106.0 / 6.0).abs() < 1e-9);
        assert_eq!(h.bucket(0), 1); // the zero
        assert_eq!(h.bucket(1), 1); // 1
        assert_eq!(h.bucket(2), 2); // 2, 3
        assert_eq!(h.bucket(7), 1); // 100 in [64,128)
        assert_eq!(h.bucket(10), 1); // 1000 in [512,1024)
        let nz: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(nz, vec![(0, 1), (1, 1), (2, 2), (64, 1), (512, 1)]);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(50.0), 0.0);
        assert_eq!(h.p99(), 0.0);
    }

    #[test]
    fn empty_percentile_is_none_not_a_sentinel() {
        let h = Histogram::default();
        // try_percentile distinguishes "no samples" from "all zeros"
        // at every p, including the clamped out-of-range ones.
        for p in [-5.0, 0.0, 50.0, 99.0, 100.0, 250.0] {
            assert_eq!(h.try_percentile(p), None, "p{p}");
        }
        let mut zeros = Histogram::default();
        zeros.record(0);
        assert_eq!(zeros.try_percentile(50.0), Some(0.0));
        // The f64 convenience wrapper maps None to the 0.0 sentinel.
        assert_eq!(h.percentile(50.0), 0.0);
    }

    #[test]
    fn percentiles_of_a_single_value_are_that_value() {
        let mut h = Histogram::default();
        h.record(42);
        for p in [0.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 42.0, "p{p}");
        }
    }

    #[test]
    fn percentiles_interpolate_within_log2_resolution() {
        // 1..=1000 uniformly: the exact p-th percentile is ~10*p, and
        // the log₂-bucket estimate must land within one bucket (2×).
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        for (p, exact) in [(50.0, 500.0), (90.0, 900.0), (99.0, 990.0)] {
            let est = h.percentile(p);
            assert!(
                est >= exact / 2.0 && est <= exact * 2.0,
                "p{p}: est {est} vs exact {exact}"
            );
        }
        assert_eq!(h.p50(), h.percentile(50.0));
        assert_eq!(h.p90(), h.percentile(90.0));
        assert_eq!(h.p99(), h.percentile(99.0));
    }

    #[test]
    fn percentiles_are_monotone_and_clamped_to_observed_range() {
        let mut h = Histogram::default();
        for v in [3, 3, 3, 100, 100, 7000] {
            h.record(v);
        }
        let mut prev = f64::NEG_INFINITY;
        for p in 0..=100 {
            let est = h.percentile(p as f64);
            assert!(est >= prev, "p{p}: {est} < {prev}");
            assert!((3.0..=7000.0).contains(&est), "p{p}: {est}");
            prev = est;
        }
        // Out-of-range p clamps rather than panicking.
        assert_eq!(h.percentile(-5.0), h.percentile(0.0));
        assert_eq!(h.percentile(250.0), h.percentile(100.0));
    }

    #[test]
    fn percentile_of_all_zeros_is_zero() {
        let mut h = Histogram::default();
        for _ in 0..10 {
            h.record(0);
        }
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.percentile(100.0), 0.0);
    }

    #[test]
    fn counter_clones_share_one_atomic() {
        let c = Counter::default();
        let c2 = c.clone();
        c.add(2);
        c2.inc();
        assert_eq!(c.get(), 3);
        assert_eq!(c2.get(), 3);
    }
}
