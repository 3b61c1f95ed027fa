//! Log-scaled latency histograms.
//!
//! A [`Histogram`] buckets samples by their binary order of magnitude:
//! bucket 0 holds the value 0, bucket *i* (for `i >= 1`) holds values in
//! `[2^(i-1), 2^i - 1]`. Recording a sample is four relaxed atomic
//! read-modify-writes (bucket, count, sum, max) — no lock, no allocation —
//! which is what lets every hot path in the workspace carry one.
//!
//! Quantile extraction walks the bucket counts and reports the *upper
//! bound* of the bucket containing the requested rank, so an extracted
//! quantile is always `>=` the true quantile and within a factor of two of
//! it — the precision/footprint trade every log-scaled histogram makes
//! (HdrHistogram's single-digit-precision configuration is the same idea).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of buckets: one for zero plus one per binary order of magnitude
/// of a `u64`.
pub const BUCKETS: usize = 65;

/// Bucket index for a sample value.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Inclusive upper bound of bucket `i` (what quantile extraction reports).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A lock-free, log-scaled histogram of `u64` samples (typically
/// nanoseconds or microseconds of latency).
///
/// All methods take `&self`; recording is wait-free (relaxed atomics
/// only). Concurrent readers see a *fuzzy* but monotonic view — `count`,
/// `sum`, and the buckets are updated independently, exactly like a fuzzy
/// checkpoint reads a dirty-page table.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample. Four relaxed atomic RMWs; no lock.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds.
    #[inline]
    pub fn record_nanos(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record a duration in microseconds.
    #[inline]
    pub fn record_micros(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Record a duration in milliseconds.
    #[inline]
    pub fn record_millis(&self, d: Duration) {
        self.record(d.as_millis().min(u64::MAX as u128) as u64);
    }

    /// Start a timer that records elapsed **nanoseconds** into this
    /// histogram when dropped.
    pub fn time(&self) -> HistTimer<'_> {
        HistTimer {
            hist: self,
            start: Instant::now(),
            unit: TimerUnit::Nanos,
        }
    }

    /// Start a timer that records elapsed **microseconds** when dropped.
    pub fn time_micros(&self) -> HistTimer<'_> {
        HistTimer {
            hist: self,
            start: Instant::now(),
            unit: TimerUnit::Micros,
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample seen.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Copy the current state out as a [`HistogramSnapshot`].
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (i, b) in self.buckets.iter().enumerate() {
            buckets[i] = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            // Derive count/sum-consistent totals from the buckets where
            // possible: the independent `count` atomic may lag mid-record.
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

#[derive(Clone, Copy)]
enum TimerUnit {
    Nanos,
    Micros,
}

/// Drop guard from [`Histogram::time`] / [`Histogram::time_micros`];
/// records the elapsed time on drop in the unit the constructor chose.
pub struct HistTimer<'h> {
    hist: &'h Histogram,
    start: Instant,
    unit: TimerUnit,
}

impl Drop for HistTimer<'_> {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        match self.unit {
            TimerUnit::Nanos => self.hist.record_nanos(elapsed),
            TimerUnit::Micros => self.hist.record_micros(elapsed),
        }
    }
}

/// A point-in-time copy of a histogram, diffable and queryable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see module docs for bucket bounds).
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// The quantile `q` in `[0, 1]`: the upper bound of the bucket holding
    /// the sample of rank `ceil(q * count)`. Always `>=` the true
    /// quantile, within a factor of two of it. Returns 0 for an empty
    /// histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= rank {
                // Never report past the observed maximum: the top
                // non-empty bucket's upper bound can be far above it.
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`HistogramSnapshot::quantile`]).
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

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Bucket-wise difference `self - earlier` (saturating): the samples
    /// recorded between the two snapshots. Quantiles of the diff describe
    /// just that interval.
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (d, (now, was)) in buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(earlier.buckets.iter()))
        {
            *d = now.saturating_sub(*was);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max, // maxima don't subtract; keep the later one
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn quantiles_within_log_bounds_uniform() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        // True p50 = 500; log-scale guarantee: within [500, 1000).
        let p50 = s.p50();
        assert!((500..1000).contains(&p50), "p50 = {p50}");
        let p99 = s.p99();
        assert!((990..=1023).contains(&p99), "p99 = {p99}");
        assert_eq!(s.max, 1000);
    }

    #[test]
    fn quantiles_adversarial_all_identical() {
        // Every sample in one bucket: all quantiles equal that bucket's
        // upper bound clamped to the observed max.
        let h = Histogram::new();
        for _ in 0..10_000 {
            h.record(7);
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), 7);
        assert_eq!(s.p99(), 7);
        assert_eq!(s.mean(), 7);
    }

    #[test]
    fn quantiles_adversarial_bimodal() {
        // 99% tiny, 1% huge: p50 stays tiny, p99 lands in the huge mode.
        let h = Histogram::new();
        for _ in 0..9_900 {
            h.record(10);
        }
        for _ in 0..100 {
            h.record(1_000_000);
        }
        let s = h.snapshot();
        assert!(s.p50() <= 15, "p50 = {}", s.p50());
        assert!(
            s.quantile(0.995) >= 524_288,
            "p99.5 = {}",
            s.quantile(0.995)
        );
    }

    #[test]
    fn quantiles_adversarial_zeros_and_extremes() {
        let h = Histogram::new();
        for _ in 0..50 {
            h.record(0);
        }
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.p50(), 0);
        assert_eq!(s.quantile(1.0), u64::MAX);
        // Empty histogram is all zeros.
        assert_eq!(HistogramSnapshot::default().p99(), 0);
    }

    #[test]
    fn quantile_monotone_in_q() {
        let h = Histogram::new();
        let mut x = 1u64;
        for i in 0..500u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i) | 1;
            h.record(x >> (x % 40));
        }
        let s = h.snapshot();
        let mut last = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let v = s.quantile(q);
            assert!(v >= last, "quantile({q}) = {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn diff_subtracts_buckets() {
        let h = Histogram::new();
        h.record(100);
        let before = h.snapshot();
        for _ in 0..10 {
            h.record(1_000);
        }
        let d = h.snapshot().diff(&before);
        assert_eq!(d.count, 10);
        assert_eq!(d.sum, 10_000);
        // The diff's quantiles reflect only the new samples.
        assert!(d.p50() >= 1_000 && d.p50() < 2_048, "p50 = {}", d.p50());
    }

    #[test]
    fn single_sample_histogram_quantiles_all_equal_the_sample() {
        // p99 (and every other quantile) of a one-sample histogram is
        // that sample: rank = max(ceil(q*1), 1) = 1 lands in its bucket,
        // and the bucket's upper bound is clamped to the observed max.
        for v in [0u64, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
            let h = Histogram::new();
            h.record(v);
            let s = h.snapshot();
            assert_eq!(s.p50(), v, "p50 of single sample {v}");
            assert_eq!(s.p99(), v, "p99 of single sample {v}");
            assert_eq!(s.quantile(0.0), v, "q0 of single sample {v}");
            assert_eq!(s.quantile(1.0), v, "q1 of single sample {v}");
        }
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 0, "quantile({q}) of empty histogram");
        }
        assert_eq!(s.mean(), 0);
        // Diffing two empties stays empty.
        let d = s.diff(&HistogramSnapshot::default());
        assert_eq!(d.count, 0);
        assert_eq!(d.p99(), 0);
    }

    #[test]
    fn quantiles_at_bucket_boundaries() {
        // Samples sitting exactly on power-of-two bucket edges: 2^k goes
        // to bucket k+1 (lower bound), 2^k - 1 to bucket k (upper bound).
        // The reported quantile is the containing bucket's upper bound
        // clamped to the max, so boundary values round-trip exactly.
        let h = Histogram::new();
        h.record(1024); // bucket 11, upper 2047
        let s = h.snapshot();
        assert_eq!(s.p99(), 1024, "clamped to observed max");
        let h = Histogram::new();
        h.record(1023); // bucket 10, upper 1023
        assert_eq!(h.snapshot().p99(), 1023);
        // Mixed: half at a boundary, half just below it — p50 must not
        // exceed the upper bound of the lower bucket.
        let h = Histogram::new();
        for _ in 0..50 {
            h.record(1023);
        }
        for _ in 0..50 {
            h.record(1024);
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), 1023);
        assert_eq!(s.p99(), 1024, "p99 reaches the upper mode, max-clamped");
        assert_eq!(s.quantile(0.501), 1024);
    }

    #[test]
    fn timer_records_a_sample() {
        let h = Histogram::new();
        {
            let _t = h.time();
        }
        assert_eq!(h.count(), 1);
    }
}
