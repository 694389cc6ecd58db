//! HDR-style log-linear latency histograms: the primitive the hub-facing
//! [`crate::metrics::Histogram`] sits on.
//!
//! - [`HdrHistogram`]: a log-linear (HdrHistogram-layout) histogram. Major
//!   buckets are powers of two; each major bucket is split into
//!   `2^sub_bits` linear sub-buckets, bounding relative error at
//!   `2^-sub_bits` across the whole `u64` range — no configured "max
//!   trackable value", no tail saturation.
//! - [`HdrSnapshot`]: an owned copy of the bucket counts with
//!   exact side-stats, from which percentiles are read.
//!
//! All recording-path operations are single relaxed atomic RMWs; snapshots
//! tolerate torn reads across cells (a sample may be visible in a bucket
//! before it is visible in `count`, skewing a percentile by at most the
//! in-flight samples, exactly like the fixed histogram).

use crate::metrics::HistogramSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution used by the hub-facing [`crate::metrics::Histogram`]:
/// 32 linear sub-buckets per power of two, relative error ≤ 1/32 (≈3%) at
/// every magnitude.
pub const DEFAULT_SUB_BITS: u32 = 5;

/// Number of buckets for a given sub-bucket resolution: 64 major (one per
/// possible leading-bit position of a `u64`) × `2^sub_bits` linear.
pub const fn num_buckets(sub_bits: u32) -> usize {
    64 << sub_bits
}

/// The bucket a value lands in. Values below `2^sub_bits` map to their own
/// index (exact); above that, the top `sub_bits + 1` significant bits pick
/// (power, linear sub-bucket).
#[inline]
pub fn bucket_index(sub_bits: u32, v: u64) -> usize {
    let per = 1u64 << sub_bits;
    if v < per {
        return v as usize;
    }
    let pow = 63 - v.leading_zeros();
    let sub = (v >> (pow - sub_bits)) & (per - 1);
    ((pow << sub_bits) | sub as u32) as usize
}

/// The smallest value that maps to bucket `i` (what percentiles report).
///
/// Indices in the low-power region that `bucket_index` never produces
/// (values `< 2^sub_bits` use the identity mapping instead) keep the
/// identity floor so the floor stays monotone over the whole index range.
#[inline]
pub fn bucket_floor(sub_bits: u32, i: usize) -> u64 {
    let pow = (i >> sub_bits) as u32;
    if pow < sub_bits {
        return i as u64;
    }
    let sub = (i & ((1 << sub_bits) - 1)) as u64;
    (1u64 << pow) + (sub << (pow - sub_bits))
}

/// A lock-free log-linear histogram of `u64` samples (microseconds by
/// convention). See the module docs for the bucket layout.
#[derive(Debug)]
pub struct HdrHistogram {
    sub_bits: u32,
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    sumsq: AtomicU64, // sum of squares, saturating
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HdrHistogram {
    fn default() -> Self {
        Self::new(DEFAULT_SUB_BITS)
    }
}

impl HdrHistogram {
    /// New, empty histogram with `2^sub_bits` linear sub-buckets per power
    /// of two. `sub_bits` must be in `1..=8` (2–256 sub-buckets; beyond
    /// that the table stops fitting in cache for no accuracy anyone needs).
    pub fn new(sub_bits: u32) -> HdrHistogram {
        assert!((1..=8).contains(&sub_bits), "sub_bits out of range: {sub_bits}");
        let buckets: Box<[AtomicU64]> =
            (0..num_buckets(sub_bits)).map(|_| AtomicU64::new(0)).collect();
        HdrHistogram {
            sub_bits,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            sumsq: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` identical samples in one pass.
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(self.sub_bits, v)].fetch_add(n, Ordering::Relaxed); // ordering: relaxed — independent statistic cells; snapshot tearing is fine
        self.count.fetch_add(n, Ordering::Relaxed); // ordering: relaxed — independent statistic cells; snapshot tearing is fine
        self.sum.fetch_add(v.saturating_mul(n), Ordering::Relaxed); // ordering: relaxed — independent statistic cells; snapshot tearing is fine
        let sq = v.saturating_mul(v).saturating_mul(n);
        // Saturating accumulate: a plain fetch_add would wrap once the sum
        // of squares exceeds u64::MAX and corrupt the stddev.
        let mut cur = self.sumsq.load(Ordering::Relaxed); // ordering: relaxed — CAS loop re-reads on failure; value-only, no publication
        loop {
            let next = cur.saturating_add(sq);
            match self.sumsq.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) // ordering: relaxed — saturating stat accumulate; CAS needs no fences
            {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        self.min.fetch_min(v, Ordering::Relaxed); // ordering: relaxed — monotone min; ordering with other cells not needed
        self.max.fetch_max(v, Ordering::Relaxed); // ordering: relaxed — monotone max; ordering with other cells not needed
    }

    /// Record a [`std::time::Duration`] in microseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros() as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed) // ordering: relaxed — monitoring read; staleness is acceptable
    }

    /// Value at quantile `q` in `[0, 1]` (bucket floor; relative error
    /// ≤ `2^-sub_bits`). Walks the live buckets without allocating.
    pub fn percentile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        // Clamp to the exact minimum: the lowest bucket's floor may sit
        // below the smallest recorded sample, and every quantile of the
        // data is ≥ min, so the clamp only improves accuracy (and keeps
        // percentile monotone against the exact-min q=0 read).
        let raw_min = self.min.load(Ordering::Relaxed); // ordering: relaxed — monitoring read; staleness is acceptable
        let min = match raw_min {
            u64::MAX => 0, // racing first record: bucket visible before min
            m => m,
        };
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed); // ordering: relaxed — bucket scan may tear vs. count; ≤1 sample skew
            if seen >= target {
                return bucket_floor(self.sub_bits, i).max(min);
            }
        }
        self.max.load(Ordering::Relaxed) // ordering: relaxed — monitoring read; staleness is acceptable
    }

    /// An owned copy of the current state.
    pub fn snapshot(&self) -> HdrSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed)) // ordering: relaxed — snapshot tolerates torn cells by construction
            .collect();
        let count = buckets.iter().sum(); // derive from buckets so the snapshot is self-consistent
        HdrSnapshot {
            sub_bits: self.sub_bits,
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed), // ordering: relaxed — snapshot tolerates torn cells by construction
            sumsq: self.sumsq.load(Ordering::Relaxed), // ordering: relaxed — snapshot tolerates torn cells by construction
            min: if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) }, // ordering: relaxed — snapshot tolerates torn cells by construction
            max: self.max.load(Ordering::Relaxed), // ordering: relaxed — snapshot tolerates torn cells by construction
        }
    }

    /// The fixed-summary view the exporters expect (same shape the
    /// pre-existing hub histograms produce, so output stays compatible).
    pub fn summary(&self) -> HistogramSnapshot {
        let count = self.count();
        let sum = self.sum.load(Ordering::Relaxed); // ordering: relaxed — snapshot tolerates torn cells by construction
        let sumsq = self.sumsq.load(Ordering::Relaxed); // ordering: relaxed — snapshot tolerates torn cells by construction
        let mean = if count == 0 { 0.0 } else { sum as f64 / count as f64 };
        let var =
            if count == 0 { 0.0 } else { (sumsq as f64 / count as f64 - mean * mean).max(0.0) };
        HistogramSnapshot {
            count,
            min_us: if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) }, // ordering: relaxed — snapshot tolerates torn cells by construction
            max_us: self.max.load(Ordering::Relaxed), // ordering: relaxed — snapshot tolerates torn cells by construction
            mean_us: mean,
            stddev_us: var.sqrt(),
            p50_us: self.percentile(0.50),
            p90_us: self.percentile(0.90),
            p99_us: self.percentile(0.99),
        }
    }

    /// Forget all samples.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed); // ordering: relaxed — reset races smear into neighbouring windows, by design
        }
        self.count.store(0, Ordering::Relaxed); // ordering: relaxed — reset races smear into neighbouring windows, by design
        self.sum.store(0, Ordering::Relaxed); // ordering: relaxed — reset races smear into neighbouring windows, by design
        self.sumsq.store(0, Ordering::Relaxed); // ordering: relaxed — reset races smear into neighbouring windows, by design
        self.min.store(u64::MAX, Ordering::Relaxed); // ordering: relaxed — reset races smear into neighbouring windows, by design
        self.max.store(0, Ordering::Relaxed); // ordering: relaxed — reset races smear into neighbouring windows, by design
    }
}

/// An owned copy of an [`HdrHistogram`]'s state, readable without
/// touching the live atomics.
#[derive(Clone, Debug)]
pub struct HdrSnapshot {
    sub_bits: u32,
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    sumsq: u64,
    min: u64,
    max: u64,
}

impl HdrSnapshot {
    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact minimum (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Exact maximum.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`. `q = 0` reports the exact
    /// minimum and `q = 1` the exact maximum; interior quantiles report
    /// the bucket floor (relative error ≤ `2^-sub_bits`).
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                // Clamp to the exact minimum: the lowest bucket's floor may
                // sit below the smallest sample; every data quantile is
                // ≥ min, so the clamp only improves accuracy and keeps the
                // curve monotone against the exact-min q=0 read.
                return bucket_floor(self.sub_bits, i).max(self.min);
            }
        }
        self.max
    }

    /// The fixed-summary view the hub exporters expect.
    pub fn to_summary(&self) -> HistogramSnapshot {
        let mean = self.mean();
        let var = if self.count == 0 {
            0.0
        } else {
            (self.sumsq as f64 / self.count as f64 - mean * mean).max(0.0)
        };
        HistogramSnapshot {
            count: self.count,
            min_us: self.min,
            max_us: self.max,
            mean_us: mean,
            stddev_us: var.sqrt(),
            p50_us: self.percentile(0.50),
            p90_us: self.percentile(0.90),
            p99_us: self.percentile(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_region_is_exact() {
        for sub_bits in [1u32, 4, 5, 8] {
            for v in 0..(1u64 << sub_bits) {
                let i = bucket_index(sub_bits, v);
                assert_eq!(i as u64, v);
                assert_eq!(bucket_floor(sub_bits, i), v);
            }
        }
    }

    #[test]
    fn floor_error_bounded_by_resolution() {
        for sub_bits in [2u32, 5, 8] {
            let bound = 1.0 / (1u64 << sub_bits) as f64;
            let mut v = 1u64;
            while v < u64::MAX / 3 {
                for probe in [v, v + 1, v + v / 3] {
                    let floor = bucket_floor(sub_bits, bucket_index(sub_bits, probe));
                    assert!(floor <= probe, "floor {floor} above sample {probe}");
                    let err = (probe - floor) as f64 / probe as f64;
                    assert!(err <= bound, "sub_bits={sub_bits} probe={probe} err={err}");
                }
                v = v.saturating_mul(2);
            }
        }
    }

    #[test]
    fn snapshot_percentiles() {
        let h = HdrHistogram::new(5);
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100_000);
        assert_eq!(snap.percentile(0.0), 1);
        assert_eq!(snap.percentile(1.0), 100_000);
        for q in [0.10f64, 0.50, 0.90, 0.99, 0.999, 0.9999] {
            let exact = (q * 100_000.0).ceil();
            let got = snap.percentile(q) as f64;
            let err = (exact - got).abs() / exact;
            assert!(err <= 1.0 / 32.0, "q={q} got={got} exact={exact} err={err}");
        }
    }

    #[test]
    fn summary_matches_fixed_histogram_shape() {
        let h = HdrHistogram::new(DEFAULT_SUB_BITS);
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 4);
        assert_eq!(s.min_us, 10);
        assert_eq!(s.max_us, 40);
        assert!((s.mean_us - 25.0).abs() < 1e-9);
        let snap_s = h.snapshot().to_summary();
        assert_eq!(snap_s.count, s.count);
        assert_eq!(snap_s.p99_us, s.p99_us);
    }
}
