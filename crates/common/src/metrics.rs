//! Metrics primitives: counters, gauges, latency histograms, and the
//! modelled-CPU accountant used to reproduce the paper's CPU% columns.
//!
//! All primitives are lock-free on the hot path (atomics only) so that
//! instrumentation does not perturb the throughput experiments.

use crate::ids::{NodeId, NodeKind};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// New counter at zero.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed); // ordering: relaxed — pure statistic; no reader infers other state from it
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed) // ordering: relaxed — monitoring read; staleness is acceptable
    }

    /// Reset to zero, returning the previous value.
    pub fn reset(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed) // ordering: relaxed — reporting reset; races only smear one sample
    }
}

/// A point-in-time signed value (queue depths, LSN lags, cache residency).
///
/// Unlike [`Counter`] a gauge can go down; `add`/`sub` are atomic so
/// concurrent enter/leave call sites never lose updates.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// New gauge at zero.
    pub const fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed); // ordering: relaxed — gauge overwrite; last-writer-wins is the semantics
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed); // ordering: relaxed — pure statistic; no reader infers other state from it
    }

    /// Subtract `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed); // ordering: relaxed — pure statistic; no reader infers other state from it
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed) // ordering: relaxed — monitoring read; staleness is acceptable
    }
}

/// Resolution of the hub-facing histogram: 32 linear sub-buckets per power
/// of two. The original fixed layout used 16 and saturated percentile
/// accuracy at 1/16 in the tails; the shared HDR core halves that error
/// while keeping the identical snapshot/exporter surface.
const SUB_BITS: u32 = crate::obs::hdr::DEFAULT_SUB_BITS;
#[cfg(test)]
const NUM_BUCKETS: usize = crate::obs::hdr::num_buckets(SUB_BITS);

/// A lock-free, log-bucketed histogram of `u64` samples (microseconds by
/// convention). A thin facade over [`crate::obs::hdr::HdrHistogram`] at
/// 1/32 relative bucket error; exact min/max/mean/stddev are tracked on
/// the side.
#[derive(Debug)]
pub struct Histogram {
    inner: crate::obs::hdr::HdrHistogram,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// New, empty histogram.
    pub fn new() -> Histogram {
        Histogram { inner: crate::obs::hdr::HdrHistogram::new(SUB_BITS) }
    }

    #[cfg(test)]
    fn bucket_index(v: u64) -> usize {
        crate::obs::hdr::bucket_index(SUB_BITS, v)
    }

    /// The smallest value that maps to bucket `i` (used when reporting).
    #[cfg(test)]
    fn bucket_floor(i: usize) -> u64 {
        crate::obs::hdr::bucket_floor(SUB_BITS, i)
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.inner.record(v);
    }

    /// Record a [`Duration`] in microseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros() as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// Value at quantile `q` in `[0, 1]` (bucket floor; ≤ 1/32 relative
    /// error).
    pub fn percentile(&self, q: f64) -> u64 {
        self.inner.percentile(q)
    }

    /// A point-in-time summary.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.inner.summary()
    }

    /// Forget all samples.
    pub fn reset(&self) {
        self.inner.reset();
    }
}

/// Summary statistics of a [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Exact minimum (µs).
    pub min_us: u64,
    /// Exact maximum (µs).
    pub max_us: u64,
    /// Exact mean (µs).
    pub mean_us: f64,
    /// Exact standard deviation (µs).
    pub stddev_us: f64,
    /// Approximate median (µs).
    pub p50_us: u64,
    /// Approximate 90th percentile (µs).
    pub p90_us: u64,
    /// Approximate 99th percentile (µs).
    pub p99_us: u64,
}

/// Modelled CPU time accounting for one node.
///
/// Components charge CPU microseconds for the work they model (per-request
/// engine work, per-I/O driver cost, log apply, backup egress...). Dividing
/// charged time by wall time × cores yields the CPU% the paper reports.
/// Using modelled rather than measured CPU keeps architecture comparisons
/// (HADR vs Socrates, XIO vs DD) faithful to the paper even though all tiers
/// share one host here.
#[derive(Debug, Default)]
pub struct CpuAccountant {
    busy_us: AtomicU64,
}

impl CpuAccountant {
    /// New accountant at zero.
    pub const fn new() -> CpuAccountant {
        CpuAccountant { busy_us: AtomicU64::new(0) }
    }

    /// Charge `us` microseconds of modelled CPU.
    #[inline]
    pub fn charge_us(&self, us: u64) {
        self.busy_us.fetch_add(us, Ordering::Relaxed); // ordering: relaxed — pure statistic; no reader infers other state from it
    }

    /// Charge a [`Duration`] of modelled CPU.
    #[inline]
    pub fn charge(&self, d: Duration) {
        self.charge_us(d.as_micros() as u64);
    }

    /// Total charged microseconds.
    pub fn busy_us(&self) -> u64 {
        self.busy_us.load(Ordering::Relaxed) // ordering: relaxed — monitoring read; staleness is acceptable
    }

    /// CPU utilisation over `wall` on a `cores`-core node, as a percentage
    /// clamped to 100%.
    pub fn utilization_pct(&self, wall: Duration, cores: u32) -> f64 {
        let capacity = wall.as_micros() as f64 * cores as f64;
        if capacity <= 0.0 {
            return 0.0;
        }
        (self.busy_us() as f64 / capacity * 100.0).min(100.0)
    }

    /// Reset to zero, returning the previous total.
    pub fn reset(&self) -> u64 {
        self.busy_us.swap(0, Ordering::Relaxed) // ordering: relaxed — reporting reset; races only smear one sample
    }
}

/// Registry of per-node CPU accountants for a deployment.
///
/// Get-or-create semantics; cheap to clone (`Arc` inside).
#[derive(Clone, Default)]
pub struct CpuRegistry {
    inner: Arc<RwLock<HashMap<NodeId, Arc<CpuAccountant>>>>,
}

impl CpuRegistry {
    /// New empty registry.
    pub fn new() -> CpuRegistry {
        CpuRegistry::default()
    }

    /// The accountant for `node`, created on first use.
    pub fn accountant(&self, node: NodeId) -> Arc<CpuAccountant> {
        if let Some(a) = self.inner.read().get(&node) {
            return Arc::clone(a);
        }
        let mut w = self.inner.write();
        Arc::clone(w.entry(node).or_default())
    }

    /// Sum of charged CPU microseconds over all nodes of `kind`.
    pub fn busy_us_for_kind(&self, kind: NodeKind) -> u64 {
        self.inner.read().iter().filter(|(n, _)| n.kind == kind).map(|(_, a)| a.busy_us()).sum()
    }

    /// Sum of charged CPU microseconds over every node.
    pub fn total_busy_us(&self) -> u64 {
        self.inner.read().values().map(|a| a.busy_us()).sum()
    }

    /// Reset every accountant.
    pub fn reset_all(&self) {
        for a in self.inner.read().values() {
            a.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.reset(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_set_add_sub() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0);
        g.set(10);
        g.add(5);
        g.sub(20);
        assert_eq!(g.get(), -5);
        g.set(0);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn gauge_concurrent_adds_never_lose_updates() {
        let g = Arc::new(Gauge::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        g.add(2);
                        g.sub(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(g.get(), 4000);
    }

    #[test]
    fn histogram_exact_stats() {
        let h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.min_us, 10);
        assert_eq!(s.max_us, 40);
        assert!((s.mean_us - 25.0).abs() < 1e-9);
        // population stddev of {10,20,30,40} = sqrt(125) ≈ 11.18
        assert!((s.stddev_us - 125f64.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn histogram_percentiles_bounded_error() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, expect) in [(0.5, 5_000f64), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let got = h.percentile(q) as f64;
            let err = (got - expect).abs() / expect;
            assert!(err < 0.08, "q={q} got={got} expect={expect} err={err}");
        }
        assert_eq!(h.percentile(0.0), 1);
    }

    #[test]
    fn histogram_zero_sample() {
        let h = Histogram::new();
        h.record(0);
        let s = h.snapshot();
        assert_eq!((s.count, s.min_us, s.max_us), (1, 0, 0));
        assert_eq!(s.mean_us, 0.0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.percentile(1.0), 0);
    }

    #[test]
    fn histogram_u64_max_sample() {
        let h = Histogram::new();
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.min_us, u64::MAX);
        assert_eq!(s.max_us, u64::MAX);
        // sumsq saturates rather than wrapping, so the variance clamp
        // yields a finite, non-negative stddev.
        assert!(s.stddev_us >= 0.0 && s.stddev_us.is_finite());
        // The percentile walk must find the top bucket, not fall off the end.
        let p = h.percentile(0.99);
        assert!(p >= u64::MAX - (u64::MAX >> 4));
    }

    #[test]
    fn histogram_sumsq_saturates_instead_of_wrapping() {
        let h = Histogram::new();
        // Seven samples of 4e9 (each square 1.6e19 is exact in u64, their
        // sum 1.12e20 is not) over a sea of zeros. True stddev ≈ 1.1e7.
        // Saturating sumsq keeps the estimate at ~4.3e6; a wrapping
        // accumulator loses six multiples of 2^64 and collapses it to
        // ~7e5, more than an order of magnitude below the truth.
        for _ in 0..1_000_000 {
            h.record(0);
        }
        for _ in 0..7 {
            h.record(4_000_000_000);
        }
        let s = h.snapshot();
        assert!(
            s.stddev_us > 2e6,
            "stddev {} suggests sumsq wrapped instead of saturating",
            s.stddev_us
        );
    }

    #[test]
    fn bucket_floor_within_sixteenth_relative_error() {
        // Documented bound: log-bucketing costs at most 1/16 relative error.
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            for probe in [v, v + 1, v + v / 3] {
                let floor = Histogram::bucket_floor(Histogram::bucket_index(probe));
                assert!(floor <= probe, "floor {floor} above sample {probe}");
                let err = (probe - floor) as f64 / probe as f64;
                assert!(err <= 1.0 / 16.0, "probe {probe} floor {floor} err {err}");
            }
            v = v.saturating_mul(2);
        }
    }

    #[test]
    fn histogram_percentile_error_within_bucket_bound() {
        // End-to-end percentile accuracy on a uniform distribution: the
        // reported quantile must be within 1/16 of the exact one.
        let h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for q in [0.10f64, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999] {
            let exact = (q * 100_000.0).ceil();
            let got = h.percentile(q) as f64;
            let err = (exact - got).abs() / exact;
            assert!(err <= 1.0 / 16.0, "q={q} got={got} exact={exact} err={err}");
        }
    }

    #[test]
    fn histogram_empty_and_reset() {
        let h = Histogram::new();
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
        h.record(100);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.snapshot().min_us, 0);
    }

    #[test]
    fn bucket_index_monotone_and_floor_consistent() {
        let mut last = 0usize;
        for v in [0u64, 1, 15, 16, 17, 100, 1000, 65_535, 65_536, 1 << 40] {
            let i = Histogram::bucket_index(v);
            assert!(i >= last, "index not monotone at {v}");
            last = i;
            assert!(Histogram::bucket_floor(i) <= v);
            if i + 1 < NUM_BUCKETS {
                assert!(Histogram::bucket_floor(i + 1) > v, "floor({}) too low for {v}", i + 1);
            }
        }
    }

    #[test]
    fn cpu_accounting_utilization() {
        let a = CpuAccountant::new();
        a.charge_us(500_000);
        // 0.5s busy over 1s wall on 1 core = 50%
        assert!((a.utilization_pct(Duration::from_secs(1), 1) - 50.0).abs() < 1e-9);
        // on 8 cores = 6.25%
        assert!((a.utilization_pct(Duration::from_secs(1), 8) - 6.25).abs() < 1e-9);
        // clamped at 100
        a.charge_us(10_000_000);
        assert_eq!(a.utilization_pct(Duration::from_secs(1), 1), 100.0);
    }

    #[test]
    fn registry_get_or_create_and_kind_sum() {
        let r = CpuRegistry::new();
        r.accountant(NodeId::PRIMARY).charge_us(10);
        r.accountant(NodeId::PRIMARY).charge_us(5);
        r.accountant(NodeId::secondary(0)).charge_us(7);
        r.accountant(NodeId::secondary(1)).charge_us(3);
        assert_eq!(r.busy_us_for_kind(NodeKind::Primary), 15);
        assert_eq!(r.busy_us_for_kind(NodeKind::Secondary), 10);
        assert_eq!(r.total_busy_us(), 25);
        r.reset_all();
        assert_eq!(r.total_busy_us(), 0);
    }
}
