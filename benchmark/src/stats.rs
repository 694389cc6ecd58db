//! Order statistics with the sample-count rule: a tail percentile is
//! reported only when at least ten samples lie beyond it.

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried in order until one has enough samples beyond it.
const TAILS: [u32; 5] = [99, 95, 90, 75, 50];

/// 1-based nearest rank of percentile `pct` among `n ≥ 1` samples.
fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).clamp(1, n)
}

/// Nearest-rank percentile of a sorted slice; `None` when empty.
pub fn percentile(sorted: &[u64], pct: u32) -> Option<u64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), pct) - 1])
}

/// Percentile `want`, or the highest of p95/p90/p75/p50 below it that has
/// [`MIN_BEYOND`] samples beyond it (p50 when even that is not met):
/// `(percentile used, value)`.
pub fn tail(sorted: &[u64], want: u32) -> Option<(u32, u64)> {
    let n = sorted.len();
    let enough = |&p: &u32| p <= want && n > 0 && n - rank(n, p) >= MIN_BEYOND;
    let pct = TAILS.into_iter().find(enough).unwrap_or(50);
    percentile(sorted, pct).map(|v| (pct, v))
}

/// Median of unsorted values (mean of the middle two when even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(max − min) / median` in percent; 0 for fewer than two values.
pub fn spread_pct(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m * 100.0
}

/// Nanoseconds to microseconds, keeping the fraction.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_selection() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), Some(50));
        assert_eq!(percentile(&v, 99), Some(99));
        assert_eq!(percentile(&v, 100), Some(100));
        assert_eq!(percentile(&[7], 99), Some(7));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&v, 99), Some((99, 990))); // exactly 10 beyond
        assert_eq!(tail(&v, 95), Some((95, 950)));
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(tail(&v, 99), Some((95, 950))); // p99 would leave 9 beyond
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(tail(&v, 99), Some((90, 90)));
        let v: Vec<u64> = (1..=12).collect();
        assert_eq!(tail(&v, 95), Some((50, 6)));
        assert_eq!(tail(&[], 99), None);
    }

    #[test]
    fn median_of_repetitions_ignores_the_outlier() {
        assert_eq!(median(&[22_000.0, 9_000.0, 21_500.0]), 21_500.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
        assert!((spread_pct(&[90.0, 100.0, 120.0]) - 30.0).abs() < 1e-9);
    }
}
