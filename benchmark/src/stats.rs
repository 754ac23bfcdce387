//! Percentiles, medians and quartiles.

/// The candidate percentiles a latency series may report, highest first.
pub const PERCENTILES: [(&str, f64); 4] =
    [("p999", 0.999), ("p99", 0.99), ("p90", 0.90), ("p50", 0.50)];

/// Fewest samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of an `n`-sample series that still has at least
/// [`MIN_BEYOND`] samples beyond it, with its label; `None` when not even
/// the median qualifies.
pub fn highest_supported(n: usize) -> Option<(&'static str, f64)> {
    PERCENTILES
        .into_iter()
        .find(|(_, p)| beyond(n, *p) >= MIN_BEYOND)
}

/// Whether an `n`-sample series supports reporting percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// Nearest-rank index (1-based) of percentile `p` in `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending series.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Median of a series (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method), so
/// spreads agree with the driver's. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let q = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((q(1), q(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20).map(|p| p.0), Some("p50"));
        assert_eq!(highest_supported(99).map(|p| p.0), Some("p50"));
        assert_eq!(highest_supported(100).map(|p| p.0), Some("p90"));
        assert_eq!(highest_supported(999).map(|p| p.0), Some("p90"));
        assert_eq!(highest_supported(1000).map(|p| p.0), Some("p99"));
        assert_eq!(highest_supported(9_999).map(|p| p.0), Some("p99"));
        assert_eq!(highest_supported(10_000).map(|p| p.0), Some("p999"));
        assert!(supports(1000, 0.99) && !supports(999, 0.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 0.999), Some(100));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
