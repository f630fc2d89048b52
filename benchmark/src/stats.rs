//! Order statistics used by every metric: nearest-rank percentiles,
//! medians and the quartile spread the acceptance rule is written in.

/// Nearest-rank percentile (`p` in `[0, 1]`) over unsorted values.
///
/// # Panics
///
/// Panics on empty input: a metric over no measurements is a bug in the
/// benchmark, not a value to report.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no measurements");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median with the midpoint rule for even counts (what Python's
/// `statistics.median` returns, so `run.sh selfcheck` and the driver agree).
///
/// # Panics
///
/// Panics on empty input.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no measurements");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the values
/// `statistics.quantiles(values, n=4)` returns at positions 0 and 2.
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        // Exclusive method: position k·(n+1)/4, clamped into the sample,
        // linear interpolation between neighbours.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median: the spread the
/// acceptance rule bounds.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_sorts() {
        let xs = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(percentile(&xs, 0.50), 20.0);
        assert_eq!(percentile(&xs, 0.51), 30.0);
        assert_eq!(percentile(&xs, 0.95), 40.0);
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 1.0), 40.0);
    }

    #[test]
    fn median_uses_the_midpoint_on_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((quartile_spread(&xs) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
