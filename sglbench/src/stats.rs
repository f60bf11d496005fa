//! Order statistics used by the harness: percentiles, the tail-percentile
//! picker and the quartile spread the acceptance rule is written in.

/// Nearest-rank percentile of `sorted` (ascending, non-empty), `p` in (0, 100].
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ascending copy of `values` (NaN-free by construction: they are durations).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest of p99 / p95 / p90 that still has at least ten samples beyond
/// it — a tail read from fewer samples is one or two outliers, not a
/// percentile.  `None` when even p90 is too thin (fewer than 100 samples).
pub fn tail_percentile(samples: usize) -> Option<u32> {
    [99u32, 95, 90]
        .into_iter()
        .find(|p| samples * (100 - *p as usize) >= 10 * 100)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    let at = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark's acceptance rule bounds.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picker_follows_the_ten_samples_rule() {
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(24), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(1000), Some(99));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 100.0);
        assert_eq!(percentile(&s, 95.0), 190.0);
        assert_eq!(percentile(&s, 100.0), 200.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}
