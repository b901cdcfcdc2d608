//! Order statistics used to reduce a rep's samples and a run's reps.

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    s
}

/// Median; the mean of the two middle samples for an even count. `0` for
/// an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The `q`-quantile by nearest rank (the rule `seve_net::Summary` uses),
/// so a p99 over `n` samples has `n − ⌈0.99·n⌉` samples beyond it.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// `(q1, q3)` as Python's `statistics.quantiles(v, n=4)` computes them
/// (the exclusive method), so spreads printed here match the driver's.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let m = s.len();
    if m < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median — the spread the driver
/// judges a metric by.
pub fn iqr_share(v: &[f64]) -> f64 {
    let med = median(v);
    if med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(v);
    (q3 - q1) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        // 6400 samples leave 64 beyond the p99.
        let big: Vec<f64> = (1..=6400).map(f64::from).collect();
        assert_eq!(6400.0 - percentile(&big, 0.99), 64.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    }
}
