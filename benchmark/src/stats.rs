//! Order statistics used for every reported number.
//!
//! Two conventions live here on purpose. Op latencies use the inclusive
//! linear-interpolation percentile (numpy's default), which is defined for
//! any sample count. Run-to-run spreads use Python's
//! `statistics.quantiles(values, n=4)` (the exclusive method), because that
//! is what the driver computes when it accepts or rejects the benchmark.

/// Sort a copy of `values` ascending. NaNs are a harness bug, not data.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    v
}

/// Inclusive percentile `q ∈ [0, 1]` of an ascending-sorted sample.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 0.5)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` returns them (needs ≥ 2 values).
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let n = data.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile range as a share of the median — the driver's spread
/// (0 for fewer than two values, which have no quartiles).
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles_exclusive(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_match_hand_computed_cases() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&s, 0.5), 3.0);
        assert_eq!(percentile_sorted(&s, 1.0), 5.0);
        // pos = 0.95 · 4 = 3.8 → 4 + 0.8 · (5 − 4).
        assert!((percentile_sorted(&s, 0.95) - 4.8).abs() < 1e-12);
        // Even count: the median interpolates the middle pair.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles_exclusive(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles_exclusive(&[10.0, 20.0]), (7.5, 22.5));
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0, 3.0, 3.0, 3.0]), 0.0);
        assert_eq!(iqr_share(&[3.0]), 0.0);
    }
}
