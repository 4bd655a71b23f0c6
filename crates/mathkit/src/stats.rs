//! Streaming and batch summary statistics used by the consistency checks
//! that compare emulated fields against training simulations.

/// Numerically stable streaming mean/variance (Welford) with min/max.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Feed one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Feed a slice of observations.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Merge another accumulator (parallel reduction).
    pub fn merge(&mut self, other: &Self) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let d = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += d * n2 / n;
        self.m2 += other.m2 + d * d * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Count of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (n-1 denominator); 0 when fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum seen (∞ if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum seen (−∞ if empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Batch mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Batch sample variance (n-1 denominator).
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample autocorrelation function up to `max_lag` (inclusive); `acf[0] = 1`.
pub fn acf(xs: &[f64], max_lag: usize) -> Vec<f64> {
    let n = xs.len();
    assert!(max_lag < n, "lag {max_lag} needs more than {n} samples");
    let m = mean(xs);
    let denom: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    if denom == 0.0 {
        let mut out = vec![0.0; max_lag + 1];
        out[0] = 1.0;
        return out;
    }
    (0..=max_lag)
        .map(|lag| {
            let num: f64 = (0..n - lag).map(|t| (xs[t] - m) * (xs[t + lag] - m)).sum();
            num / denom
        })
        .collect()
}

/// Pearson correlation between two equal-length slices.
pub fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

/// Sort `xs` ascending for [`quantile_sorted`], by the IEEE total order
/// ([`f64::total_cmp`]): negative NaNs, `−∞`, the finite values (`−0.0`
/// before `+0.0`), `+∞`, positive NaNs. Never panics, whatever the input.
pub fn sort_for_quantiles(xs: &mut [f64]) {
    xs.sort_unstable_by(f64::total_cmp);
}

/// Quantile by linear interpolation between the two nearest order
/// statistics of an already sorted slice (`q ∈ [0,1]`; see
/// [`sort_for_quantiles`]). Reading several quantiles of one sample costs
/// one sort this way.
///
/// Non-finite input is not rejected: an infinity is an ordinary extreme
/// value and a NaN sorts to an end of the slice, so the result is
/// non-finite exactly when an order statistic it interpolates is.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    assert!((0.0..=1.0).contains(&q));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = pos - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Quantile by linear interpolation on a sorted copy (`q ∈ [0,1]`): one
/// [`sort_for_quantiles`] and one [`quantile_sorted`], with the latter's
/// non-finite behaviour. Callers reading more than one quantile of the same
/// sample sort once and call [`quantile_sorted`] themselves.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut s = xs.to_vec();
    sort_for_quantiles(&mut s);
    quantile_sorted(&s, q)
}

/// Root-mean-square error between two slices.
pub fn rmse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    if a.is_empty() {
        return 0.0;
    }
    let s: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (s / a.len() as f64).sqrt()
}

/// Maximum absolute difference between two slices.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_batch() {
        let xs = [1.0, 2.0, 4.0, 8.0, 16.0, -3.0, 0.5];
        let mut o = OnlineStats::new();
        o.extend(&xs);
        assert!((o.mean() - mean(&xs)).abs() < 1e-12);
        assert!((o.variance() - variance(&xs)).abs() < 1e-12);
        assert_eq!(o.count(), xs.len() as u64);
        assert_eq!(o.min(), -3.0);
        assert_eq!(o.max(), 16.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64 * 0.7).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        whole.extend(&xs);
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        a.extend(&xs[..37]);
        b.extend(&xs[37..]);
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
        assert_eq!(a.count(), whole.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.extend(&[1.0, 2.0, 3.0]);
        let before = (a.mean(), a.variance(), a.count());
        a.merge(&OnlineStats::new());
        assert_eq!(before, (a.mean(), a.variance(), a.count()));
        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e.count(), 3);
        assert!((e.mean() - 2.0).abs() < 1e-12);
    }

    /// Deterministic uniform noise in [0,1) from a 64-bit LCG (MMIX constants).
    fn lcg_noise(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    #[test]
    fn acf_of_white_noise_decays() {
        let xs: Vec<f64> = lcg_noise(4000, 9).iter().map(|u| u - 0.5).collect();
        let r = acf(&xs, 5);
        assert!((r[0] - 1.0).abs() < 1e-12);
        for &rk in &r[1..] {
            assert!(rk.abs() < 0.06, "white-noise acf too large: {rk}");
        }
    }

    #[test]
    fn acf_of_ar1_matches_phi() {
        let phi = 0.8;
        let mut x = 0.0;
        let xs: Vec<f64> = lcg_noise(20000, 77)
            .iter()
            .map(|u| {
                x = phi * x + (u - 0.5);
                x
            })
            .collect();
        let r = acf(&xs, 3);
        assert!((r[1] - phi).abs() < 0.05, "lag-1 {}", r[1]);
        assert!((r[2] - phi * phi).abs() < 0.07, "lag-2 {}", r[2]);
    }

    #[test]
    fn correlation_limits() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        assert!((correlation(&xs, &ys) - 1.0).abs() < 1e-12);
        let zs: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((correlation(&xs, &zs) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [3.0, 1.0, 2.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn sorted_quantiles_equal_one_shot_quantiles() {
        let xs: Vec<f64> = lcg_noise(1001, 5).iter().map(|u| u - 0.3).collect();
        let mut s = xs.clone();
        sort_for_quantiles(&mut s);
        for q in [0.0, 0.01, 0.05, 0.25, 0.37, 0.5, 0.75, 0.95, 0.99, 1.0] {
            assert_eq!(quantile_sorted(&s, q).to_bits(), quantile(&xs, q).to_bits());
        }
    }

    #[test]
    fn quantile_of_non_finite_input_does_not_panic() {
        // NaN sorts above +∞: only quantiles that touch the top see it.
        let xs = [2.0, f64::NAN, 1.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert!(quantile(&xs, 1.0).is_nan());
        assert!(quantile(&xs, 0.9).is_nan());
        // Infinities are ordinary extremes.
        let ys = [f64::NEG_INFINITY, 0.0, 1.0, f64::INFINITY];
        assert_eq!(quantile(&ys, 0.0), f64::NEG_INFINITY);
        assert_eq!(quantile(&ys, 0.5), 0.5);
        assert_eq!(quantile(&ys, 0.9), f64::INFINITY);
        assert!(quantile(&[f64::NEG_INFINITY, f64::INFINITY], 0.5).is_nan());
    }

    #[test]
    fn rmse_and_maxdiff() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 2.0, 7.0];
        assert!((rmse(&a, &b) - (16.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(max_abs_diff(&a, &b), 4.0);
    }
}
