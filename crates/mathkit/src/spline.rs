//! Natural cubic spline interpolation.
//!
//! The paper up-samples the 0.25° ERA5 grid to band-limits 1,440 / 2,880 /
//! 5,219 by spline interpolation (§IV.A). This module provides the 1D
//! natural cubic spline used (separably) for that up-sampling.

/// A natural cubic spline through `(x_i, y_i)` with `y'' = 0` at both ends.
#[derive(Debug, Clone)]
pub struct CubicSpline {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Second derivatives at the knots.
    y2: Vec<f64>,
}

impl CubicSpline {
    /// Fit a natural spline. `xs` must be strictly increasing and have the
    /// same length as `ys` (≥ 2 points).
    pub fn new(xs: &[f64], ys: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        assert!(xs.len() >= 2, "spline needs at least two points");
        assert!(
            xs.windows(2).all(|w| w[0] < w[1]),
            "spline abscissae must be strictly increasing"
        );
        let n = xs.len();
        let mut y2 = vec![0.0f64; n];
        let mut u = vec![0.0f64; n];
        // Tridiagonal sweep (Thomas algorithm specialized to the natural BC).
        for i in 1..n - 1 {
            let sig = (xs[i] - xs[i - 1]) / (xs[i + 1] - xs[i - 1]);
            let p = sig * y2[i - 1] + 2.0;
            y2[i] = (sig - 1.0) / p;
            let d = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
                - (ys[i] - ys[i - 1]) / (xs[i] - xs[i - 1]);
            u[i] = (6.0 * d / (xs[i + 1] - xs[i - 1]) - sig * u[i - 1]) / p;
        }
        y2[n - 1] = 0.0;
        for i in (0..n - 1).rev() {
            y2[i] = y2[i] * y2[i + 1] + u[i];
        }
        Self {
            xs: xs.to_vec(),
            ys: ys.to_vec(),
            y2,
        }
    }

    /// Fit over uniformly spaced abscissae `x_i = x0 + i*dx`.
    pub fn uniform(x0: f64, dx: f64, ys: &[f64]) -> Self {
        let xs: Vec<f64> = (0..ys.len()).map(|i| x0 + i as f64 * dx).collect();
        Self::new(&xs, ys)
    }

    /// Evaluate at `x`. Outside the knot range the spline extrapolates with
    /// the boundary cubic (clamped queries are the caller's business).
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.xs.len();
        // Binary search for the bracketing interval.
        let mut lo = 0usize;
        let mut hi = n - 1;
        while hi - lo > 1 {
            let mid = (hi + lo) / 2;
            if self.xs[mid] > x {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let h = self.xs[hi] - self.xs[lo];
        let a = (self.xs[hi] - x) / h;
        let b = (x - self.xs[lo]) / h;
        a * self.ys[lo]
            + b * self.ys[hi]
            + ((a * a * a - a) * self.y2[lo] + (b * b * b - b) * self.y2[hi]) * (h * h) / 6.0
    }

    /// Number of knots.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True iff the spline has no knots (cannot occur after construction).
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }
}

/// Up-sample a periodic sequence (period = len·dx) by cubic spline, wrapping
/// three guard points on each side so the seam is smooth. Used for the
/// longitude direction of grid up-sampling.
pub fn upsample_periodic(ys: &[f64], factor: usize) -> Vec<f64> {
    assert!(factor >= 1);
    assert!(ys.len() >= 4, "periodic upsampling needs >= 4 samples");
    if factor == 1 {
        return ys.to_vec();
    }
    let n = ys.len();
    const GUARD: usize = 3;
    let mut ext = Vec::with_capacity(n + 2 * GUARD);
    for i in 0..GUARD {
        ext.push(ys[n - GUARD + i]);
    }
    ext.extend_from_slice(ys);
    for item in ys.iter().take(GUARD) {
        ext.push(*item);
    }
    let sp = CubicSpline::uniform(-(GUARD as f64), 1.0, &ext);
    let m = n * factor;
    (0..m).map(|j| sp.eval(j as f64 / factor as f64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_knots_exactly() {
        let xs = [0.0, 1.0, 2.5, 4.0, 5.0];
        let ys = [1.0, -2.0, 0.5, 3.0, 3.5];
        let sp = CubicSpline::new(&xs, &ys);
        for (x, y) in xs.iter().zip(&ys) {
            assert!((sp.eval(*x) - y).abs() < 1e-12);
        }
    }

    #[test]
    fn reproduces_linear_functions_exactly() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 2.0).collect();
        let sp = CubicSpline::new(&xs, &ys);
        for k in 0..90 {
            let x = k as f64 * 0.1;
            assert!((sp.eval(x) - (3.0 * x - 2.0)).abs() < 1e-10);
        }
    }

    #[test]
    fn smooth_function_accuracy_improves_with_density() {
        let f = |x: f64| (2.0 * x).sin() + 0.3 * x;
        let err = |n: usize| -> f64 {
            let xs: Vec<f64> = (0..n).map(|i| i as f64 / (n - 1) as f64 * 3.0).collect();
            let ys: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
            let sp = CubicSpline::new(&xs, &ys);
            (0..300)
                .map(|k| {
                    let x = k as f64 / 299.0 * 3.0;
                    (sp.eval(x) - f(x)).abs()
                })
                .fold(0.0, f64::max)
        };
        let e1 = err(10);
        let e2 = err(40);
        // Natural spline interior error is O(h^4); x16 density -> huge drop.
        assert!(e2 < e1 / 20.0, "e1={e1}, e2={e2}");
    }

    #[test]
    fn uniform_matches_explicit() {
        let ys = [0.0, 1.0, 0.0, -1.0, 0.0];
        let a = CubicSpline::uniform(0.0, 0.5, &ys);
        let xs: Vec<f64> = (0..5).map(|i| i as f64 * 0.5).collect();
        let b = CubicSpline::new(&xs, &ys);
        for k in 0..=20 {
            let x = k as f64 * 0.1;
            assert!((a.eval(x) - b.eval(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn periodic_upsample_preserves_samples() {
        let ys: Vec<f64> = (0..16)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 16.0).sin())
            .collect();
        let up = upsample_periodic(&ys, 4);
        assert_eq!(up.len(), 64);
        for i in 0..16 {
            assert!((up[4 * i] - ys[i]).abs() < 1e-10, "sample {i}");
        }
        // Interpolated values stay close to the underlying sine.
        for (j, item) in up.iter().enumerate() {
            let truth = (2.0 * std::f64::consts::PI * j as f64 / 64.0).sin();
            assert!((item - truth).abs() < 5e-3, "j={j}: {item} vs {truth}");
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted() {
        let _ = CubicSpline::new(&[0.0, 2.0, 1.0], &[0.0, 0.0, 0.0]);
    }
}
