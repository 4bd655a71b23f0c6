//! Tukey g-and-h marginal transforms.
//!
//! Reference \[21\] of the paper (Jeong et al. 2019) builds a *wind* emulator
//! from Tukey g-and-h autoregressive processes: a Gaussian core `z` is
//! warped to `τ_{g,h}(z) = g⁻¹(e^{gz} − 1)·e^{hz²/2}` to capture skewness
//! (`g`) and heavy tails (`h ≥ 0`). Supporting this transform makes the
//! emulator multi-variable-ready (§VI: "robust and multi-variate
//! emulators"): fit `g, h` on the standardized residuals, de-warp to a
//! Gaussian core, run the usual spectral pipeline, re-warp on emulation.

/// A Tukey g-and-h transformation with location/scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TukeyGH {
    /// Location ξ.
    pub xi: f64,
    /// Scale ω > 0.
    pub omega: f64,
    /// Skewness parameter `g` (0 ⇒ symmetric).
    pub g: f64,
    /// Tail-weight parameter `h ≥ 0` (0 ⇒ Gaussian tails).
    pub h: f64,
}

impl TukeyGH {
    /// Forward warp: Gaussian core `z` → g-and-h variate.
    pub fn forward(&self, z: f64) -> f64 {
        assert!(self.h >= 0.0, "h must be non-negative");
        let core = if self.g.abs() < 1e-12 {
            z
        } else {
            ((self.g * z).exp() - 1.0) / self.g
        };
        self.xi + self.omega * core * (self.h * z * z / 2.0).exp()
    }

    /// Inverse warp by safeguarded Newton iteration (the transform is
    /// strictly increasing for `h ≥ 0`, `|g| < ∞`).
    pub fn inverse(&self, y: f64) -> f64 {
        let target = y;
        // Bracket the root.
        let mut lo = -40.0f64;
        let mut hi = 40.0f64;
        let mut z = 0.0f64;
        for _ in 0..200 {
            let f = self.forward(z) - target;
            if f.abs() < 1e-13 * (1.0 + target.abs()) {
                return z;
            }
            if f > 0.0 {
                hi = z;
            } else {
                lo = z;
            }
            // Newton step with bisection fallback.
            let dz = 1e-6;
            let deriv = (self.forward(z + dz) - self.forward(z - dz)) / (2.0 * dz);
            let newton = z - f / deriv;
            z = if deriv > 0.0 && newton > lo && newton < hi {
                newton
            } else {
                0.5 * (lo + hi)
            };
        }
        z
    }
}

/// Fit `(ξ, ω, g, h)` by quantile matching (Hoaglin's letter-value method):
/// `g` from the median-relative asymmetry of the p/1−p quantile pair,
/// `h` from the spread growth across two tail depths, then location/scale.
pub fn fit_tukey_gh(samples: &[f64]) -> TukeyGH {
    assert!(
        samples.len() >= 32,
        "need a reasonable sample for quantile fitting"
    );
    let zp = |p: f64| inverse_normal_cdf(p);
    // g from the 0.9 quantile pair.
    let (p1, p2) = (0.90, 0.99);
    // Every quantile the letter values read, selected in one pass.
    let levels = [0.5, p1, 1.0 - p1, p2, 1.0 - p2];
    let found = exaclim_mathkit::stats::quantiles(&mut samples.to_vec(), &levels);
    let q = |p: f64| {
        let i = levels.iter().position(|l| l.to_bits() == p.to_bits());
        found[i.expect("quantile level was selected")]
    };
    let median = q(0.5);
    let g_at = |p: f64| {
        let zq = zp(p);
        let upper = q(p) - median;
        let lower = median - q(1.0 - p);
        if upper <= 0.0 || lower <= 0.0 {
            return 0.0;
        }
        (1.0 / zq) * (upper / lower).ln()
    };
    let g = 0.5 * (g_at(p1) + g_at(p2));
    // h from spread growth between the two depths (for g-adjusted spread
    // s(p) = ω·(e^{gz}−e^{−gz})/g·e^{hz²/2}).
    let spread = |p: f64| q(p) - q(1.0 - p);
    let core = |p: f64| {
        let z = zp(p);
        if g.abs() < 1e-9 {
            2.0 * z
        } else {
            ((g * z).exp() - (-g * z).exp()) / g
        }
    };
    let (s1, s2) = (spread(p1), spread(p2));
    let (c1, c2) = (core(p1), core(p2));
    let (z1, z2) = (zp(p1), zp(p2));
    let h = if s1 > 0.0 && s2 > 0.0 && c1 > 0.0 && c2 > 0.0 {
        (((s2 / c2) / (s1 / c1)).ln() / ((z2 * z2 - z1 * z1) / 2.0)).max(0.0)
    } else {
        0.0
    };
    let omega = if c1 > 0.0 {
        (s1 / c1) / (h * z1 * z1 / 2.0).exp()
    } else {
        1.0
    };
    // ξ: forward(0) = ξ.
    TukeyGH {
        xi: median,
        omega: omega.max(1e-12),
        g,
        h,
    }
}

/// Acklam-style rational approximation of the standard normal quantile,
/// |relative error| < 1.2e-9 on (0, 1).
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile needs p in (0,1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -inverse_normal_cdf(1.0 - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaclim_mathkit::rng::StandardNormal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_when_g_h_zero() {
        let t = TukeyGH {
            xi: 0.0,
            omega: 1.0,
            g: 0.0,
            h: 0.0,
        };
        for z in [-3.0, -0.5, 0.0, 1.7] {
            assert!((t.forward(z) - z).abs() < 1e-14);
            assert!((t.inverse(z) - z).abs() < 1e-10);
        }
    }

    #[test]
    fn forward_is_strictly_increasing() {
        let t = TukeyGH {
            xi: 1.0,
            omega: 2.0,
            g: 0.4,
            h: 0.15,
        };
        let mut prev = f64::NEG_INFINITY;
        for k in 0..100 {
            let z = -4.0 + 0.08 * k as f64;
            let y = t.forward(z);
            assert!(y > prev, "monotonicity at z={z}");
            prev = y;
        }
    }

    #[test]
    fn inverse_inverts_forward() {
        let t = TukeyGH {
            xi: -2.0,
            omega: 0.7,
            g: -0.3,
            h: 0.1,
        };
        for k in 0..50 {
            let z = -3.0 + 0.12 * k as f64;
            let back = t.inverse(t.forward(z));
            assert!((back - z).abs() < 1e-8, "z={z}: {back}");
        }
    }

    #[test]
    fn positive_g_skews_right() {
        let t = TukeyGH {
            xi: 0.0,
            omega: 1.0,
            g: 0.8,
            h: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut sn = StandardNormal::new();
        let ys: Vec<f64> = (0..40_000)
            .map(|_| t.forward(sn.sample(&mut rng)))
            .collect();
        let mean = exaclim_mathkit::stats::mean(&ys);
        let med = exaclim_mathkit::stats::quantile(&ys, 0.5);
        assert!(mean > med + 0.05, "right skew: mean {mean} vs median {med}");
    }

    #[test]
    fn positive_h_fattens_tails() {
        let heavy = TukeyGH {
            xi: 0.0,
            omega: 1.0,
            g: 0.0,
            h: 0.25,
        };
        let mut rng = StdRng::seed_from_u64(6);
        let mut sn = StandardNormal::new();
        let (mut n_heavy, mut n_gauss) = (0usize, 0usize);
        for _ in 0..100_000 {
            let z = sn.sample(&mut rng);
            if heavy.forward(z).abs() > 3.0 {
                n_heavy += 1;
            }
            if z.abs() > 3.0 {
                n_gauss += 1;
            }
        }
        assert!(n_heavy > 2 * n_gauss, "heavy tails: {n_heavy} vs {n_gauss}");
    }

    #[test]
    fn fit_recovers_parameters_from_big_sample() {
        let truth = TukeyGH {
            xi: 3.0,
            omega: 1.5,
            g: 0.35,
            h: 0.08,
        };
        let mut rng = StdRng::seed_from_u64(9);
        let mut sn = StandardNormal::new();
        let ys: Vec<f64> = (0..200_000)
            .map(|_| truth.forward(sn.sample(&mut rng)))
            .collect();
        let fit = fit_tukey_gh(&ys);
        assert!((fit.xi - truth.xi).abs() < 0.05, "xi {}", fit.xi);
        assert!(
            (fit.omega - truth.omega).abs() < 0.15,
            "omega {}",
            fit.omega
        );
        assert!((fit.g - truth.g).abs() < 0.08, "g {}", fit.g);
        assert!((fit.h - truth.h).abs() < 0.06, "h {}", fit.h);
    }

    #[test]
    fn fit_of_gaussian_sample_is_near_identity_shape() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut sn = StandardNormal::new();
        let ys: Vec<f64> = (0..100_000).map(|_| sn.sample(&mut rng)).collect();
        let fit = fit_tukey_gh(&ys);
        assert!(fit.g.abs() < 0.05, "g {}", fit.g);
        assert!(fit.h < 0.04, "h {}", fit.h);
        assert!((fit.omega - 1.0).abs() < 0.1);
        assert!(fit.xi.abs() < 0.02);
    }

    #[test]
    fn inverse_normal_cdf_matches_known_points() {
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-5);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-5);
        assert!((inverse_normal_cdf(0.999) - 3.090232).abs() < 1e-5);
        // Symmetry.
        for p in [0.01, 0.2, 0.4] {
            assert!((inverse_normal_cdf(p) + inverse_normal_cdf(1.0 - p)).abs() < 1e-9);
        }
    }
}
