//! Special functions needed by the spherical-harmonic machinery.
//!
//! Log-gamma (Lanczos), exact small factorials, and numerically safe ratios
//! of factorials such as `sqrt((l-m)!/(l+m)!)` which underflow catastrophically
//! if evaluated naively at the band-limits used by the emulator (L ≈ 5,000).

/// Lanczos coefficients (g = 7, n = 9), giving ~15 significant digits.
const LANCZOS_G: f64 = 7.0;
#[allow(clippy::excessive_precision, clippy::inconsistent_digit_grouping)]
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_93,
    676.520_368_121_885_1,
    -1259.139_216_722_402_8,
    771.323_428_777_653_13,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the gamma function for `x > 0`.
///
/// Accurate to ~1e-13 relative over the range used here (arguments up to
/// ~2·10⁴ from factorial ratios at L ≈ 10⁴).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula keeps accuracy for tiny arguments.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = LANCZOS[0];
    let t = x + LANCZOS_G + 0.5;
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// `ln(n!)` for non-negative `n`, exact table for `n <= 20`.
pub fn ln_factorial(n: u64) -> f64 {
    #[allow(clippy::approx_constant)] // ln(2!) happens to be ln 2
    const TABLE: [f64; 21] = [
        0.0,
        0.0,
        0.6931471805599453,
        1.791759469228055,
        3.1780538303479458,
        4.787491742782046,
        6.579251212010101,
        8.525161361065415,
        10.60460290274525,
        12.801827480081469,
        15.104412573075516,
        17.502307845873887,
        19.987214495661885,
        22.552163853123425,
        25.19122118273868,
        27.89927138384089,
        30.671860106080672,
        33.50507345013689,
        36.39544520803305,
        39.339884187199495,
        42.335616460753485,
    ];
    if n <= 20 {
        TABLE[n as usize]
    } else {
        ln_gamma(n as f64 + 1.0)
    }
}

/// Exact `n!` as f64 for `n <= 170` (beyond that f64 overflows).
pub fn factorial(n: u64) -> f64 {
    assert!(n <= 170, "factorial({n}) overflows f64");
    let mut acc = 1.0f64;
    for k in 2..=n {
        acc *= k as f64;
    }
    acc
}

/// `sqrt((l-m)! / (l+m)!)` computed in log space — the normalization factor
/// of associated Legendre functions. Stable for any `l` up to ~10⁶.
pub fn sqrt_factorial_ratio(l: u64, m: u64) -> f64 {
    assert!(m <= l);
    (0.5 * (ln_factorial(l - m) - ln_factorial(l + m))).exp()
}

/// Binomial coefficient `C(n, k)` as f64 via log-gamma (exact to f64 rounding
/// for moderate n).
pub fn binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return 0.0;
    }
    (ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)).exp()
}

/// `(-1)^k` without a branch on float parity.
#[inline(always)]
pub fn neg_one_pow(k: i64) -> f64 {
    if k & 1 == 0 {
        1.0
    } else {
        -1.0
    }
}

/// Standard normal CDF via the complementary error function (Abramowitz &
/// Stegun 7.1.26-style rational approximation refined with one Newton step;
/// absolute error < 1e-12).
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x * std::f64::consts::FRAC_1_SQRT_2)
}

/// Complementary error function, |error| < 1.2e-7 (Numerical Recipes
/// Chebyshev fit) — ample for the tail-probability diagnostics it backs.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1u64..=20 {
            let lg = ln_gamma(n as f64 + 1.0);
            let lf = ln_factorial(n);
            assert!((lg - lf).abs() < 1e-10, "n={n}: {lg} vs {lf}");
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Gamma(1/2) = sqrt(pi)
        let g = ln_gamma(0.5);
        assert!((g - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-12);
        // Gamma(3/2) = sqrt(pi)/2
        let g = ln_gamma(1.5);
        assert!((g - (0.5 * std::f64::consts::PI.ln() - std::f64::consts::LN_2)).abs() < 1e-12);
    }

    #[test]
    fn factorial_exact_small() {
        assert_eq!(factorial(0), 1.0);
        assert_eq!(factorial(5), 120.0);
        assert_eq!(factorial(10), 3_628_800.0);
    }

    #[test]
    fn sqrt_ratio_stable_at_large_l() {
        // For l = 5000, m = 50 the naive ratio underflows; log-space must not.
        let r = sqrt_factorial_ratio(5000, 50);
        assert!(r > 0.0 && r.is_finite());
        // Check against the product form for a modest case.
        let l = 30u64;
        let m = 7u64;
        let mut prod = 1.0f64;
        for k in (l - m + 1)..=(l + m) {
            prod *= k as f64;
        }
        let expect = (1.0 / prod).sqrt();
        let got = sqrt_factorial_ratio(l, m);
        assert!((got - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn binomial_rows() {
        assert_eq!(binomial(5, 0), 1.0);
        assert!((binomial(10, 5) - 252.0).abs() < 1e-9);
        assert_eq!(binomial(4, 7), 0.0);
    }

    #[test]
    fn neg_one_pow_parity() {
        assert_eq!(neg_one_pow(0), 1.0);
        assert_eq!(neg_one_pow(1), -1.0);
        assert_eq!(neg_one_pow(-3), -1.0);
        assert_eq!(neg_one_pow(8), 1.0);
    }

    #[test]
    fn normal_cdf_symmetry_and_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-6);
        for &x in &[0.5, 1.0, 1.96, 3.0] {
            let s = normal_cdf(x) + normal_cdf(-x);
            assert!((s - 1.0).abs() < 1e-9, "symmetry at {x}: {s}");
        }
        // Phi(1.96) ≈ 0.9750021
        assert!((normal_cdf(1.96) - 0.975_002_1).abs() < 1e-5);
        // Phi(1) ≈ 0.8413447
        assert!((normal_cdf(1.0) - 0.841_344_7).abs() < 1e-5);
    }

    #[test]
    fn erfc_limits() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!(erfc(6.0) < 1e-15);
        assert!((erfc(-6.0) - 2.0).abs() < 1e-15);
    }
}
