//! Special functions needed by the spherical-harmonic machinery.
//!
//! Log-gamma (Lanczos) and log-factorials, from which the Wigner-d seeds
//! form factorial ratios that would underflow catastrophically if evaluated
//! naively at the band-limits used by the emulator (L ≈ 5,000).

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

/// `(-1)^k` without a branch on float parity.
#[inline(always)]
pub fn neg_one_pow(k: i64) -> f64 {
    if k & 1 == 0 {
        1.0
    } else {
        -1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact `n!` as f64 for `n <= 170` (beyond that f64 overflows): the
    /// oracle of `ln_factorial`'s table.
    fn factorial(n: u64) -> f64 {
        assert!(n <= 170, "factorial({n}) overflows f64");
        let mut acc = 1.0f64;
        for k in 2..=n {
            acc *= k as f64;
        }
        acc
    }

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
        for n in 0..=20 {
            let want = factorial(n).ln();
            assert!(
                (ln_factorial(n) - want).abs() <= 1e-15 * want.max(1.0),
                "n={n}"
            );
        }
    }

    #[test]
    fn neg_one_pow_parity() {
        assert_eq!(neg_one_pow(0), 1.0);
        assert_eq!(neg_one_pow(1), -1.0);
        assert_eq!(neg_one_pow(-3), -1.0);
        assert_eq!(neg_one_pow(8), 1.0);
    }
}
