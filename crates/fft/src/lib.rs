//! # exaclim-fft
//!
//! In-house complex FFT used by the spherical harmonic transform:
//!
//! * recursive mixed-radix Cooley–Tukey for sizes whose prime factors are
//!   small (the SHT grids are `Nϕ` and `2Nθ − 2`, e.g. 1440 = 2⁵·3²·5),
//! * Bluestein's chirp-z algorithm for sizes with a large prime factor,
//! * plan objects that precompute twiddles once and are `Send + Sync`, so
//!   one plan can serve every pool lane transforming time slices,
//! * lane groups ([`lanes`]): one plan run on [`LANES`] signals at once,
//!   structure-of-arrays, bit-identical per lane to the scalar transforms;
//!   the executor is compiled a second time for AVX2 (no FMA) and chosen at
//!   run time through `exaclim_mathkit::avx2_dispatch!`; the crate has no
//!   `unsafe` of its own.
//!
//! Conventions: `forward` computes `X_k = Σ_j x_j e^{-2πi jk/n}` (no
//! scaling); `inverse` computes `x_j = (1/n) Σ_k X_k e^{+2πi jk/n}` so that
//! `inverse(forward(x)) == x`.

pub mod lanes;
pub mod plan;
pub mod real;

pub use lanes::{irfft_lanes, rfft_lanes, LaneScratch, Lanes, LANES};
pub use plan::Fft;
pub use real::{irfft, irfft_into, real_scratch_len, rfft, rfft_into};

use exaclim_mathkit::Complex64;

/// One-shot forward FFT (plans and reuses nothing; prefer [`Fft`] in loops).
pub fn fft_forward(data: &mut [Complex64]) {
    Fft::new(data.len()).forward(data);
}

/// Naive O(n²) DFT — the reference oracle for tests and a correct fallback
/// for tiny sizes.
pub fn dft_naive(input: &[Complex64], inverse: bool) -> Vec<Complex64> {
    let n = input.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut out = vec![Complex64::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex64::ZERO;
        for (j, &x) in input.iter().enumerate() {
            let ang = sign * 2.0 * std::f64::consts::PI * (j * k % n.max(1)) as f64 / n as f64;
            acc += x * Complex64::cis(ang);
        }
        *o = if inverse { acc / n as f64 } else { acc };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaclim_mathkit::Complex64;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_signal(n: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    }

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_naive_dft_many_sizes() {
        // Powers of two, smooth composites, primes, and SHT-typical sizes.
        for &n in &[
            1usize, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 25, 27, 30, 32, 45, 64, 97, 100, 101, 120, 128,
            144, 180, 240, 251, 360,
        ] {
            let x = random_signal(n, n as u64);
            let mut y = x.clone();
            fft_forward(&mut y);
            let expect = dft_naive(&x, false);
            let err = max_err(&y, &expect);
            assert!(err < 1e-9 * (n as f64).max(1.0), "n={n}: err={err}");
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        for &n in &[4usize, 15, 64, 97, 210, 720, 1440] {
            let x = random_signal(n, 1000 + n as u64);
            let mut y = x.clone();
            let plan = Fft::new(n);
            plan.forward(&mut y);
            plan.inverse(&mut y);
            assert!(max_err(&x, &y) < 1e-10, "n={n}");
        }
    }

    #[test]
    fn delta_transforms_to_constant() {
        let n = 48;
        let mut x = vec![Complex64::ZERO; n];
        x[0] = Complex64::ONE;
        fft_forward(&mut x);
        for z in &x {
            assert!((*z - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_transforms_to_delta() {
        let n = 60;
        let mut x = vec![Complex64::ONE; n];
        fft_forward(&mut x);
        assert!((x[0] - Complex64::real(n as f64)).abs() < 1e-10);
        for z in &x[1..] {
            assert!(z.abs() < 1e-9);
        }
    }

    #[test]
    fn single_tone_lands_in_single_bin() {
        let n = 90;
        let k0 = 17;
        let x: Vec<Complex64> = (0..n)
            .map(|j| Complex64::cis(2.0 * std::f64::consts::PI * (j * k0) as f64 / n as f64))
            .collect();
        let mut y = x.clone();
        fft_forward(&mut y);
        for (k, z) in y.iter().enumerate() {
            if k == k0 {
                assert!((*z - Complex64::real(n as f64)).abs() < 1e-9);
            } else {
                assert!(z.abs() < 1e-8, "leakage at bin {k}: {}", z.abs());
            }
        }
    }

    #[test]
    fn parseval_holds() {
        for &n in &[33usize, 128, 250] {
            let x = random_signal(n, 5 + n as u64);
            let mut y = x.clone();
            fft_forward(&mut y);
            let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
            let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
            assert!((ex - ey).abs() < 1e-9 * ex.max(1.0), "n={n}");
        }
    }

    #[test]
    fn linearity() {
        let n = 75;
        let a = random_signal(n, 2);
        let b = random_signal(n, 3);
        let alpha = Complex64::new(0.3, -1.2);
        let combo: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| alpha * *x + *y).collect();
        let plan = Fft::new(n);
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fc = combo.clone();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        plan.forward(&mut fc);
        let expect: Vec<Complex64> = fa.iter().zip(&fb).map(|(x, y)| alpha * *x + *y).collect();
        assert!(max_err(&fc, &expect) < 1e-9);
    }

    #[test]
    fn naive_dft_inverse_consistent() {
        let x = random_signal(12, 8);
        let f = dft_naive(&x, false);
        let b = dft_naive(&f, true);
        assert!(max_err(&x, &b) < 1e-12);
    }

    #[test]
    fn plan_reuse_is_consistent() {
        let plan = Fft::new(100);
        let x = random_signal(100, 77);
        let mut y1 = x.clone();
        let mut y2 = x.clone();
        plan.forward(&mut y1);
        plan.forward(&mut y2);
        assert!(
            max_err(&y1, &y2) == 0.0,
            "same plan, same input, same output"
        );
    }

    #[test]
    fn plans_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Fft>();
    }
}
