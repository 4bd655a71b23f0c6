//! Real-input transform helpers.
//!
//! Climate fields are real, so along longitude only the `m >= 0` Fourier
//! coefficients are independent (`X_{n-m} = conj(X_m)`). These helpers keep
//! that half-spectrum representation.

use crate::Fft;
use exaclim_mathkit::Complex64;

/// Scratch length [`rfft_into`] and [`irfft_into`] need for `plan`: the
/// complex working copy of the signal plus the plan's own scratch.
pub fn real_scratch_len(plan: &Fft) -> usize {
    plan.len() + plan.scratch_len()
}

/// Forward FFT of a real signal; returns the `n/2 + 1` non-redundant bins.
pub fn rfft(plan: &Fft, input: &[f64]) -> Vec<Complex64> {
    let mut out = vec![Complex64::ZERO; plan.len() / 2 + 1];
    let mut scratch = vec![Complex64::ZERO; real_scratch_len(plan)];
    rfft_into(plan, input, &mut out, &mut scratch);
    out
}

/// [`rfft`] without allocating: writes the first `out.len() ≤ n/2 + 1`
/// bins, working in `scratch` (len ≥ [`real_scratch_len`]).
pub fn rfft_into(plan: &Fft, input: &[f64], out: &mut [Complex64], scratch: &mut [Complex64]) {
    let n = plan.len();
    assert_eq!(input.len(), n);
    assert!(out.len() <= n / 2 + 1, "a real signal has n/2+1 bins");
    let (buf, rest) = scratch.split_at_mut(n);
    for (z, &x) in buf.iter_mut().zip(input) {
        *z = Complex64::real(x);
    }
    plan.forward_with_scratch(buf, rest);
    out.copy_from_slice(&buf[..out.len()]);
}

/// Inverse of [`rfft`]: reconstruct the length-`n` real signal from its
/// `n/2 + 1` non-redundant bins.
pub fn irfft(plan: &Fft, half_spectrum: &[Complex64]) -> Vec<f64> {
    let mut out = vec![0.0; plan.len()];
    let mut scratch = vec![Complex64::ZERO; real_scratch_len(plan)];
    irfft_into(plan, half_spectrum, &mut out, &mut scratch);
    out
}

/// [`irfft`] without allocating: writes the signal into `out` (len `n`),
/// working in `scratch` (len ≥ [`real_scratch_len`]).
pub fn irfft_into(
    plan: &Fft,
    half_spectrum: &[Complex64],
    out: &mut [f64],
    scratch: &mut [Complex64],
) {
    let n = plan.len();
    assert_eq!(
        half_spectrum.len(),
        n / 2 + 1,
        "need n/2+1 bins for length {n}"
    );
    assert_eq!(out.len(), n);
    let (buf, rest) = scratch.split_at_mut(n);
    // The bins and their conjugate mirror cover every index of `buf`.
    buf[..half_spectrum.len()].copy_from_slice(half_spectrum);
    for k in 1..n.div_ceil(2) {
        buf[n - k] = half_spectrum[k].conj();
    }
    plan.inverse_with_scratch(buf, rest);
    for (x, z) in out.iter_mut().zip(buf.iter()) {
        *x = z.re;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn rfft_roundtrip_even_and_odd() {
        let mut rng = StdRng::seed_from_u64(11);
        for &n in &[8usize, 9, 64, 99, 144] {
            let plan = Fft::new(n);
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let spec = rfft(&plan, &x);
            assert_eq!(spec.len(), n / 2 + 1);
            let back = irfft(&plan, &spec);
            for (a, b) in x.iter().zip(&back) {
                assert!((a - b).abs() < 1e-10, "n={n}");
            }
        }
    }

    #[test]
    fn rfft_of_cosine_is_real_spike() {
        let n = 64;
        let plan = Fft::new(n);
        let k0 = 5;
        let x: Vec<f64> = (0..n)
            .map(|j| (2.0 * std::f64::consts::PI * (k0 * j) as f64 / n as f64).cos())
            .collect();
        let spec = rfft(&plan, &x);
        for (k, z) in spec.iter().enumerate() {
            if k == k0 {
                assert!((z.re - n as f64 / 2.0).abs() < 1e-9);
                assert!(z.im.abs() < 1e-9);
            } else {
                assert!(z.abs() < 1e-9, "bin {k}");
            }
        }
    }

    #[test]
    fn dc_bin_is_sum() {
        let n = 31;
        let plan = Fft::new(n);
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let spec = rfft(&plan, &x);
        let sum: f64 = x.iter().sum();
        assert!((spec[0].re - sum).abs() < 1e-9);
        assert!(spec[0].im.abs() < 1e-9);
    }
}
