//! Cross-crate transform checks: the SHT against the direct
//! spherical-harmonic oracle and against known coefficients, and spline
//! up-sampling against band-limited synthesis on the finer grid.

use exaclim_climate::upsample::upsample_field;
use exaclim_mathkit::Complex64;
use exaclim_sht::{HarmonicCoeffs, ShtPlan};
use exaclim_sphere::grid::EquiangularGrid;
use exaclim_sphere::harmonics::ylm;

/// Build a field as an explicit sum of `Y_{ℓm}` evaluations (O(L⁴) oracle).
fn oracle_field(coeffs: &HarmonicCoeffs, grid: &EquiangularGrid) -> Vec<f64> {
    let lmax = coeffs.lmax();
    let mut out = vec![0.0f64; grid.len()];
    for i in 0..grid.ntheta() {
        let theta = grid.theta(i);
        for j in 0..grid.nphi() {
            let phi = grid.phi(j);
            let mut acc = Complex64::ZERO;
            for l in 0..lmax {
                for m in -(l as i64)..=(l as i64) {
                    acc += coeffs.get(l, m) * ylm(l, m, theta, phi);
                }
            }
            out[i * grid.nphi() + j] = acc.re;
        }
    }
    out
}

fn test_coeffs(lmax: usize) -> HarmonicCoeffs {
    let mut c = HarmonicCoeffs::zeros(lmax);
    let mut v = 0.3;
    for l in 0..lmax {
        for m in 0..=l {
            v = (v * 7.7f64).sin();
            c.set(l, m, Complex64::new(v, if m == 0 { 0.0 } else { -v * 0.6 }));
        }
    }
    c
}

#[test]
fn synthesis_matches_direct_ylm_sum() {
    let lmax = 6;
    let coeffs = test_coeffs(lmax);
    let plan = ShtPlan::equiangular(lmax, 9, 13);
    let fast = plan.synthesis(&coeffs);
    let slow = oracle_field(&coeffs, plan.grid());
    for (a, b) in fast.iter().zip(&slow) {
        assert!((a - b).abs() < 1e-10, "{a} vs {b}");
    }
}

#[test]
fn wigner_analysis_inverts_oracle_synthesis() {
    let lmax = 6;
    let coeffs = test_coeffs(lmax);
    let plan = ShtPlan::equiangular(lmax, 8, 12);
    let field = oracle_field(&coeffs, plan.grid());
    let back = plan.analysis(&field);
    assert!(coeffs.max_abs_diff(&back) < 1e-10);
}

#[test]
fn critically_sampled_roundtrip_recovers_coefficients_at_moderate_bandlimit() {
    let lmax = 32;
    let coeffs = test_coeffs(lmax);
    let plan = ShtPlan::equiangular(lmax, lmax + 1, 2 * lmax + 1);
    let back = plan.analysis(&plan.synthesis(&coeffs));
    let err = coeffs.max_abs_diff(&back);
    assert!(err < 1e-9, "L={lmax}, Nθ=L+1: {err}");
}

#[test]
fn upsampled_field_approximates_bandlimited_resynthesis() {
    // Synthesize a smooth band-limited field at coarse resolution, spline
    // up-sample ×2, and compare against exact synthesis on the fine grid —
    // the paper's §IV.A up-scaling step.
    let lmax = 8;
    let coeffs = test_coeffs(lmax);
    let coarse_plan = ShtPlan::equiangular(lmax, 17, 32);
    let coarse = coarse_plan.synthesis(&coeffs);
    let (up, fnt, fnp) = upsample_field(&coarse, 17, 32, 2);
    let fine_plan = ShtPlan::equiangular(lmax, fnt, fnp);
    let exact = fine_plan.synthesis(&coeffs);
    let scale = exact.iter().fold(0.0f64, |a, &b| a.max(b.abs())).max(1e-9);
    let mut max_rel = 0.0f64;
    for (a, b) in up.iter().zip(&exact) {
        max_rel = max_rel.max((a - b).abs() / scale);
    }
    assert!(max_rel < 0.05, "spline upsampling error {max_rel}");
    // And the up-sampled grid supports a higher band-limit than the coarse
    // one (the point of up-scaling in the paper).
    assert!(fine_plan.grid().max_bandlimit() > coarse_plan.grid().max_bandlimit());
}

#[test]
fn power_spectrum_survives_the_transform_chain() {
    let lmax = 12;
    let coeffs = test_coeffs(lmax);
    let plan = ShtPlan::equiangular(lmax, lmax + 3, 2 * lmax + 4);
    let back = plan.analysis(&plan.synthesis(&coeffs));
    let p1 = coeffs.power_spectrum();
    let p2 = back.power_spectrum();
    for (a, b) in p1.iter().zip(&p2) {
        assert!((a - b).abs() < 1e-9 * a.max(1.0), "{a} vs {b}");
    }
}
