//! # exaclim-sht
//!
//! Spherical harmonic transforms for real fields on the sphere — the
//! spectral engine of the climate emulator (paper §III.A.1–2).
//!
//! [`ShtPlan::equiangular`] plans the paper's FFT/Wigner-d method on
//! ERA5-style equiangular grids (eqs. 4–8). Analysis runs an FFT along
//! longitude, then per order `m` one co-latitude operator `A_m` — the
//! parity extension and DFT along co-latitude, the analytic integrals
//! `I(q)` and the contraction with the `d^ℓ(π/2)` tensors, multiplied out
//! once per plan on its first analysis. It is exact whenever `Nθ > L` and
//! `Nϕ ≥ 2L−1`, where plain ring-weight quadrature is *not*.
//!
//! Synthesis (inverse) is Legendre recombination per ring plus an inverse
//! real FFT along longitude. All plans are `Send + Sync`. Every transform
//! runs in blocks of `exaclim_fft::LANES` consecutive time slices: each
//! ring of a block is one lane group through the longitude FFT and the
//! θ-stage, every lane running its slice's per-slice chain. The batched
//! entry points spread the blocks over the shared worker pool
//! (`exaclim_runtime::pool`), reproducing the paper's "O(L) parallel time
//! for T slices" claim at CPU scale; a batch's short last block and a
//! single field ([`ShtPlan::analysis`], [`ShtPlan::synthesis`]) run as a
//! block with zeros in its idle lanes. A slice's bits are the same
//! whatever its lane, block-mates or batch, and equal the per-slice chain
//! kept as the test oracle. Each pool lane makes one block scratch; no
//! block allocates.

pub mod batch;
pub mod coeffs;
pub mod plan;

pub use batch::{analysis_batch, synthesis_batch};
pub use coeffs::HarmonicCoeffs;
pub use plan::ShtPlan;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Random band-limited coefficients for a real field.
    fn random_coeffs(lmax: usize, seed: u64) -> HarmonicCoeffs {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = HarmonicCoeffs::zeros(lmax);
        for l in 0..lmax {
            for m in 0..=l {
                let re = rng.gen_range(-1.0..1.0);
                let im = if m == 0 {
                    0.0
                } else {
                    rng.gen_range(-1.0..1.0)
                };
                c.set(l, m, exaclim_mathkit::Complex64::new(re, im));
            }
        }
        c
    }

    #[test]
    fn equiangular_roundtrip_synthesis_analysis() {
        for (l, nt, np) in [
            (4usize, 6usize, 8usize),
            (8, 9, 16),
            (16, 18, 33),
            (24, 25, 48),
        ] {
            let plan = ShtPlan::equiangular(l, nt, np);
            let c = random_coeffs(l, 100 + l as u64);
            let field = plan.synthesis(&c);
            let back = plan.analysis(&field);
            let err = c.max_abs_diff(&back);
            assert!(err < 1e-9, "L={l} ({nt}x{np}): err={err}");
        }
    }

    #[test]
    fn wigner_engine_beats_plain_quadrature_near_critical_sampling() {
        // At Nθ = L + 1 (critical sampling), Clenshaw–Curtis quadrature on
        // the closed grid is inexact for the highest degrees while the
        // paper's Wigner/FFT engine stays exact. This is the point of the
        // eqs. (4)–(8) machinery.
        let l = 16;
        let plan = ShtPlan::equiangular(l, l + 1, 2 * l + 1);
        let c = random_coeffs(l, 3);
        let field = plan.synthesis(&c);
        let exact = plan.analysis(&field);
        let quad = plan::reference::analysis_quadrature(&plan, &field);
        let err_exact = c.max_abs_diff(&exact);
        let err_quad = c.max_abs_diff(&quad);
        assert!(err_exact < 1e-9, "wigner engine err {err_exact}");
        assert!(
            err_quad > 100.0 * err_exact.max(1e-14),
            "quadrature should be visibly inexact: {err_quad} vs {err_exact}"
        );
    }

    #[test]
    fn constant_field_is_pure_y00() {
        let l = 8;
        let plan = ShtPlan::equiangular(l, 12, 24);
        let field = vec![3.5; 12 * 24];
        let c = plan.analysis(&field);
        let y00 = (4.0 * std::f64::consts::PI).sqrt() * 3.5;
        assert!((c.get(0, 0).re - y00).abs() < 1e-10);
        for l1 in 1..l {
            for m in 0..=l1 {
                assert!(c.get(l1, m as i64).abs() < 1e-10, "({l1},{m})");
            }
        }
    }

    #[test]
    fn parseval_on_sphere() {
        // ∫ |Z|² dΩ = Σ_{ℓm} |z_{ℓm}|² for band-limited Z.
        let l = 10;
        let plan = ShtPlan::equiangular(l, 20, 20);
        let c = random_coeffs(l, 21);
        let field = plan.synthesis(&c);
        let g = plan.grid();
        let dphi = 2.0 * std::f64::consts::PI / g.nphi() as f64;
        let mut integral = 0.0;
        for i in 0..g.ntheta() {
            for j in 0..g.nphi() {
                let v = field[i * g.nphi() + j];
                integral += v * v * g.ring_weight(i) * dphi;
            }
        }
        let spec: f64 = c.total_power();
        assert!(
            (integral - spec).abs() < 1e-9 * spec.max(1.0),
            "{integral} vs {spec}"
        );
    }

    #[test]
    fn synthesized_field_is_real_valued_and_smooth_at_poles() {
        let l = 8;
        let plan = ShtPlan::equiangular(l, 10, 20);
        let c = random_coeffs(l, 5);
        let field = plan.synthesis(&c);
        assert!(field.iter().all(|v| v.is_finite()));
        // Pole rings must be constant in longitude (only m = 0 survives).
        for ring in [0usize, 9] {
            let row = &field[ring * 20..(ring + 1) * 20];
            for v in row {
                assert!((v - row[0]).abs() < 1e-10, "pole ring not constant");
            }
        }
    }
}
