//! SHT plans: the per-grid precomputation every transform shares. The
//! transforms themselves run in `sht::batch`, in blocks of time slices.

use exaclim_fft::Fft;
use exaclim_mathkit::Complex64;
use exaclim_sphere::grid::EquiangularGrid;
use exaclim_sphere::harmonics::integral_iq;
use exaclim_sphere::legendre::{packed_len, LegendreTable};
use exaclim_sphere::wigner::WignerPiHalf;
use std::sync::OnceLock;

/// A reusable spherical-harmonic transform plan for one equiangular grid
/// and band-limit.
///
/// Precomputes per-ring normalized Legendre values (`O(Nθ L²)` memory) and
/// the longitude FFT plan. The first analysis adds the co-latitude
/// operators `A_m` (≈ `L²Nθ/2` complex values, built from the
/// Wigner-d(π/2) tensor of the paper's pre-computation strategy); plans
/// that only ever synthesize never build them.
pub struct ShtPlan {
    lmax: usize,
    grid: EquiangularGrid,
    /// `legendre[i][idx(l, m)] = λ_ℓ^m(cos θ_i)`.
    pub(crate) legendre: Vec<Vec<f64>>,
    pub(crate) fft_phi: Fft,
    /// `theta_operator[m]` is the `(L−m) × Nθ` row-major matrix `A_m` with
    /// `z_{ℓm} = Σ_i A_m[ℓ−m, i] · G_m(θ_i)`.
    theta_operator: OnceLock<Vec<Vec<Complex64>>>,
}

impl ShtPlan {
    /// Equiangular (ERA5-style) plan at band-limit `L` on an `Nθ × Nϕ`
    /// grid. Exactness requires `Nθ > L` and `Nϕ ≥ 2L − 1`.
    pub fn equiangular(lmax: usize, ntheta: usize, nphi: usize) -> Self {
        assert!(lmax >= 1);
        assert!(
            ntheta > lmax,
            "Wigner engine needs Nθ > L (got Nθ={ntheta}, L={lmax})"
        );
        assert!(
            nphi >= 2 * lmax - 1,
            "need Nϕ ≥ 2L−1 (got Nϕ={nphi}, L={lmax})"
        );
        let grid = EquiangularGrid::new(ntheta, nphi);
        let legendre = ring_legendre(&grid, lmax);
        let fft_phi = Fft::new(nphi);
        Self {
            lmax,
            grid,
            legendre,
            fft_phi,
            theta_operator: OnceLock::new(),
        }
    }

    /// Band-limit `L` (degrees `ℓ < L`).
    pub fn lmax(&self) -> usize {
        self.lmax
    }

    /// The underlying grid.
    pub fn grid(&self) -> &EquiangularGrid {
        &self.grid
    }

    /// Number of real values in one field on this plan's grid.
    pub fn field_len(&self) -> usize {
        self.grid().len()
    }

    /// The co-latitude operators `A_m`, built on first use.
    pub(crate) fn theta_operators(&self) -> &[Vec<Complex64>] {
        let nt = self.grid().ntheta();
        self.theta_operator
            .get_or_init(|| theta_operator(self.lmax, nt))
    }
}

/// Build the co-latitude operators of eqs. 4–8 for band-limit `lmax` on
/// `nt` equiangular rings: for every order `m`
///
/// `A_m[ℓ, i] = i^{−m} √((2ℓ+1)/4π) Σ_{m''} Δ^ℓ_{m''0} Δ^ℓ_{m''m} B_m[m'', i]`,
/// `B_m[m'', i] = 1/(2Nθ−2) Σ_{m'} I(m'+m'') c_i(m')`,
///
/// where `c_i(m') = e^{−im'θ_i} ± e^{+im'θ_i}` is ring `i`'s column of the
/// parity-extended θ-DFT (`+` for even `m`, `−` for odd; the pole rings
/// have no mirror image and keep the first term only). `B` depends on `m`
/// through its parity alone, so it is built twice, and each `A_m` row is a
/// real combination of `2ℓ+1` rows of `B` — small dense products, no FFT.
fn theta_operator(lmax: usize, nt: usize) -> Vec<Vec<Complex64>> {
    let li = lmax as i64;
    let width = 2 * lmax - 1; // m', m'' ∈ [−(L−1), L−1]
    let next = (2 * nt - 2) as i64;
    let delta = WignerPiHalf::new(lmax - 1);

    // b[parity][(m'' + L−1) · nt + i]
    let b: Vec<Vec<Complex64>> = [1.0, -1.0]
        .iter()
        .map(|&sign| {
            // c[(m' + L−1) · nt + i]
            let mut c = vec![Complex64::ZERO; width * nt];
            for (row, mp) in c.chunks_exact_mut(nt).zip(-(li - 1)..) {
                for (i, z) in row.iter_mut().enumerate() {
                    let turns = (i as i64 * mp).rem_euclid(next) as f64 / next as f64;
                    let e = Complex64::cis(-2.0 * std::f64::consts::PI * turns);
                    *z = if i == 0 || i == nt - 1 {
                        e
                    } else {
                        e + e.conj() * sign
                    };
                }
            }
            let mut b = vec![Complex64::ZERO; width * nt];
            for (brow, mpp) in b.chunks_exact_mut(nt).zip(-(li - 1)..) {
                for (crow, mp) in c.chunks_exact(nt).zip(-(li - 1)..) {
                    let iq = integral_iq(mp + mpp);
                    if iq == Complex64::ZERO {
                        continue;
                    }
                    let w = iq / next as f64;
                    for (bz, cz) in brow.iter_mut().zip(crow) {
                        *bz += w * *cz;
                    }
                }
            }
            b
        })
        .collect();

    (0..lmax)
        .map(|m| {
            let phase = Complex64::i_pow(-(m as i64));
            let b = &b[m % 2];
            let mut a_m = vec![Complex64::ZERO; (lmax - m) * nt];
            for (row, deg) in a_m.chunks_exact_mut(nt).zip(m..) {
                let di = deg as i64;
                for mpp in -di..=di {
                    let wgt = delta.get(deg, mpp, 0) * delta.get(deg, mpp, m as i64);
                    if wgt == 0.0 {
                        // Δ^ℓ_{m''0} vanishes whenever ℓ + m'' is odd.
                        continue;
                    }
                    let brow = &b[(mpp + li - 1) as usize * nt..][..nt];
                    for (z, bz) in row.iter_mut().zip(brow) {
                        *z += *bz * wgt;
                    }
                }
                let norm = ((2.0 * deg as f64 + 1.0) / (4.0 * std::f64::consts::PI)).sqrt();
                for z in row.iter_mut() {
                    *z = phase * *z * norm;
                }
            }
            a_m
        })
        .collect()
}

/// Evaluate the normalized Legendre table at every ring of the grid.
fn ring_legendre(grid: &EquiangularGrid, lmax: usize) -> Vec<Vec<f64>> {
    let table = LegendreTable::new(lmax - 1);
    (0..grid.ntheta())
        .map(|i| {
            let theta = grid.theta(i);
            let mut v = vec![0.0; packed_len(lmax - 1)];
            table.eval_into(theta.cos(), theta.sin(), &mut v);
            v
        })
        .collect()
}

/// The test oracles: the per-slice transform chain every lane of a block
/// runs (`analysis_into`/`synthesis_into`, one field at a time in
/// caller-owned scratch), the per-field θ-stage the operators `A_m`
/// replaced — eqs. 4–8 step by step, for every field and order: parity
/// extension, FFT along θ, `I(q)` convolution, Wigner contraction — and the
/// plain ring-weight quadrature the paper's method improves on.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::coeffs::HarmonicCoeffs;
    use exaclim_fft::{irfft_into, real_scratch_len, rfft, rfft_into};
    use exaclim_sphere::legendre::idx;

    /// Working memory of one per-slice transform at a time on one plan;
    /// reusing it across fields keeps [`analysis_into`] and
    /// [`synthesis_into`] free of allocation.
    pub struct ShtScratch {
        /// Half spectrum of one ring, `Nϕ/2 + 1` bins.
        half: Vec<Complex64>,
        /// Working memory of the real longitude FFT.
        fft: Vec<Complex64>,
        /// `G_m(θ_i)` of one field, order-major (`m · Nθ + i`).
        gm: Vec<Complex64>,
    }

    /// Working memory for `plan`'s per-slice transforms.
    pub fn scratch(plan: &ShtPlan) -> ShtScratch {
        let g = plan.grid();
        ShtScratch {
            half: vec![Complex64::ZERO; g.nphi() / 2 + 1],
            fft: vec![Complex64::ZERO; real_scratch_len(&plan.fft_phi)],
            gm: vec![Complex64::ZERO; g.ntheta() * plan.lmax],
        }
    }

    /// Analysis of one field into existing coefficients (overwritten).
    pub fn analysis_into(
        plan: &ShtPlan,
        field: &[f64],
        coeffs: &mut HarmonicCoeffs,
        scratch: &mut ShtScratch,
    ) {
        assert_eq!(coeffs.lmax(), plan.lmax, "band-limit mismatch");
        longitude_spectra(plan, field, scratch);
        let nt = plan.grid().ntheta();
        let data = coeffs.as_mut_slice();
        for (m, a_m) in plan.theta_operators().iter().enumerate() {
            let g_m = &scratch.gm[m * nt..(m + 1) * nt];
            for (k, row) in a_m.chunks_exact(nt).enumerate() {
                let mut acc = Complex64::ZERO;
                for (a, g) in row.iter().zip(g_m) {
                    acc += *a * *g;
                }
                data[idx(m + k, m)] = acc;
            }
        }
    }

    /// Synthesis of one field into an existing buffer (overwritten).
    pub fn synthesis_into(
        plan: &ShtPlan,
        coeffs: &HarmonicCoeffs,
        out: &mut [f64],
        scratch: &mut ShtScratch,
    ) {
        assert_eq!(coeffs.lmax(), plan.lmax, "band-limit mismatch");
        assert_eq!(out.len(), plan.field_len(), "field size mismatch");
        let np = plan.grid().nphi();
        let half = &mut scratch.half;
        for (lam, row) in plan.legendre.iter().zip(out.chunks_exact_mut(np)) {
            for z in half.iter_mut() {
                *z = Complex64::ZERO;
            }
            for m in 0..plan.lmax.min(half.len()) {
                let mut acc = Complex64::ZERO;
                for l in m..plan.lmax {
                    acc += coeffs.as_slice()[idx(l, m)] * lam[idx(l, m)];
                }
                half[m] = acc * np as f64;
            }
            irfft_into(&plan.fft_phi, half, row, &mut scratch.fft);
        }
    }

    /// Step 1 of analysis: `G_m(θ_i) = ∫ Z e^{-imφ} dφ` for `m < L` via
    /// the longitude FFT of every ring, into `scratch.gm`.
    fn longitude_spectra(plan: &ShtPlan, field: &[f64], scratch: &mut ShtScratch) {
        assert_eq!(field.len(), plan.field_len(), "field size mismatch");
        let g = plan.grid();
        let (nt, np) = (g.ntheta(), g.nphi());
        let dphi = 2.0 * std::f64::consts::PI / np as f64;
        let bins = plan.lmax.min(scratch.half.len());
        scratch.gm.fill(Complex64::ZERO);
        for (i, ring) in field.chunks_exact(np).enumerate() {
            let spec = &mut scratch.half[..bins];
            rfft_into(&plan.fft_phi, ring, spec, &mut scratch.fft);
            for (m, z) in spec.iter().enumerate() {
                scratch.gm[m * nt + i] = *z * dphi;
            }
        }
    }

    /// Forward transform by plain ring-weight quadrature,
    /// `z_{ℓm} = Σ_i w_i λ_ℓ^m(θ_i) G_m(θ_i)`. On equiangular grids near
    /// critical sampling this is *inexact*.
    pub fn analysis_quadrature(plan: &ShtPlan, field: &[f64]) -> HarmonicCoeffs {
        let mut scratch = scratch(plan);
        longitude_spectra(plan, field, &mut scratch);
        let g = plan.grid();
        let nt = g.ntheta();
        let mut coeffs = HarmonicCoeffs::zeros(plan.lmax);
        let data = coeffs.as_mut_slice();
        for (i, lam) in plan.legendre.iter().enumerate() {
            let w = g.ring_weight(i);
            for m in 0..plan.lmax {
                let f = scratch.gm[m * nt + i] * w;
                for l in m..plan.lmax {
                    data[idx(l, m)] += f * lam[idx(l, m)];
                }
            }
        }
        coeffs
    }

    /// What an equiangular plan used to precompute for the θ-stage.
    pub struct WignerData {
        fft_theta: Fft,
        delta: WignerPiHalf,
        /// `I(q)` for `q ∈ [−(2L−2), 2L−2]`, index `q + 2L − 2`.
        iq: Vec<Complex64>,
    }

    impl WignerData {
        pub fn new(lmax: usize, ntheta: usize) -> Self {
            let iq = (-(2 * lmax as i64 - 2)..=(2 * lmax as i64 - 2))
                .map(integral_iq)
                .collect();
            Self {
                fft_theta: Fft::new(2 * ntheta - 2),
                delta: WignerPiHalf::new(lmax - 1),
                iq,
            }
        }
    }

    pub fn analysis_wigner(plan: &ShtPlan, wd: &WignerData, field: &[f64]) -> HarmonicCoeffs {
        let g = plan.grid();
        let (nt, np) = (g.ntheta(), g.nphi());
        let next = 2 * nt - 2;
        let dphi = 2.0 * std::f64::consts::PI / np as f64;
        let l = plan.lmax;
        let li = l as i64;
        // Step 1: G_m(θ_i) for m ∈ [0, L).
        let mut gm = vec![Complex64::ZERO; nt * l];
        for i in 0..nt {
            let spec = rfft(&plan.fft_phi, &field[i * np..(i + 1) * np]);
            for m in 0..l.min(spec.len()) {
                gm[i * l + m] = spec[m] * dphi;
            }
        }
        let mut coeffs = HarmonicCoeffs::zeros(l);
        let iq0 = 2 * li - 2; // iq index offset: iq[q + iq0]
        let mut ext = vec![Complex64::ZERO; next];
        let mut jtab = vec![Complex64::ZERO; (2 * l - 1).max(1)];
        for m in 0..l {
            // Step 2: parity extension along θ and FFT → K_{m,m'}.
            for z in ext.iter_mut() {
                *z = Complex64::ZERO;
            }
            let sign = if m % 2 == 0 { 1.0 } else { -1.0 };
            for i in 0..nt {
                ext[i] = gm[i * l + m];
            }
            for i in 1..nt - 1 {
                ext[next - i] = gm[i * l + m] * sign;
            }
            wd.fft_theta.forward(&mut ext);
            let kval =
                |mp: i64| -> Complex64 { ext[(mp.rem_euclid(next as i64)) as usize] / next as f64 };
            // Step 3a: J(m'') = Σ_{m'} K_{m,m'} I(m' + m'').
            for (jj, jslot) in jtab.iter_mut().enumerate() {
                let mpp = jj as i64 - (li - 1);
                let mut acc = Complex64::ZERO;
                for mp in -(li - 1)..=(li - 1) {
                    acc += kval(mp) * wd.iq[(mp + mpp + iq0) as usize];
                }
                *jslot = acc;
            }
            // Step 3b: z_{ℓm} = i^{−m} sqrt((2ℓ+1)/4π) Σ_{m''} Δ_{m'',0} Δ_{m'',m} J(m'').
            let phase = Complex64::i_pow(-(m as i64));
            let data = coeffs.as_mut_slice();
            for deg in m..l {
                let di = deg as i64;
                let mut acc = Complex64::ZERO;
                for mpp in -di..=di {
                    let wgt = wd.delta.get(deg, mpp, 0) * wd.delta.get(deg, mpp, m as i64);
                    acc += jtab[(mpp + li - 1) as usize] * wgt;
                }
                let norm = ((2.0 * deg as f64 + 1.0) / (4.0 * std::f64::consts::PI)).sqrt();
                data[idx(deg, m)] = phase * acc * norm;
            }
        }
        coeffs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coeffs::HarmonicCoeffs;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn operator_analysis_matches_the_per_field_wigner_routine() {
        for (case, (l, nt, np)) in [
            (4usize, 6usize, 8usize),
            (8, 9, 16),
            (16, 18, 33),
            (24, 25, 48),
            (6, 25, 64),
        ]
        .into_iter()
        .enumerate()
        {
            let plan = ShtPlan::equiangular(l, nt, np);
            let wd = reference::WignerData::new(l, nt);
            let mut rng = StdRng::seed_from_u64(900 + case as u64);
            for _ in 0..3 {
                // A random band-limited field …
                let mut c = HarmonicCoeffs::zeros(l);
                for deg in 0..l {
                    for m in 0..=deg {
                        let re = rng.gen_range(-1.0..1.0);
                        let im = rng.gen_range(-1.0..1.0);
                        c.set(deg, m, Complex64::new(re, im));
                    }
                }
                let field = plan.synthesis(&c);
                let got = plan.analysis(&field);
                let want = reference::analysis_wigner(&plan, &wd, &field);
                let err = got.max_abs_diff(&want);
                assert!(
                    err <= 1e-12,
                    "L={l} ({nt}x{np}): operator vs reference {err}"
                );
            }
            // … and plain noise: the operator is the same linear map on
            // every input, band-limited or not.
            let noise: Vec<f64> = (0..nt * np).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let got = plan.analysis(&noise);
            let want = reference::analysis_wigner(&plan, &wd, &noise);
            let err = got.max_abs_diff(&want);
            assert!(
                err <= 1e-12,
                "L={l} ({nt}x{np}), noise: operator vs reference {err}"
            );
        }
    }

    #[test]
    fn synthesis_only_plans_never_build_the_theta_operator() {
        let plan = ShtPlan::equiangular(8, 10, 16);
        let mut c = HarmonicCoeffs::zeros(8);
        c.set(3, 2, Complex64::new(0.5, -0.25));
        let field = plan.synthesis(&c);
        assert!(
            plan.theta_operator.get().is_none(),
            "synthesis built the operator"
        );
        let _ = reference::analysis_quadrature(&plan, &field);
        assert!(
            plan.theta_operator.get().is_none(),
            "quadrature built the operator"
        );
        let _ = plan.analysis(&field);
        let operator = plan.theta_operator.get().expect("analysis builds it");
        assert_eq!(operator.len(), 8);
        assert_eq!(operator[3].len(), (8 - 3) * 10);
    }

    #[test]
    fn building_the_operator_costs_within_5x_of_the_old_plan_build() {
        // What `equiangular(64, 65, 127)` used to build, against what it
        // builds now plus the operator the first analysis adds. Best of
        // five each, back to back, so a slow spell hits both sides.
        let (l, nt, np) = (64usize, 65usize, 127usize);
        let best_of_5 = |f: &dyn Fn()| {
            (0..5)
                .map(|_| {
                    let t = std::time::Instant::now();
                    f();
                    t.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let old = best_of_5(&|| {
            let plan = ShtPlan::equiangular(l, nt, np);
            std::hint::black_box((plan, reference::WignerData::new(l, nt)));
        });
        let new = best_of_5(&|| {
            let plan = ShtPlan::equiangular(l, nt, np);
            plan.theta_operator.get_or_init(|| theta_operator(l, nt));
            std::hint::black_box(plan);
        });
        eprintln!(
            "old plan build {:.2} ms, new plan + operator {:.2} ms",
            old * 1e3,
            new * 1e3
        );
        assert!(
            new <= 5.0 * old,
            "plan + operator build {:.1} ms vs {:.1} ms for the old plan",
            new * 1e3,
            old * 1e3
        );
    }

    #[test]
    fn into_transforms_reuse_scratch_without_carrying_state() {
        // The oracle's one scratch across different fields gives what
        // fresh transforms give.
        let plan = ShtPlan::equiangular(6, 8, 12);
        let mut scratch = reference::scratch(&plan);
        let mut rng = StdRng::seed_from_u64(4);
        let mut coeffs = HarmonicCoeffs::zeros(6);
        let mut field = vec![0.0; plan.field_len()];
        for _ in 0..3 {
            let noise: Vec<f64> = (0..plan.field_len())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            reference::analysis_into(&plan, &noise, &mut coeffs, &mut scratch);
            assert_eq!(coeffs, plan.analysis(&noise));
            reference::synthesis_into(&plan, &coeffs, &mut field, &mut scratch);
            assert_eq!(field, plan.synthesis(&coeffs));
        }
    }

    #[test]
    fn plan_reports_geometry() {
        let p = ShtPlan::equiangular(8, 10, 16);
        assert_eq!(p.lmax(), 8);
        assert_eq!(p.grid().ntheta(), 10);
        assert_eq!(p.grid().nphi(), 16);
        assert_eq!(p.field_len(), 160);
    }

    #[test]
    #[should_panic(expected = "Nθ > L")]
    fn equiangular_rejects_undersampled_theta() {
        let _ = ShtPlan::equiangular(8, 8, 16);
    }

    #[test]
    #[should_panic(expected = "Nϕ ≥ 2L−1")]
    fn equiangular_rejects_undersampled_phi() {
        let _ = ShtPlan::equiangular(8, 10, 14);
    }

    #[test]
    fn single_harmonic_roundtrips_through_wigner_engine() {
        // Put power in exactly one (ℓ, m); analysis must isolate it.
        let l = 10;
        let plan = ShtPlan::equiangular(l, 12, 20);
        for &(dl, dm) in &[(0usize, 0usize), (3, 0), (5, 2), (9, 9)] {
            let mut c = HarmonicCoeffs::zeros(l);
            c.set(
                dl,
                dm,
                Complex64::new(1.0, if dm == 0 { 0.0 } else { -0.7 }),
            );
            let field = plan.synthesis(&c);
            let back = plan.analysis(&field);
            assert!(
                c.max_abs_diff(&back) < 1e-10,
                "({dl},{dm}): {}",
                c.max_abs_diff(&back)
            );
        }
    }

    #[test]
    fn oversampled_grids_stay_exact() {
        // More rings/longitudes than strictly needed must not break exactness.
        let l = 6;
        let plan = ShtPlan::equiangular(l, 25, 64);
        let mut c = HarmonicCoeffs::zeros(l);
        c.set(4, 3, Complex64::new(0.3, 0.9));
        c.set(2, 0, Complex64::real(-1.1));
        let field = plan.synthesis(&c);
        let back = plan.analysis(&field);
        assert!(c.max_abs_diff(&back) < 1e-10);
    }
}
