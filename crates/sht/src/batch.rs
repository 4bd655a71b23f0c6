//! Batched transforms over time slices, parallelized with rayon.
//!
//! The paper notes (§III.A.2) that the SHT "offers a linear computational
//! complexity of O(L) for computing SHT for different time points
//! simultaneously" — i.e. time slices are embarrassingly parallel. The plan
//! is `Sync`, so workers share the precomputed tables.
//!
//! Each pool lane takes blocks of [`LANES`] consecutive slices. Ring `i` of
//! a block's slices is one lane group (`exaclim_fft::lanes`): it goes
//! through the longitude FFT once for all of them, then through the
//! θ-stage — the operator rows `A_m[ℓ−m, ·] · G_m` summed over rings in
//! ascending order (analysis) or the Legendre sums `Σ_ℓ c_ℓm λ_ℓm(θ_i)`
//! in ascending `ℓ` (synthesis) — with one accumulator per slice. Every
//! lane runs the chain of [`ShtPlan::analysis_into`] or
//! [`ShtPlan::synthesis_into`] on its slice: same operands, same order, no
//! FMA, so a batch equals the per-slice transforms bit for bit. The last
//! `t mod LANES` slices run the per-slice code, one work item each in the
//! same parallel pass as the blocks.

use crate::coeffs::HarmonicCoeffs;
use crate::plan::{ShtPlan, ShtScratch};
use exaclim_fft::{irfft_lanes, rfft_lanes, LaneScratch, Lanes, LANES};
use exaclim_sphere::legendre::{idx, packed_len};
use rayon::prelude::*;

/// Forward-transform `t` consecutive fields stored back-to-back in `data`
/// (each of length [`ShtPlan::field_len`]).
pub fn analysis_batch(plan: &ShtPlan, data: &[f64], t: usize) -> Vec<HarmonicCoeffs> {
    let n = plan.field_len();
    assert_eq!(data.len(), n * t, "expected {t} fields of {n} values");
    let mut out = vec![HarmonicCoeffs::zeros(plan.lmax()); t];
    work_items(&mut out, 1, data, n)
        .par_iter_mut()
        .for_each_init(
            || (plan.scratch(), None),
            |scratch, (coeffs, fields)| match coeffs {
                [c] => plan.analysis_into(fields, c, &mut scratch.0),
                _ => plan.analysis_block(fields, coeffs, block_scratch(plan, scratch)),
            },
        );
    out
}

/// Inverse-transform a batch of coefficient sets into back-to-back fields.
pub fn synthesis_batch(plan: &ShtPlan, coeffs: &[HarmonicCoeffs]) -> Vec<f64> {
    let n = plan.field_len();
    let mut out = vec![0.0f64; n * coeffs.len()];
    work_items(&mut out, n, coeffs, 1)
        .par_iter_mut()
        .for_each_init(
            || (plan.scratch(), None),
            |scratch, (fields, c)| match c {
                [c] => plan.synthesis_into(c, fields, &mut scratch.0),
                _ => plan.synthesis_block(c, fields, block_scratch(plan, scratch)),
            },
        );
    out
}

/// One batch's work items, each the output and input of some slices
/// (`out_per` and `in_per` values per slice): blocks of [`LANES`] slices,
/// then the last `t mod LANES` slices one by one, so every item of the
/// batch can run on its own pool lane.
fn work_items<'a, O, I>(
    out: &'a mut [O],
    out_per: usize,
    input: &'a [I],
    in_per: usize,
) -> Vec<(&'a mut [O], &'a [I])> {
    let blocked = input.len() / in_per / LANES * LANES;
    let (out_head, out_tail) = out.split_at_mut(blocked * out_per);
    let (in_head, in_tail) = input.split_at(blocked * in_per);
    out_head
        .chunks_mut(LANES * out_per)
        .zip(in_head.chunks(LANES * in_per))
        .chain(out_tail.chunks_mut(out_per).zip(in_tail.chunks(in_per)))
        .collect()
}

/// A pool lane's working memory: the per-slice transforms' scratch for a
/// batch's last slices, and the block scratch, made at the lane's first
/// block (a batch of fewer than [`LANES`] slices never needs one).
type BatchScratch = (ShtScratch, Option<BlockScratch>);

fn block_scratch<'a>(plan: &ShtPlan, scratch: &'a mut BatchScratch) -> &'a mut BlockScratch {
    scratch.1.get_or_insert_with(|| BlockScratch::new(plan))
}

/// Working memory of one block of [`LANES`] slices on one plan.
struct BlockScratch {
    /// One ring of every slice, `Nϕ` lane values.
    ring: Vec<[f64; LANES]>,
    /// Half spectrum of one ring group, `Nϕ/2 + 1` bins.
    half: Vec<Lanes>,
    fft: LaneScratch,
    /// `G_m(θ_i)` of the block, order-major (`m · Nθ + i`).
    gm: Vec<Lanes>,
    /// Coefficients of the block, packed like [`HarmonicCoeffs`].
    coeffs: Vec<Lanes>,
}

impl BlockScratch {
    fn new(plan: &ShtPlan) -> Self {
        let g = plan.grid();
        Self {
            ring: vec![[0.0; LANES]; g.nphi()],
            half: vec![Lanes::ZERO; g.nphi() / 2 + 1],
            fft: plan.fft_phi.lane_scratch(),
            gm: vec![Lanes::ZERO; g.ntheta() * plan.lmax()],
            coeffs: vec![Lanes::ZERO; packed_len(plan.lmax() - 1)],
        }
    }
}

impl ShtPlan {
    /// [`ShtPlan::analysis_into`] on the [`LANES`] fields stored back to
    /// back in `fields`.
    fn analysis_block(
        &self,
        fields: &[f64],
        out: &mut [HarmonicCoeffs],
        scratch: &mut BlockScratch,
    ) {
        self.longitude_spectra_block(fields, scratch);
        let nt = self.grid().ntheta();
        // `z_{ℓm} = 0 + Σ_i A_m[ℓ−m, i] · G_m(θ_i)`, ascending `i`.
        for (m, a_m) in self.theta_operators().iter().enumerate() {
            let g_m = &scratch.gm[m * nt..(m + 1) * nt];
            for (k, row) in a_m.chunks_exact(nt).enumerate() {
                let mut acc = Lanes::ZERO;
                for (a, g) in row.iter().zip(g_m) {
                    for l in 0..LANES {
                        acc.re[l] += a.re * g.re[l] - a.im * g.im[l];
                        acc.im[l] += a.re * g.im[l] + a.im * g.re[l];
                    }
                }
                scratch.coeffs[idx(m + k, m)] = acc;
            }
        }
        for (l, coeffs) in out.iter_mut().enumerate() {
            assert_eq!(coeffs.lmax(), self.lmax(), "band-limit mismatch");
            for (c, z) in coeffs.as_mut_slice().iter_mut().zip(&scratch.coeffs) {
                *c = z.get(l);
            }
        }
    }

    /// `G_m(θ_i)` of every field in the block, into `scratch.gm`: one lane
    /// group per ring through the longitude FFT, `· Δϕ`.
    fn longitude_spectra_block(&self, fields: &[f64], scratch: &mut BlockScratch) {
        let n = self.field_len();
        assert_eq!(fields.len(), LANES * n, "field size mismatch");
        let g = self.grid();
        let (nt, np) = (g.ntheta(), g.nphi());
        let dphi = 2.0 * std::f64::consts::PI / np as f64;
        let bins = self.lmax().min(scratch.half.len());
        scratch.gm.fill(Lanes::ZERO);
        for i in 0..nt {
            for (j, x) in scratch.ring.iter_mut().enumerate() {
                *x = std::array::from_fn(|l| fields[l * n + i * np + j]);
            }
            let spec = &mut scratch.half[..bins];
            rfft_lanes(&self.fft_phi, &scratch.ring, spec, &mut scratch.fft);
            for (m, z) in spec.iter().enumerate() {
                scratch.gm[m * nt + i] = z.scale(dphi);
            }
        }
    }

    /// [`ShtPlan::synthesis_into`] of [`LANES`] coefficient sets into the
    /// fields stored back to back in `out`.
    fn synthesis_block(
        &self,
        coeffs: &[HarmonicCoeffs],
        out: &mut [f64],
        scratch: &mut BlockScratch,
    ) {
        let n = self.field_len();
        assert_eq!(out.len(), LANES * n, "field size mismatch");
        for (l, c) in coeffs.iter().enumerate() {
            assert_eq!(c.lmax(), self.lmax(), "band-limit mismatch");
            for (z, v) in scratch.coeffs.iter_mut().zip(c.as_slice()) {
                z.set(l, *v);
            }
        }
        let np = self.grid().nphi();
        let lmax = self.lmax();
        for (i, lam) in self.legendre.iter().enumerate() {
            // `half[m] = (0 + Σ_ℓ c_ℓm · λ_ℓ^m(θ_i)) · Nϕ`, ascending `ℓ`.
            scratch.half.fill(Lanes::ZERO);
            for m in 0..lmax.min(scratch.half.len()) {
                let mut acc = Lanes::ZERO;
                for deg in m..lmax {
                    let c = &scratch.coeffs[idx(deg, m)];
                    let lam = lam[idx(deg, m)];
                    for l in 0..LANES {
                        acc.re[l] += c.re[l] * lam;
                        acc.im[l] += c.im[l] * lam;
                    }
                }
                scratch.half[m] = acc.scale(np as f64);
            }
            irfft_lanes(
                &self.fft_phi,
                &scratch.half,
                &mut scratch.ring,
                &mut scratch.fft,
            );
            for (j, x) in scratch.ring.iter().enumerate() {
                for (l, v) in x.iter().enumerate() {
                    out[l * n + i * np + j] = *v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaclim_mathkit::Complex64;

    #[test]
    fn batch_matches_sequential() {
        let l = 6;
        let plan = ShtPlan::equiangular(l, 8, 12);
        let t = 5;
        let mut sets = Vec::new();
        for k in 0..t {
            let mut c = HarmonicCoeffs::zeros(l);
            c.set(k % l, 0, Complex64::real(1.0 + k as f64));
            if k % l >= 1 {
                c.set(k % l, 1, Complex64::new(0.5, -0.25 * k as f64));
            }
            sets.push(c);
        }
        let fields = synthesis_batch(&plan, &sets);
        assert_eq!(fields.len(), t * plan.field_len());
        let back = analysis_batch(&plan, &fields, t);
        for (orig, rec) in sets.iter().zip(&back) {
            assert!(orig.max_abs_diff(rec) < 1e-10);
        }
        // Sequential reference.
        for (k, c) in sets.iter().enumerate() {
            let f = plan.synthesis(c);
            let n = plan.field_len();
            for (a, b) in f.iter().zip(&fields[k * n..(k + 1) * n]) {
                assert_eq!(a, b, "slice {k} differs from sequential");
            }
        }
    }

    /// Block-edge batch sizes on direct and Bluestein `Nϕ` (12, 33 = the
    /// benchmark's grid, 41 prime): every slice of a batch equals the
    /// per-slice transform bit for bit.
    #[test]
    fn blocked_batches_equal_the_per_slice_transforms_bit_for_bit() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let plans = [
            ShtPlan::equiangular(6, 8, 12),
            ShtPlan::equiangular(16, 18, 33),
            ShtPlan::equiangular(8, 10, 41),
        ];
        let mut rng = StdRng::seed_from_u64(32);
        for plan in &plans {
            let n = plan.field_len();
            let case = format!(
                "L={} {}x{}",
                plan.lmax(),
                plan.grid().ntheta(),
                plan.grid().nphi()
            );
            for t in [0, 1, LANES - 1, LANES, LANES + 1, 730] {
                // Residual-like values salted with ±0 and subnormals.
                let data: Vec<f64> = (0..n * t)
                    .map(|_| match rng.gen_range(0..16u32) {
                        0 => 0.0,
                        1 => -0.0,
                        2 => -5e-324,
                        _ => rng.gen_range(-3.0..3.0),
                    })
                    .collect();
                let coeffs = analysis_batch(plan, &data, t);
                let fields = synthesis_batch(plan, &coeffs);
                assert_eq!((coeffs.len(), fields.len()), (t, n * t));
                let mut scratch = plan.scratch();
                let mut want_c = HarmonicCoeffs::zeros(plan.lmax());
                let mut want_f = vec![0.0; n];
                for s in 0..t {
                    plan.analysis_into(&data[s * n..][..n], &mut want_c, &mut scratch);
                    for (k, (g, w)) in coeffs[s]
                        .as_slice()
                        .iter()
                        .zip(want_c.as_slice())
                        .enumerate()
                    {
                        assert!(
                            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
                            "{case}, t={t}: analysis slice {s} coefficient {k}: {g:?} vs {w:?}"
                        );
                    }
                    plan.synthesis_into(&coeffs[s], &mut want_f, &mut scratch);
                    for (k, (g, w)) in fields[s * n..][..n].iter().zip(&want_f).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "{case}, t={t}: synthesis slice {s} value {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn batch_rejects_wrong_length() {
        let plan = ShtPlan::equiangular(4, 5, 8);
        let _ = analysis_batch(&plan, &[0.0; 10], 3);
    }
}
