//! The transforms: every SHT runs here, in blocks of time slices on
//! vector lanes, parallel on the shared pool.
//!
//! The paper notes (§III.A.2) that the SHT "offers a linear computational
//! complexity of O(L) for computing SHT for different time points
//! simultaneously" — i.e. time slices are embarrassingly parallel. The plan
//! is `Sync`, so workers share the precomputed tables.
//!
//! A batch is cut into blocks of [`LANES`] consecutive slices, and each
//! pool lane takes a run of blocks. Ring `i` of a block's slices is one
//! lane group (`exaclim_fft::lanes`): it goes through the longitude FFT
//! once for all of them, then through the θ-stage — the operator rows
//! `A_m[ℓ−m, ·] · G_m` summed over rings in ascending order (analysis) or
//! the Legendre sums `Σ_ℓ c_ℓm λ_ℓm(θ_i)` in ascending `ℓ` (synthesis) —
//! with one accumulator per slice. A batch's last block may hold fewer
//! slices: its idle lanes hold zeros and their outputs are never written.
//! [`ShtPlan::analysis`] and [`ShtPlan::synthesis`] are a block of one.
//!
//! Lanes never mix, and every lane runs one slice's per-slice chain — same
//! operands, same order, no FMA — so a slice's bits do not depend on its
//! lane, its block-mates or the batch size. The per-slice chain is the test
//! oracle (`plan::reference`).

use crate::coeffs::HarmonicCoeffs;
use crate::plan::ShtPlan;
use exaclim_fft::{irfft_lanes, rfft_lanes, LaneScratch, Lanes, LANES};
use exaclim_sphere::legendre::{idx, packed_len};

/// Forward-transform `t` consecutive fields stored back-to-back in `data`
/// (each of length [`ShtPlan::field_len`]).
pub fn analysis_batch(plan: &ShtPlan, data: &[f64], t: usize) -> Vec<HarmonicCoeffs> {
    let n = plan.field_len();
    assert_eq!(data.len(), n * t, "expected {t} fields of {n} values");
    let mut out = vec![HarmonicCoeffs::zeros(plan.lmax()); t];
    let blocks = out.chunks_mut(LANES).zip(data.chunks(LANES * n));
    per_lane(plan, blocks.collect(), |(coeffs, fields), scratch| {
        plan.analysis_block(fields, coeffs, scratch)
    });
    out
}

/// Inverse-transform a batch of coefficient sets into back-to-back fields.
pub fn synthesis_batch(plan: &ShtPlan, coeffs: &[HarmonicCoeffs]) -> Vec<f64> {
    let n = plan.field_len();
    let mut out = vec![0.0f64; n * coeffs.len()];
    let blocks = out.chunks_mut(LANES * n).zip(coeffs.chunks(LANES));
    per_lane(plan, blocks.collect(), |(fields, c), scratch| {
        plan.synthesis_block(c, fields, scratch)
    });
    out
}

/// Slices in a batch that gives every pool lane `blocks` blocks of
/// [`LANES`]: the chunk for a caller that transforms a long series piece
/// by piece to keep its memory bounded.
pub fn pass_len(blocks: usize) -> usize {
    blocks * LANES * rayon::pool::global().threads()
}

/// Run `body` on every block, in contiguous runs of at most one per pool
/// lane, so each lane makes one block scratch. A run holds
/// `⌈blocks / threads⌉` blocks, the longest share `parallel_for` gives a
/// lane.
fn per_lane<T: Send>(
    plan: &ShtPlan,
    mut blocks: Vec<T>,
    body: impl Fn(&mut T, &mut BlockScratch) + Sync,
) {
    let pool = rayon::pool::global();
    let run = blocks.len().div_ceil(pool.threads()).max(1);
    pool.parallel_chunks_mut(&mut blocks, run, |_, blocks| {
        let mut scratch = BlockScratch::new(plan);
        for block in blocks {
            body(block, &mut scratch);
        }
    });
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
    /// Forward transform (analysis): field → coefficients.
    pub fn analysis(&self, field: &[f64]) -> HarmonicCoeffs {
        let mut out = [HarmonicCoeffs::zeros(self.lmax())];
        self.analysis_block(field, &mut out, &mut BlockScratch::new(self));
        let [coeffs] = out;
        coeffs
    }

    /// Inverse transform (synthesis): coefficients → field (row-major
    /// `Nθ × Nϕ`).
    pub fn synthesis(&self, coeffs: &HarmonicCoeffs) -> Vec<f64> {
        let mut out = vec![0.0f64; self.field_len()];
        let coeffs = std::slice::from_ref(coeffs);
        self.synthesis_block(coeffs, &mut out, &mut BlockScratch::new(self));
        out
    }

    /// The paper's exact equiangular analysis (eqs. 4–8) of the `k ≤`
    /// [`LANES`] fields stored back to back in `fields`, into `out[..k]`
    /// (overwritten). Past the longitude FFT every step — parity extension
    /// and FFT along θ, the `I(q)` convolution, the Wigner contraction — is
    /// linear in `G_m` and the same for every field, so the plan holds their
    /// product `A_m` and a field costs one `(L−m) × Nθ` matrix–vector
    /// product per order.
    fn analysis_block(
        &self,
        fields: &[f64],
        out: &mut [HarmonicCoeffs],
        scratch: &mut BlockScratch,
    ) {
        assert_eq!(
            fields.len(),
            out.len() * self.field_len(),
            "field size mismatch"
        );
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

    /// Step 1 of analysis, `G_m(θ_i) = ∫ Z e^{-imφ} dφ` for `m < L`, of
    /// every field in the block into `scratch.gm`: one lane group per ring
    /// through the longitude FFT, `· Δϕ`. Idle lanes read zeros.
    fn longitude_spectra_block(&self, fields: &[f64], scratch: &mut BlockScratch) {
        let n = self.field_len();
        let g = self.grid();
        let (nt, np) = (g.ntheta(), g.nphi());
        let dphi = 2.0 * std::f64::consts::PI / np as f64;
        let bins = self.lmax().min(scratch.half.len());
        scratch.gm.fill(Lanes::ZERO);
        scratch.ring.fill([0.0; LANES]);
        for i in 0..nt {
            for (l, field) in fields.chunks_exact(n).enumerate() {
                for (x, v) in scratch.ring.iter_mut().zip(&field[i * np..][..np]) {
                    x[l] = *v;
                }
            }
            let spec = &mut scratch.half[..bins];
            rfft_lanes(&self.fft_phi, &scratch.ring, spec, &mut scratch.fft);
            for (m, z) in spec.iter().enumerate() {
                scratch.gm[m * nt + i] = z.scale(dphi);
            }
        }
    }

    /// Synthesis of the `k ≤` [`LANES`] coefficient sets `coeffs` into the
    /// fields stored back to back in `out` (overwritten). Idle lanes
    /// synthesize zeros.
    fn synthesis_block(
        &self,
        coeffs: &[HarmonicCoeffs],
        out: &mut [f64],
        scratch: &mut BlockScratch,
    ) {
        let n = self.field_len();
        assert_eq!(out.len(), coeffs.len() * n, "field size mismatch");
        scratch.coeffs.fill(Lanes::ZERO);
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
            for (l, field) in out.chunks_exact_mut(n).enumerate() {
                for (v, x) in field[i * np..][..np].iter_mut().zip(&scratch.ring) {
                    *v = x[l];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::reference;
    use exaclim_mathkit::Complex64;
    use rand::{rngs::StdRng, Rng, SeedableRng};

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

    /// Residual-like values salted with ±0 and subnormals.
    fn salted(rng: &mut StdRng, len: usize) -> Vec<f64> {
        (0..len)
            .map(|_| match rng.gen_range(0..16u32) {
                0 => 0.0,
                1 => -0.0,
                2 => -5e-324,
                _ => rng.gen_range(-3.0..3.0),
            })
            .collect()
    }

    fn coeff_bits(c: &HarmonicCoeffs) -> Vec<u64> {
        c.as_slice()
            .iter()
            .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
            .collect()
    }

    fn field_bits(f: &[f64]) -> Vec<u64> {
        f.iter().map(|v| v.to_bits()).collect()
    }

    /// Direct and Bluestein `Nϕ`: 12, 33 (the benchmark's grid), 41 prime.
    fn plans() -> [ShtPlan; 3] {
        [
            ShtPlan::equiangular(6, 8, 12),
            ShtPlan::equiangular(16, 18, 33),
            ShtPlan::equiangular(8, 10, 41),
        ]
    }

    fn case(plan: &ShtPlan, t: usize) -> String {
        let g = plan.grid();
        format!("L={} {}x{}, t={t}", plan.lmax(), g.ntheta(), g.nphi())
    }

    /// Block-edge batch sizes: every slice of a batch equals the per-slice
    /// oracle (`plan::reference`) bit for bit.
    #[test]
    fn blocked_batches_equal_the_per_slice_transforms_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(32);
        for plan in &plans() {
            let n = plan.field_len();
            for t in [0, 1, LANES - 1, LANES, LANES + 1, 730] {
                let case = case(plan, t);
                let data = salted(&mut rng, n * t);
                let coeffs = analysis_batch(plan, &data, t);
                let fields = synthesis_batch(plan, &coeffs);
                assert_eq!((coeffs.len(), fields.len()), (t, n * t));
                let mut scratch = reference::scratch(plan);
                let mut want_c = HarmonicCoeffs::zeros(plan.lmax());
                let mut want_f = vec![0.0; n];
                for s in 0..t {
                    reference::analysis_into(plan, &data[s * n..][..n], &mut want_c, &mut scratch);
                    assert!(
                        coeff_bits(&coeffs[s]) == coeff_bits(&want_c),
                        "{case}: analysis slice {s}: {:?} vs {:?}",
                        coeffs[s],
                        want_c
                    );
                    reference::synthesis_into(plan, &coeffs[s], &mut want_f, &mut scratch);
                    assert!(
                        field_bits(&fields[s * n..][..n]) == field_bits(&want_f),
                        "{case}: synthesis slice {s}"
                    );
                }
            }
        }
    }

    /// Lane isolation at the SHT level: every slice of a batch has the bits
    /// it has transformed alone, and at every lane position of a full block
    /// whose other lanes hold NaN and ±∞.
    #[test]
    fn slices_keep_their_bits_alone_and_at_every_lane_beside_non_finite_mates() {
        let mut rng = StdRng::seed_from_u64(43);
        for plan in &plans() {
            let n = plan.field_len();
            // Block-mates: noise with every fourth value NaN, +∞ or −∞.
            let mates: Vec<(Vec<f64>, HarmonicCoeffs)> =
                [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
                    .into_iter()
                    .map(|bad| {
                        let mut field = salted(&mut rng, n);
                        field.iter_mut().step_by(4).for_each(|v| *v = bad);
                        let mut c = plan.analysis(&salted(&mut rng, n));
                        c.as_mut_slice()
                            .iter_mut()
                            .step_by(4)
                            .for_each(|z| *z = Complex64::new(bad, -bad));
                        (field, c)
                    })
                    .collect();
            for t in (1..=9).chain([730]) {
                let case = case(plan, t);
                let data = salted(&mut rng, n * t);
                let coeffs = analysis_batch(plan, &data, t);
                let fields = synthesis_batch(plan, &coeffs);
                for s in 0..t {
                    let slice = &data[s * n..][..n];
                    assert!(
                        coeff_bits(&coeffs[s]) == coeff_bits(&plan.analysis(slice)),
                        "{case}: analysis slice {s} differs from the slice alone"
                    );
                    assert!(
                        field_bits(&fields[s * n..][..n])
                            == field_bits(&plan.synthesis(&coeffs[s])),
                        "{case}: synthesis slice {s} differs from the slice alone"
                    );
                }
                // Block `s` holds slice `s` at lane `p` and mates elsewhere.
                for p in 0..LANES {
                    let mate = |s: usize, l: usize| &mates[(s + l) % mates.len()];
                    let mut blocked = Vec::with_capacity(LANES * n * t);
                    let mut blocked_c = Vec::with_capacity(LANES * t);
                    for s in 0..t {
                        for l in 0..LANES {
                            if l == p {
                                blocked.extend_from_slice(&data[s * n..][..n]);
                                blocked_c.push(coeffs[s].clone());
                            } else {
                                blocked.extend_from_slice(&mate(s, l).0);
                                blocked_c.push(mate(s, l).1.clone());
                            }
                        }
                    }
                    let got_c = analysis_batch(plan, &blocked, LANES * t);
                    let got_f = synthesis_batch(plan, &blocked_c);
                    for s in 0..t {
                        let k = s * LANES + p;
                        assert!(
                            coeff_bits(&got_c[k]) == coeff_bits(&coeffs[s]),
                            "{case}: analysis slice {s} at lane {p}"
                        );
                        assert!(
                            field_bits(&got_f[k * n..][..n]) == field_bits(&fields[s * n..][..n]),
                            "{case}: synthesis slice {s} at lane {p}"
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
