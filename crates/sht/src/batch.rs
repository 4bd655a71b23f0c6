//! Batched transforms over time slices, parallelized with rayon.
//!
//! The paper notes (§III.A.2) that the SHT "offers a linear computational
//! complexity of O(L) for computing SHT for different time points
//! simultaneously" — i.e. time slices are embarrassingly parallel. The plan
//! is `Sync`, so workers share the precomputed tables.

use crate::coeffs::HarmonicCoeffs;
use crate::plan::ShtPlan;
use rayon::prelude::*;

/// Forward-transform `t` consecutive fields stored back-to-back in `data`
/// (each of length [`ShtPlan::field_len`]).
pub fn analysis_batch(plan: &ShtPlan, data: &[f64], t: usize) -> Vec<HarmonicCoeffs> {
    let n = plan.field_len();
    assert_eq!(data.len(), n * t, "expected {t} fields of {n} values");
    let mut out = vec![HarmonicCoeffs::zeros(plan.lmax()); t];
    out.par_iter_mut().zip(data.par_chunks(n)).for_each_init(
        || plan.scratch(),
        |scratch, (coeffs, field)| plan.analysis_into(field, coeffs, scratch),
    );
    out
}

/// Inverse-transform a batch of coefficient sets into back-to-back fields.
pub fn synthesis_batch(plan: &ShtPlan, coeffs: &[HarmonicCoeffs]) -> Vec<f64> {
    let n = plan.field_len();
    let mut out = vec![0.0f64; n * coeffs.len()];
    out.par_chunks_mut(n).zip(coeffs.par_iter()).for_each_init(
        || plan.scratch(),
        |scratch, (chunk, c)| plan.synthesis_into(c, chunk, scratch),
    );
    out
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

    #[test]
    #[should_panic(expected = "expected")]
    fn batch_rejects_wrong_length() {
        let plan = ShtPlan::gauss_legendre(4);
        let _ = analysis_batch(&plan, &[0.0; 10], 3);
    }
}
