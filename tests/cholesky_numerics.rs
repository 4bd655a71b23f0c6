//! Numerics of the mixed-precision tile Cholesky, pinned from both ends:
//! exact golden residuals (the kernels may get faster, never different) and
//! backward-error bounds that scale with the lowest precision a variant
//! stores, against the f64 dense reference.

use exaclim_linalg::cholesky::{factorization_residual, tile_cholesky};
use exaclim_linalg::dense::Matrix;
use exaclim_linalg::precision::{Precision, PrecisionPolicy};
use exaclim_linalg::tiled::{exp_covariance, TiledMatrix};
use exaclim_runtime::{parallel_tile_cholesky, SchedulerKind};
use proptest::prelude::*;

/// The paper's four variants.
fn variants(nt: usize) -> [PrecisionPolicy; 4] {
    [
        PrecisionPolicy::dp(),
        PrecisionPolicy::dp_sp(),
        PrecisionPolicy::dp_sp_hp(nt),
        PrecisionPolicy::dp_hp(),
    ]
}

/// The lowest precision any tile of `m` is stored in.
fn lowest_precision(m: &TiledMatrix) -> Precision {
    let [half, single, _] = m.precision_census();
    if half > 0 {
        Precision::Half
    } else if single > 0 {
        Precision::Single
    } else {
        Precision::Double
    }
}

/// `factorization_residual` of DP, DP/SP, DP/SP/HP and DP/HP on
/// `exp_covariance(256, 16.0, 1e-3)` at b = 32, as `f64::to_bits`, recorded
/// with the one-accumulator kernels this repository started from. Every
/// element of every factor enters the residual, so one changed rounding
/// anywhere in POTRF/TRSM/SYRK/GEMM moves these.
const GOLDEN_RESIDUAL_BITS: [u64; 4] = [
    0x3ca9_20d7_f881_1a26, // 1.743625761250983e-16
    0x3e69_7d31_23eb_2e17, // 4.7477020084082613e-8
    0x3ef4_a2f4_f9f5_256f, // 1.9680548232236245e-5
    0x3f27_5d1a_b478_ac02, // 1.782507990680527e-4
];

#[test]
fn residuals_match_the_golden_bits_sequential_and_parallel() {
    let (n, b) = (256, 32);
    let a = exp_covariance(n, 16.0, 1e-3);
    for (policy, want) in variants(n / b).into_iter().zip(GOLDEN_RESIDUAL_BITS) {
        let mut seq = TiledMatrix::from_dense(&a, n, b, &policy);
        tile_cholesky(&mut seq).expect("SPD");
        let got = factorization_residual(&a, &seq);
        assert_eq!(
            got.to_bits(),
            want,
            "sequential {}: {got:e}",
            policy.label()
        );

        let mut par = TiledMatrix::from_dense(&a, n, b, &policy);
        parallel_tile_cholesky(&mut par, 2, SchedulerKind::PriorityHeap).expect("SPD");
        let got = factorization_residual(&a, &par);
        assert_eq!(got.to_bits(), want, "parallel {}: {got:e}", policy.label());
    }
}

/// Seeded `G Gᵀ + n·I` with `G` uniform in (−1, 1): SPD with a condition
/// number near 2, so forward and backward errors are the same size.
fn random_spd(n: usize, seed: u64) -> Vec<f64> {
    let mut v = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let g: Vec<f64> = (0..n * n)
        .map(|_| {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (v >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        })
        .collect();
    let mut a = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..=i {
            let dot: f64 = (0..n).map(|k| g[i * n + k] * g[j * n + k]).sum();
            a[i * n + j] = dot + if i == j { n as f64 } else { 0.0 };
            a[j * n + i] = a[i * n + j];
        }
    }
    a
}

fn frobenius(x: impl Iterator<Item = f64>) -> f64 {
    x.map(|v| v * v).sum::<f64>().sqrt()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Backward error `‖A − L Lᵀ‖/‖A‖` and distance to the dense f64 factor
    /// are both within `n·u` of the lowest precision the variant stores a
    /// tile in — and a variant with demoted tiles is not DP in disguise.
    #[test]
    fn backward_error_scales_with_the_lowest_precision(
        seed in 0u64..10_000,
        nt in 2usize..7,
        b in prop_oneof![Just(5usize), Just(8), Just(12)],
    ) {
        let n = nt * b;
        let a = random_spd(n, seed);
        let dense = Matrix::from_vec(n, n, a.clone()).cholesky_lower().expect("SPD");
        let dense_norm = frobenius(dense.as_slice().iter().copied());
        for policy in variants(nt) {
            let mut tm = TiledMatrix::from_dense(&a, n, b, &policy);
            let lowest = lowest_precision(&tm);
            tile_cholesky(&mut tm).expect("SPD");
            let bound = n as f64 * lowest.unit_roundoff();
            let backward = factorization_residual(&a, &tm);
            prop_assert!(
                backward <= bound,
                "{} n={n} b={b}: backward error {backward:e} > n·u = {bound:e}",
                policy.label()
            );
            let l = tm.to_dense_lower();
            let forward =
                frobenius(l.iter().zip(dense.as_slice()).map(|(x, y)| x - y)) / dense_norm;
            prop_assert!(
                forward <= bound,
                "{} n={n} b={b}: ‖L − L_dense‖/‖L_dense‖ = {forward:e} > n·u = {bound:e}",
                policy.label()
            );
            if lowest != Precision::Double {
                prop_assert!(
                    backward > 1e-3 * lowest.unit_roundoff(),
                    "{} n={n} b={b}: backward error {backward:e} is suspiciously exact",
                    policy.label()
                );
            }
        }
    }
}
