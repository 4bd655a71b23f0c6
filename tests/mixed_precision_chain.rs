//! The numerical chain the paper's mixed-precision design must preserve:
//! covariance → band-demoted tiles → task-parallel Cholesky → Gaussian
//! sampling → recovered covariance, at each precision variant.

use exaclim_linalg::cholesky::factorization_residual;
use exaclim_linalg::precision::PrecisionPolicy;
use exaclim_linalg::tiled::{exp_covariance, TiledMatrix};
use exaclim_mathkit::rng::MultivariateNormal;
use exaclim_runtime::{parallel_tile_cholesky, SchedulerKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Factor with a policy, sample, and measure the max absolute error of the
/// recovered covariance entries.
fn chain_error(n: usize, b: usize, policy: PrecisionPolicy, samples: usize) -> (f64, f64) {
    let a = exp_covariance(n, n as f64 / 8.0, 1e-4);
    let mut tm = TiledMatrix::from_dense(&a, n, b, &policy);
    parallel_tile_cholesky(&mut tm, 4, SchedulerKind::PriorityHeap).expect("SPD");
    let residual = factorization_residual(&a, &tm);
    let l = tm.to_dense_lower();
    let mut mvn = MultivariateNormal::from_lower_factor(vec![0.0; n], &l, n);
    let mut rng = StdRng::seed_from_u64(7);
    let mut cov = vec![0.0f64; n * n];
    for _ in 0..samples {
        let x = mvn.sample(&mut rng);
        for i in 0..n {
            for j in 0..n {
                cov[i * n + j] += x[i] * x[j];
            }
        }
    }
    let mut max_err = 0.0f64;
    for (c, t) in cov.iter().zip(&a) {
        max_err = max_err.max((c / samples as f64 - t).abs());
    }
    (residual, max_err)
}

#[test]
fn dp_chain_recovers_covariance() {
    let (res, cov_err) = chain_error(24, 8, PrecisionPolicy::dp(), 30_000);
    assert!(res < 1e-13, "residual {res}");
    assert!(
        cov_err < 0.06,
        "covariance error {cov_err} (Monte-Carlo floor)"
    );
}

#[test]
fn dp_sp_chain_recovers_covariance() {
    let (res, cov_err) = chain_error(24, 8, PrecisionPolicy::dp_sp(), 30_000);
    assert!(res < 1e-4, "residual {res}");
    assert!(cov_err < 0.06, "covariance error {cov_err}");
}

#[test]
fn dp_hp_chain_recovers_covariance_within_hp_tolerance() {
    let (res, cov_err) = chain_error(24, 8, PrecisionPolicy::dp_hp(), 30_000);
    // HP residual is bounded by the binary16 unit roundoff envelope …
    assert!(res < 0.02, "residual {res}");
    // … and the sampled covariance stays within Monte-Carlo noise + HP
    // perturbation — the property Figure 4 relies on.
    assert!(cov_err < 0.08, "covariance error {cov_err}");
}

#[test]
fn residual_hierarchy_matches_unit_roundoffs() {
    let (r_dp, _) = chain_error(32, 8, PrecisionPolicy::dp(), 100);
    let (r_sp, _) = chain_error(32, 8, PrecisionPolicy::dp_sp(), 100);
    let (r_hp, _) = chain_error(32, 8, PrecisionPolicy::dp_hp(), 100);
    assert!(r_dp < r_sp && r_sp < r_hp, "{r_dp} < {r_sp} < {r_hp}");
    // Roughly proportional to unit roundoff jumps (2^-53 → 2^-24 → 2^-11).
    assert!(r_sp / r_dp > 1e3, "SP/DP gap");
    assert!(r_hp / r_sp > 1e1, "HP/SP gap");
}
