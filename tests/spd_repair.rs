//! The SPD repair inside the tile Cholesky (`exaclim::factor_covariance`):
//! training where `Û` is rank-deficient — fewer innovations than
//! coefficient channels, the paper's regime — in every precision policy,
//! the repair on random rank-deficient Gram matrices, and the end of the
//! jitter ladder.

use exaclim::{
    factor_covariance, validate_consistency, ClimateEmulator, EmulationError, EmulatorConfig,
};
use exaclim_climate::{Dataset, SyntheticEra5, SyntheticEra5Config};
use exaclim_linalg::cholesky::factorization_residual;
use exaclim_linalg::dense::Matrix;
use exaclim_linalg::precision::PrecisionPolicy;
use exaclim_linalg::tiled::TiledMatrix;
use exaclim_runtime::{parallel_tile_cholesky, SchedulerKind};
use exaclim_sht::{analysis_batch, HarmonicCoeffs, ShtPlan};
use exaclim_stats::covariance::{empirical_covariance, ensure_spd};
use exaclim_stats::trend::{fit_grid, TrendConfig};
use exaclim_stats::{fit_diagonal_var, ForcingSeries};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `L = 8` is 64 coefficient channels; `T = 40` daily steps under VAR(2)
/// leave 38 innovations, so `Û` has rank ≤ 38.
const LMAX: usize = 8;
const T_MAX: usize = 40;

/// The paper's four variants at `nt` tiles per dimension.
fn variants(nt: usize) -> [PrecisionPolicy; 4] {
    [
        PrecisionPolicy::dp(),
        PrecisionPolicy::dp_sp(),
        PrecisionPolicy::dp_sp_hp(nt),
        PrecisionPolicy::dp_hp(),
    ]
}

/// FNV-1a over the little-endian bytes of every value's bit pattern.
fn hash(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn mean_diagonal(u: &Matrix) -> f64 {
    let n = u.rows();
    (0..n).map(|i| u.get(i, i)).sum::<f64>() / n as f64
}

/// `Û` as one-member training computes it, from the public stage calls.
fn innovation_covariance(data: &Dataset, cfg: &EmulatorConfig) -> Matrix {
    let years = (data.t_max / data.tau + 2) as i64;
    let forcing = ForcingSeries::historical_like(data.start_year, data.start_year + years, 30);
    let trend_cfg = TrendConfig {
        k_harmonics: cfg.k_harmonics,
        tau: data.tau,
        rho_grid: cfg.rho_grid.clone(),
        start_year: data.start_year,
    };
    let fit = fit_grid(&data.data, data.t_max, data.npoints, &trend_cfg, &forcing);
    let plan = ShtPlan::equiangular(cfg.lmax, data.ntheta, data.nphi);
    let series: Vec<Vec<f64>> = analysis_batch(&plan, &fit.residuals, data.t_max)
        .iter()
        .map(HarmonicCoeffs::to_real_vector)
        .collect();
    let var = fit_diagonal_var(&series, cfg.var_order);
    empirical_covariance(&var.innovations(&series))
}

#[test]
fn rank_deficient_training_repairs_in_every_policy() {
    let data = SyntheticEra5::new(SyntheticEra5Config::small_daily(LMAX)).generate_member(0, T_MAX);
    let base = EmulatorConfig::small(LMAX);
    let u = innovation_covariance(&data, &base);
    let (n, mean_diag) = (u.rows(), mean_diagonal(&u));
    assert!(u.cholesky_lower().is_err(), "Û must be rank-deficient");
    for policy in variants(n / base.tile) {
        let label = policy.label();
        let mut cfg = base.clone();
        cfg.precision = policy;
        let em = ClimateEmulator::train(&data, cfg)
            .unwrap_or_else(|e| panic!("{label} does not train: {e}"));
        assert!(em.jitter > 0.0, "{label}: rank-deficient Û needs jitter");
        let u_low = TiledMatrix::from_dense(u.as_slice(), n, base.tile, &policy)
            .lowest_precision()
            .unit_roundoff();
        // One rung, sized to the lowest tile precision, repairs `Û` here:
        // the jitter is the first rung itself, not a climb from f64 size.
        let first_rung = u_low.max(1e-10) * mean_diag;
        assert_eq!(
            em.jitter.to_bits(),
            first_rung.to_bits(),
            "{label}: jitter {:e}, first rung {first_rung:e}",
            em.jitter
        );
        let report = validate_consistency(&data, &em.emulate(T_MAX, 1).unwrap());
        assert!(report.passes(), "{label}: {report:?}");

        if policy == PrecisionPolicy::dp() {
            // All DP climbs the dense probe's rungs, so `train` keeps the
            // factor that the dense probe followed by the tiled
            // factorization finds. The two pins were recorded from that
            // composition, before `train` factored once.
            let mut probed = u.clone();
            let jitter = ensure_spd(&mut probed);
            let mut tiles = TiledMatrix::from_dense(probed.as_slice(), n, base.tile, &policy);
            parallel_tile_cholesky(&mut tiles, base.workers, SchedulerKind::PriorityHeap)
                .expect("the dense probe's jitter factors");
            assert_eq!(em.jitter.to_bits(), jitter.to_bits());
            assert_eq!(
                hash(em.factor.iter().copied()),
                hash(tiles.to_dense_lower())
            );
            assert_eq!(em.jitter.to_bits(), 0x3db1_098b_7a83_2e86);
            assert_eq!(hash(em.factor.iter().copied()), 0x4acb_ad84_c1c3_a68d);
        }
    }
}

/// `k` random samples in `n` dimensions, of scales spread over two decades.
fn gram(n: usize, k: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let scales: Vec<f64> = (0..n)
        .map(|_| 10f64.powf(rng.gen_range(-1.0..1.0)))
        .collect();
    let samples: Vec<Vec<f64>> = (0..k)
        .map(|_| {
            scales
                .iter()
                .map(|s| s * rng.gen_range(-1.0..1.0))
                .collect()
        })
        .collect();
    empirical_covariance(&samples)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every policy factors a Gram matrix of rank below its dimension, and
    /// the factor reproduces it within the backward error of the lowest
    /// tile precision plus the perturbation: `‖U − L Lᵀ‖_F / ‖U‖_F ≤
    /// n·u_low + ‖jitter·I‖_F / ‖U‖_F`.
    #[test]
    fn rank_deficient_gram_matrices_factor_in_every_policy(
        seed in 0u64..1_000_000,
        n in prop_oneof![Just(16usize), Just(32), Just(48)],
        rank_share in 0.05f64..0.9,
    ) {
        let k = ((rank_share * n as f64) as usize).max(1);
        let u = gram(n, k, seed);
        let u_norm = u.frobenius_norm();
        for b in [4usize, 8, 16] {
            for policy in variants(n / b) {
                let label = policy.label();
                let factored = factor_covariance(u.clone(), b, &policy, 2)
                    .map_err(|e| TestCaseError::fail(format!("{label} n={n} k={k} b={b}: {e}")))?;
                let u_low = factored.tiles.lowest_precision().unit_roundoff();
                let bound =
                    n as f64 * u_low + (n as f64).sqrt() * factored.jitter / u_norm;
                let residual = factorization_residual(u.as_slice(), &factored.tiles);
                prop_assert!(
                    residual <= bound,
                    "{label} n={n} k={k} b={b}: residual {residual:e} > {bound:e} \
                     (jitter {:e})",
                    factored.jitter
                );
            }
        }
    }
}

#[test]
fn exhausted_ladder_is_a_typed_error() {
    // −I: the mean diagonal is negative, so every rung is sized from
    // `f64::MIN_POSITIVE` and none lifts a pivot above zero.
    let n = 8;
    let mut u = Matrix::zeros(n, n);
    u.add_diagonal(-1.0);
    for policy in variants(2) {
        let err = factor_covariance(u.clone(), 4, &policy, 2).unwrap_err();
        let EmulationError::Factorization(msg) = &err else {
            panic!("{}: {err}", policy.label());
        };
        assert!(
            msg.contains("after 40 rungs") && msg.contains("jitter") && msg.contains("pivot 0"),
            "{}: {msg}",
            policy.label()
        );
    }
}
