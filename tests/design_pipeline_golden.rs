//! Golden values of the design pipeline on the benchmark's data (member 0
//! of `small_daily(16)`, two years of daily fields).
//!
//! The trend fit and the consistency report were recorded from the build
//! *before* they were rearranged into plan-once/apply-many form (PR 15);
//! their per-location arithmetic is a contract (see ARCHITECTURE.md,
//! "Design pipeline: what is planned once"). Everything from the generator
//! through the SHT batches, the factor, the sampled coefficient path and
//! the benchmark op's report was recorded from the build *before* the FFT
//! gathered its twiddles at plan time and the sampler became a blocked
//! triangular product (PR 21): those two rewrites keep every operation, so
//! every value here is pinned bit for bit. The whole-emulator pins of
//! `train` and of a three-member `train_ensemble` were recorded from the
//! build *before* `train` became `train_ensemble` of one member.

use exaclim::{
    validate_consistency, ClimateEmulator, ConsistencyReport, EmulatorConfig, TrainedEmulator,
};
use exaclim_climate::{Dataset, SyntheticEra5, SyntheticEra5Config};
use exaclim_sht::{analysis_batch, synthesis_batch, ShtPlan};
use exaclim_stats::trend::{fit_grid, TrendConfig};
use exaclim_stats::{CoefficientSampler, ForcingSeries};
use rand::rngs::StdRng;
use rand::SeedableRng;

const LMAX: usize = 16;
const T_MAX: usize = 730;

fn member(k: u64) -> Dataset {
    SyntheticEra5::new(SyntheticEra5Config::small_daily(LMAX)).generate_member(k, T_MAX)
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

fn report_fields(r: &ConsistencyReport) -> [f64; 6] {
    [
        r.mean_nrmse,
        r.std_ratio_median,
        r.mean_field_correlation,
        r.std_field_correlation,
        r.acf1_abs_diff,
        r.max_quantile_gap,
    ]
}

/// One hash per `TrainedEmulator` field that training computes: `trend`
/// (β₀, β₁, β₂, ρ, σ and harmonics of every location), `var.phi`,
/// `factor`, `v2`, `forcing` (its years and values) and `jitter`.
fn emulator_hashes(model: &TrainedEmulator) -> [(&'static str, u64); 6] {
    let trend = model.trend.iter().flat_map(|m| {
        [m.beta0, m.beta1, m.beta2, m.rho, m.sigma]
            .into_iter()
            .chain(m.harmonics.iter().flat_map(|&(a, b)| [a, b]))
    });
    let forcing = &model.forcing;
    let years = forcing.first_year()..=forcing.last_year();
    let forcing = [forcing.first_year() as f64, forcing.last_year() as f64]
        .into_iter()
        .chain(years.map(|y| forcing.at(y)));
    [
        ("trend", hash(trend)),
        ("var", hash(model.var.phi.iter().flatten().copied())),
        ("factor", hash(model.factor.iter().copied())),
        ("v2", hash(model.v2.iter().copied())),
        ("forcing", hash(forcing)),
        ("jitter", hash([model.jitter])),
    ]
}

#[test]
fn fit_grid_models_and_residuals_keep_their_bits() {
    let data = member(0);
    let cfg = EmulatorConfig::small(LMAX);
    // The trend stage exactly as `ClimateEmulator::train` sets it up.
    let years = (data.t_max / data.tau + 2) as i64;
    let forcing = ForcingSeries::historical_like(data.start_year, data.start_year + years, 30);
    let trend_cfg = TrendConfig {
        k_harmonics: cfg.k_harmonics,
        tau: data.tau,
        rho_grid: cfg.rho_grid,
        start_year: data.start_year,
    };
    let fit = fit_grid(&data.data, T_MAX, data.npoints, &trend_cfg, &forcing);

    let m = &fit.models[297];
    assert_eq!(m.beta0.to_bits(), 0x4071_6796_3182_36ea);
    assert_eq!(m.beta1.to_bits(), 0x404b_bcf7_77da_a570);
    assert_eq!(m.beta2.to_bits(), 0xc048_c7fa_1e0e_1386);
    assert_eq!(m.rho.to_bits(), 0x3fec_cccc_cccc_cccd);
    assert_eq!(m.sigma.to_bits(), 0x3fe6_0468_563a_6fa8);
    assert_eq!(m.harmonics[0].0.to_bits(), 0xbff1_b71a_a373_2e98);
    assert_eq!(m.harmonics[0].1.to_bits(), 0xbfb6_be1d_bd11_a5b4);

    let models = fit.models.iter().flat_map(|m| {
        [m.beta0, m.beta1, m.beta2, m.rho, m.sigma]
            .into_iter()
            .chain(m.harmonics.iter().flat_map(|&(a, b)| [a, b]))
    });
    assert_eq!(hash(models), 0x4d3c_9d6e_3786_b942, "trend models moved");
    assert_eq!(
        hash(fit.residuals.iter().copied()),
        0x77e2_91d6_e995_2a61,
        "standardized residuals moved"
    );
    // The single-location mean is what the residuals were standardized
    // against.
    let (p, t) = (297, 411);
    let mean = fit.models[p].mean_series(&trend_cfg, &forcing, T_MAX)[t];
    let z = (data.data[t * data.npoints + p] - mean) / fit.models[p].sigma;
    assert_eq!(z.to_bits(), fit.residuals[t * data.npoints + p].to_bits());
}

#[test]
fn consistency_report_keeps_its_bits() {
    // Two realizations of one climate: a pair the SHT analysis has no part
    // in, so every field of the report is reproducible to the bit.
    let report = validate_consistency(&member(0), &member(1));
    assert_eq!(
        report_fields(&report).map(f64::to_bits),
        [
            0x3f83_5343_dce3_ea95,
            0x3ff0_2b4f_2924_05f8,
            0x3fef_ffe1_3fbc_560b,
            0x3fef_f462_53e0_8a29,
            0x3fa2_2128_2b01_b110,
            0x3fa0_5cb8_e919_c3e2,
        ],
        "{report:?}"
    );
}

#[test]
fn generator_members_keep_their_bits() {
    // The `emulator_design` training member and the serve workloads'
    // archive member: the generator synthesizes every field by SHT.
    assert_eq!(
        hash(member(0).data),
        0x745a_e57b_ffb5_b742,
        "small_daily(16) member 0 moved"
    );
    let archive = SyntheticEra5::new(SyntheticEra5Config::small_daily(32)).generate_member(0, 2048);
    assert_eq!(
        hash(archive.data),
        0x6695_bbce_829e_0785,
        "small_daily(32) member 0 moved"
    );
}

#[test]
fn sht_batches_keep_their_bits() {
    let data = member(0);
    let plan = ShtPlan::equiangular(LMAX, data.ntheta, data.nphi);
    let coeffs = analysis_batch(&plan, &data.data, T_MAX);
    let values = coeffs
        .iter()
        .flat_map(|c| c.as_slice().iter().flat_map(|z| [z.re, z.im]));
    assert_eq!(hash(values), 0xdf2a_a3a7_b7ed_8dc3, "analysis_batch moved");
    let fields = synthesis_batch(&plan, &coeffs);
    assert_eq!(hash(fields), 0x45ac_311e_26b1_5659, "synthesis_batch moved");
}

#[test]
fn benchmark_op_keeps_its_bits() {
    // Op 0 of the `emulator_design` workload: train on member 0, emulate
    // with the benchmark's seed for op 0, validate the pair.
    let training = member(0);
    let mut config = EmulatorConfig::small(LMAX);
    config.workers = 2;
    let model = ClimateEmulator::train(&training, config).unwrap();
    assert_eq!(
        hash(model.factor.iter().copied()),
        0xef3e_172e_28d7_98f8,
        "factor moved"
    );
    assert_eq!(
        hash(model.v2.iter().copied()),
        0xeaff_4f47_7e7d_dd4b,
        "v2 moved"
    );

    let dim = model.config.coeff_dim();
    let sampler = CoefficientSampler::new(model.var.clone(), model.factor.clone(), dim);
    let path = sampler.sample_path(T_MAX, &mut StdRng::seed_from_u64(3));
    assert_eq!(
        hash(path.into_iter().flatten()),
        0x6ea9_2dde_f206_f9fe,
        "sample_path moved"
    );

    let emulation = model.emulate(T_MAX, 16_049_541_622_874_547_473).unwrap();
    assert_eq!(
        hash(emulation.data.iter().copied()),
        0x3401_450c_15ff_a05f,
        "emulate moved"
    );
    let report = validate_consistency(&training, &emulation);
    assert!(report.passes(), "{report:?}");
    assert_eq!(
        report_fields(&report).map(f64::to_bits),
        [
            0x3f68_da96_259f_bbb6,
            0x3fef_ef44_7bc3_cd3f,
            0x3fef_fff9_02c9_dc05,
            0x3fef_fe3d_06de_45a7,
            0x3f72_8133_4b8e_fb00,
            0x3f9d_5b56_1541_b4c9,
        ],
        "{report:?}"
    );
}

#[test]
fn single_member_training_keeps_its_bits() {
    // The benchmark op's `train`: member 0, two workers.
    let mut config = EmulatorConfig::small(LMAX);
    config.workers = 2;
    let model = ClimateEmulator::train(&member(0), config).unwrap();
    assert_eq!(
        emulator_hashes(&model),
        [
            ("trend", 0x4d3c_9d6e_3786_b942),
            ("var", 0x3494_8d17_3525_44f6),
            ("factor", 0xef3e_172e_28d7_98f8),
            ("v2", 0xeaff_4f47_7e7d_dd4b),
            ("forcing", 0x4111_c1e0_5fbe_cfef),
            ("jitter", 0xa8c7_f832_281a_39c5),
        ]
    );
}

#[test]
fn ensemble_training_keeps_its_bits() {
    // Eq. (9) over members 0–2: pooled σ, shared VAR, pooled innovations.
    let members: Vec<Dataset> = (0..3).map(member).collect();
    let refs: Vec<&Dataset> = members.iter().collect();
    let model = ClimateEmulator::train_ensemble(&refs, EmulatorConfig::small(LMAX)).unwrap();
    assert_eq!(
        emulator_hashes(&model),
        [
            ("trend", 0x8604_12bc_0d6b_d0e9),
            ("var", 0x2859_3ed4_5f2a_4428),
            ("factor", 0xa084_94eb_20cb_5abb),
            ("v2", 0x8f2e_6531_d235_a9d9),
            ("forcing", 0x4111_c1e0_5fbe_cfef),
            ("jitter", 0xa8c7_f832_281a_39c5),
        ]
    );
}
