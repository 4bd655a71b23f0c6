//! End-to-end integration: generator → training → emulation → validation,
//! across temporal resolutions and precision policies.

use exaclim::{validate_consistency, ClimateEmulator, EmulatorConfig, TrainedEmulator};
use exaclim_climate::{SyntheticEra5, SyntheticEra5Config};
use exaclim_linalg::precision::PrecisionPolicy;

fn daily_training(lmax_data: usize, years: usize) -> exaclim_climate::Dataset {
    let generator = SyntheticEra5::new(SyntheticEra5Config::small_daily(lmax_data));
    generator.generate_member(0, years * 365)
}

#[test]
fn full_pipeline_daily_dp() {
    let training = daily_training(12, 3);
    let em = ClimateEmulator::train(&training, EmulatorConfig::small(8)).unwrap();
    let emulation = em.emulate(3 * 365, 1).unwrap();
    let report = validate_consistency(&training, &emulation);
    assert!(report.passes(), "{report:?}");
}

#[test]
fn full_pipeline_monthly_resolution() {
    // Monthly cadence (τ = 12): different periodic structure, same pipeline.
    let mut gen_cfg = SyntheticEra5Config::small_daily(12);
    gen_cfg.tau = 12;
    gen_cfg.ar_phi = 0.4;
    let generator = SyntheticEra5::new(gen_cfg);
    let training = generator.generate_member(0, 12 * 40);
    let mut cfg = EmulatorConfig::small(8);
    cfg.tau = 12;
    let em = ClimateEmulator::train(&training, cfg).unwrap();
    let emulation = em.emulate(12 * 40, 5).unwrap();
    let report = validate_consistency(&training, &emulation);
    assert!(report.passes(), "{report:?}");
}

#[test]
fn full_pipeline_mixed_precision_covariance() {
    // The covariance factor at DP/HP must still produce consistent
    // emulations (Figure 4's claim), end to end.
    let training = daily_training(12, 3);
    let mut cfg = EmulatorConfig::small(8);
    cfg.precision = PrecisionPolicy::dp_hp();
    cfg.tile = 16;
    let em = ClimateEmulator::train(&training, cfg).unwrap();
    let emulation = em.emulate(2 * 365, 9).unwrap();
    let report = validate_consistency(&training, &emulation);
    assert!(report.passes(), "{report:?}");
}

#[test]
fn persistence_roundtrip_through_disk() {
    let training = daily_training(12, 2);
    let em = ClimateEmulator::train(&training, EmulatorConfig::small(8)).unwrap();
    let path = std::env::temp_dir().join(format!("exaclim_model_test_{}.eca1", std::process::id()));
    em.save(&path).unwrap();
    let loaded = TrainedEmulator::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(
        em.emulate(60, 3).unwrap().data,
        loaded.emulate(60, 3).unwrap().data,
        "persisted model must emulate identically"
    );
}

#[test]
fn independent_realizations_share_climate_statistics() {
    // Multiple emulations from one model: inter-realization spread behaves
    // like ensemble spread (paper §I: emulators replace large ensembles).
    let training = daily_training(12, 2);
    let em = ClimateEmulator::train(&training, EmulatorConfig::small(8)).unwrap();
    let a = em.emulate(365, 10).unwrap();
    let b = em.emulate(365, 20).unwrap();
    let ra = validate_consistency(&training, &a);
    let rb = validate_consistency(&training, &b);
    assert!(ra.passes() && rb.passes());
    // Realizations differ pointwise (weather) …
    let diff: f64 = a
        .data
        .iter()
        .zip(&b.data)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max);
    assert!(diff > 0.5, "distinct realizations expected");
    // … but agree in climatology.
    let mean_a: f64 = a.data.iter().sum::<f64>() / a.data.len() as f64;
    let mean_b: f64 = b.data.iter().sum::<f64>() / b.data.len() as f64;
    assert!((mean_a - mean_b).abs() < 1.0);
}

#[test]
fn emulator_extends_beyond_training_period() {
    // Emulate twice the training length — projection mode.
    let training = daily_training(12, 2);
    let em = ClimateEmulator::train(&training, EmulatorConfig::small(8)).unwrap();
    let long = em.emulate(4 * 365, 11).unwrap();
    assert_eq!(long.t_max, 4 * 365);
    assert!(long.data.iter().all(|v| (150.0..360.0).contains(v)));
}
