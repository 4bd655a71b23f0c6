//! Ensemble training and archive I/O: stage an R-member ensemble on disk as
//! ECA1 archives, load it back, train jointly, and verify the covariance
//! benefits of pooling (eq. 9 with R > 1).

use exaclim::{validate_consistency, ClimateEmulator, EmulatorConfig};
use exaclim_climate::generator::Dataset;
use exaclim_climate::io::{dataset_from_eca1, dataset_to_eca1};
use exaclim_climate::{SyntheticEra5, SyntheticEra5Config};
use exaclim_store::Codec;

fn ensemble(r: u64, days: usize) -> Vec<Dataset> {
    let generator = SyntheticEra5::new(SyntheticEra5Config::small_daily(12));
    (0..r).map(|m| generator.generate_member(m, days)).collect()
}

#[test]
fn ensemble_roundtrips_through_archive_container() {
    let members = ensemble(3, 100);
    let dir = std::env::temp_dir();
    let mut loaded = Vec::new();
    for (k, m) in members.iter().enumerate() {
        let path = dir.join(format!("exaclim_ens_{k}.eca1"));
        std::fs::write(&path, dataset_to_eca1(m, Codec::F32).unwrap()).unwrap();
        let raw = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        loaded.push(dataset_from_eca1(raw.into()).unwrap());
    }
    for (a, b) in members.iter().zip(&loaded) {
        assert_eq!(a.t_max, b.t_max);
        for (x, y) in a.data.iter().zip(&b.data) {
            assert!((x - y).abs() < 1e-2, "f32 container precision");
        }
    }
}

#[test]
fn ensemble_trained_emulator_is_consistent_with_every_member() {
    let members = ensemble(3, 2 * 365);
    let refs: Vec<&Dataset> = members.iter().collect();
    let em = ClimateEmulator::train_ensemble(&refs, EmulatorConfig::small(8)).unwrap();
    let emulation = em.emulate(2 * 365, 31).unwrap();
    for (k, m) in members.iter().enumerate() {
        let report = validate_consistency(m, &emulation);
        assert!(report.passes(), "member {k}: {report:?}");
    }
}

#[test]
fn pooling_members_stabilizes_the_innovation_covariance() {
    // With a short record, R = 4 members give a better-conditioned Û than
    // R = 1 (the paper's motivation for ensemble training): the diagonal
    // jitter needed for positive definiteness must not grow, and the
    // factor must stay finite.
    let members = ensemble(4, 200);
    let refs: Vec<&Dataset> = members.iter().collect();
    let single = ClimateEmulator::train(&members[0], EmulatorConfig::small(8)).unwrap();
    let pooled = ClimateEmulator::train_ensemble(&refs, EmulatorConfig::small(8)).unwrap();
    assert!(pooled.jitter <= single.jitter.max(1e-30) * 1.0001);
    assert!(pooled.factor.iter().all(|v| v.is_finite()));
    // Pooled diagonal of V should be no larger on average (tighter
    // covariance estimate, same underlying process).
    let dim = 64;
    let diag_mean =
        |f: &[f64]| -> f64 { (0..dim).map(|i| f[i * dim + i]).sum::<f64>() / dim as f64 };
    let (ds, dp) = (diag_mean(&single.factor), diag_mean(&pooled.factor));
    assert!((ds / dp - 1.0).abs() < 0.5, "same scale: {ds} vs {dp}");
}
