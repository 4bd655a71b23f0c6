//! Storage-savings ledger (the title's "Saving PetaBytes" and §I/§VI):
//! archive-vs-emulator volumes across configurations, with dollar costs.
//!
//! ```text
//! cargo run --release -p exaclim-bench --bin storage
//! ```

use exaclim::{ClimateEmulator, EmulatorConfig, TrainedEmulator};
use exaclim_climate::storage::{
    paper_headline_model, StorageModel, CMIP3_BYTES, CMIP5_BYTES, CMIP6_BYTES, DOLLARS_PER_TB_YEAR,
    PB, SCREAM_BYTES_PER_DAY, TB,
};
use exaclim_climate::{dataset_to_eca1, SyntheticEra5, SyntheticEra5Config};
use exaclim_store::Codec;

/// Measured (not modeled) bytes: write a real synthetic member through
/// every ECA1 codec and a real trained emulator through the ECA1
/// snapshot path, and report what actually lands on disk.
fn measured_ledger() {
    let generator = SyntheticEra5::new(SyntheticEra5Config::small_daily(12));
    let days = 2 * 365;
    let member = generator.generate_member(0, days);
    println!(
        "== Measured bytes ({}×{} daily grid, 1 member × 2 yr, synthetic ERA5; emulator L=8) ==",
        member.ntheta, member.nphi
    );
    let raw64 = member.data.len() * 8;
    println!(
        "{:<28} {:>12} bytes {:>8}",
        "raw f64 (in memory)", raw64, "1.00×"
    );
    let mut f32_archive = 0usize;
    let mut shuffled_archive = 0usize;
    for codec in Codec::ALL {
        let eca = dataset_to_eca1(&member, codec).expect("archive writes");
        println!(
            "{:<28} {:>12} bytes {:>7.2}×",
            format!("ECA1 {}", codec.label()),
            eca.len(),
            raw64 as f64 / eca.len() as f64
        );
        match codec {
            Codec::F32 => f32_archive = eca.len(),
            Codec::F32Shuffle => shuffled_archive = eca.len(),
            _ => {}
        }
    }
    assert!(
        shuffled_archive < f32_archive,
        "shuffle+RLE must beat raw f32 on smooth fields: {shuffled_archive} vs {f32_archive}"
    );

    let emulator = ClimateEmulator::train(&member, EmulatorConfig::small(8))
        .expect("training succeeds at toy scale");
    let path = std::env::temp_dir().join("exaclim_storage_bin_snapshot.eca1");
    let snapshot_bytes = emulator.save(&path).expect("snapshot writes");
    let _ = TrainedEmulator::load(&path).expect("snapshot reloads");
    std::fs::remove_file(&path).ok();
    println!(
        "{:<28} {:>12} bytes {:>7.2}×  (payload: {} bytes)",
        "emulator snapshot (ECA1)",
        snapshot_bytes,
        raw64 as f64 / snapshot_bytes as f64,
        emulator.parameter_bytes()
    );
    println!(
        "one member measured; the emulator regenerates unlimited members from \
         {snapshot_bytes} bytes\n"
    );
}

fn main() {
    measured_ledger();
    println!("== §I reference volumes ==");
    for (name, b) in [
        ("CMIP3", CMIP3_BYTES),
        ("CMIP5", CMIP5_BYTES),
        ("CMIP6", CMIP6_BYTES),
    ] {
        println!(
            "{name}: {:>8.2} TB = {:>6.3} PB, carrying cost ${:.2}M/yr",
            b / TB,
            b / PB,
            b / TB * DOLLARS_PER_TB_YEAR / 1e6
        );
    }
    println!(
        "SCREAM@DYAMOND: {:.1} TB per simulated day → {:.0} TB per 40-day campaign",
        SCREAM_BYTES_PER_DAY / TB,
        SCREAM_BYTES_PER_DAY * 40.0 / TB
    );
    println!();

    println!("== Archive vs emulator across scales ==");
    println!(
        "{:<46} {:>11} {:>11} {:>8}",
        "configuration", "archive TB", "emulator TB", "ratio"
    );
    let rows = [
        (
            "L=64 daily 30yr R=5 (laptop scale)",
            StorageModel {
                ensemble_size: 5,
                t_max: 30 * 365,
                npoints: 66 * 129,
                lmax: 64,
                k_harmonics: 5,
                var_order: 3,
            },
        ),
        (
            "L=720 ERA5 hourly 35yr R=10 (paper training)",
            StorageModel {
                ensemble_size: 10,
                t_max: 306_600,
                npoints: 721 * 1440,
                lmax: 720,
                k_harmonics: 5,
                var_order: 3,
            },
        ),
        (
            "L=5219 hourly 83yr R=100 (headline)",
            paper_headline_model(100, 83),
        ),
    ];
    let mut last_saved = 0.0;
    for (name, m) in rows {
        println!(
            "{:<46} {:>11.2} {:>11.2} {:>7.1}×",
            name,
            m.ensemble_bytes() / TB,
            m.emulator_bytes() / TB,
            m.savings_ratio()
        );
        last_saved = m.bytes_saved();
    }
    println!();
    println!(
        "headline configuration saves {:.2} PB (${:.2}M/yr at NCAR's $45/TB/yr)",
        last_saved / PB,
        last_saved / TB * DOLLARS_PER_TB_YEAR / 1e6
    );
    assert!(last_saved > 10.0 * PB, "the title's petabyte claim");
}
