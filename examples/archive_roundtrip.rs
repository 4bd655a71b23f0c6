//! End-to-end archive exercise: generate → write ECA1 → read a slice →
//! detect corruption → train → snapshot → reload → identical emulation.
//!
//! ```text
//! cargo run --release --example archive_roundtrip
//! ```

use exaclim::{ClimateEmulator, EmulatorConfig, TrainedEmulator};
use exaclim_climate::{SyntheticEra5, SyntheticEra5Config};
use exaclim_store::{Archive, ArchiveError, ArchiveWriter, Codec, FieldMeta};

fn main() {
    let dir = std::env::temp_dir();
    let archive_path = dir.join("exaclim_example_fields.eca1");
    let snapshot_path = dir.join("exaclim_example_model.eca1");

    // 1. Generate a small synthetic ERA5-like ensemble member.
    let generator = SyntheticEra5::new(SyntheticEra5Config::small_daily(12));
    let days = 2 * 365;
    let member = generator.generate_member(0, days);
    println!(
        "generated member: {} steps on a {}×{} grid ({} f64 values)",
        member.t_max,
        member.ntheta,
        member.nphi,
        member.data.len()
    );

    // 2. Stream it into an ECA1 archive with the f32 codec, 32-step chunks.
    let meta = FieldMeta {
        ntheta: member.ntheta,
        nphi: member.nphi,
        start_year: member.start_year,
        tau: member.tau,
    };
    let mut writer = ArchiveWriter::create(&archive_path).expect("create archive");
    writer
        .begin_field("t2m/member0", Codec::F32, meta, member.npoints, 32)
        .expect("begin member");
    for slice in member.data.chunks(member.npoints) {
        writer.append_slices(slice).expect("append slice");
    }
    writer.finish_field().expect("close member");
    let (_, total) = writer.finish().expect("finish archive");
    let raw64 = member.data.len() * 8;
    println!(
        "archive: {total} bytes on disk vs {raw64} raw ({:.2}× smaller)",
        raw64 as f64 / total as f64
    );

    // 3. Read back: full payload must be bit-exact at f32 precision, and a
    //    mid-archive slice must not require reading other chunks.
    let reader = Archive::open(&archive_path).expect("open archive");
    let all = reader.read_field_all("t2m/member0").expect("read all");
    let exact = member
        .data
        .iter()
        .zip(&all)
        .all(|(a, b)| ((*a as f32) as f64).to_bits() == b.to_bits());
    assert!(
        exact,
        "f32 codec must round-trip bit-exactly at f32 precision"
    );
    println!("full read: bit-exact at f32 precision ✓");
    let window = reader
        .read_field_slices("t2m/member0", 100..140)
        .expect("read slice");
    assert_eq!(window.len(), 40 * member.npoints);
    assert_eq!(window[..], all[100 * member.npoints..140 * member.npoints]);
    println!("sliced read (steps 100..140): matches full read ✓");

    // 4. Corrupt one payload byte; the checksum must catch it and name the
    //    damaged chunk, while other chunks stay readable.
    let mut bytes = std::fs::read(&archive_path).expect("reread archive");
    let chunk1 = reader.member("t2m/member0").unwrap().chunks[1];
    bytes[chunk1.offset as usize + 7] ^= 0x01;
    let corrupted_path = dir.join("exaclim_example_fields_corrupt.eca1");
    std::fs::write(&corrupted_path, &bytes).expect("write corrupted copy");
    let corrupted = Archive::open(&corrupted_path).expect("directory still intact");
    match corrupted.read_field_all("t2m/member0") {
        Err(ArchiveError::ChecksumMismatch { member, chunk }) => {
            println!("corruption detected: member `{member}`, chunk {chunk} ✓");
            assert_eq!(chunk, 1);
        }
        other => panic!("corruption must surface as a checksum mismatch, got {other:?}"),
    }
    let first_chunk = corrupted
        .read_field_slices("t2m/member0", 0..chunk1.t0)
        .expect("untouched chunks stay readable");
    assert!(!first_chunk.is_empty());

    // 5. Train an emulator on the data read *from the archive* and
    //    snapshot it.
    let mut training = member.clone();
    training.data = all;
    let emulator =
        ClimateEmulator::train(&training, EmulatorConfig::small(8)).expect("training succeeds");
    let snapshot_bytes = emulator.save(&snapshot_path).expect("snapshot");
    println!("trained emulator snapshot: {snapshot_bytes} bytes");

    // 6. Reload and verify bit-identical emulation under the same seed.
    let reloaded = TrainedEmulator::load(&snapshot_path).expect("reload");
    let a = emulator.emulate(120, 42).expect("emulate");
    let b = reloaded.emulate(120, 42).expect("emulate reloaded");
    assert_eq!(
        a.data, b.data,
        "reloaded emulator must emulate bit-identically"
    );
    println!("reloaded emulator reproduces seed-42 emulation bit-identically ✓");

    for p in [&archive_path, &corrupted_path, &snapshot_path] {
        std::fs::remove_file(p).ok();
    }
    println!("archive roundtrip complete");
}
