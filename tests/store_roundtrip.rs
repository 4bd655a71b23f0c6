//! Archive round-trips and corruption handling: [`Dataset`]s through the
//! chunked ECA1 archive, proptest-style (seeded generator loop) plus
//! targeted corruption cases asserting the exact error variant.

use exaclim_climate::generator::Dataset;
use exaclim_climate::io::{dataset_from_eca1, dataset_to_eca1};
use exaclim_climate::{SyntheticEra5, SyntheticEra5Config};
use exaclim_store::{
    read_snapshot_file, write_snapshot_file, Archive, ArchiveError, ArchiveWriter, ByteCodec,
    Codec, FieldMeta, Snapshot,
};
use std::io::Cursor;

/// Deterministic member with case-dependent geometry and length.
fn member(case: u64) -> Dataset {
    let lmax = [8usize, 10, 12][(case % 3) as usize];
    let days = [7usize, 30, 65, 128][(case % 4) as usize];
    let mut cfg = SyntheticEra5Config::small_daily(lmax);
    if case % 2 == 1 {
        cfg.tau = 12;
    }
    SyntheticEra5::new(cfg).generate_member(case, days)
}

#[test]
fn seeded_roundtrips_through_both_containers() {
    for case in 0..12u64 {
        let d = member(case);
        // Exact at each codec's precision, cycling codecs by case.
        let codec = Codec::ALL[(case % Codec::ALL.len() as u64) as usize];
        let eca = dataset_to_eca1(&d, codec).unwrap();
        let back = dataset_from_eca1(eca).unwrap();
        assert_eq!(back.t_max, d.t_max, "case {case}");
        for (a, b) in d.data.iter().zip(&back.data) {
            assert_eq!(
                codec.quantize(*a).to_bits(),
                b.to_bits(),
                "case {case} codec {}",
                codec.label()
            );
        }
    }
}

#[test]
fn eca1_sliced_reads_match_full_reads() {
    for case in 0..6u64 {
        let d = member(case);
        let eca = dataset_to_eca1(&d, Codec::F32Shuffle).unwrap();
        let r = Archive::from_reader(Cursor::new(eca.to_vec())).unwrap();
        let full = r.read_field_all("field").unwrap();
        let t = d.t_max as u64;
        for (lo, hi) in [(0, t), (0, 1), (t - 1, t), (t / 3, 2 * t / 3 + 1)] {
            let part = r.read_field_slices("field", lo..hi).unwrap();
            assert_eq!(
                part[..],
                full[lo as usize * d.npoints..hi as usize * d.npoints],
                "case {case} range {lo}..{hi}"
            );
        }
    }
}

/// Property sweep over the same seeded fixtures: for every codec, a
/// memory-mapped open, a buffered (mutex-fallback) file open, and an
/// in-memory stream (`Archive::from_reader`) must produce bit-identical
/// full reads, sliced reads, and snapshot payloads. This is the guarantee
/// that lets `Archive::open` pick its backend per platform without anyone
/// noticing values change.
#[test]
fn mmap_and_buffered_reads_are_bit_identical_across_codecs() {
    for case in 0..Codec::ALL.len() as u64 {
        let d = member(case);
        let codec = Codec::ALL[case as usize];
        let meta = FieldMeta {
            ntheta: d.ntheta,
            nphi: d.nphi,
            start_year: d.start_year,
            tau: d.tau,
        };
        let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
        w.add_field("field", codec, meta, d.npoints, 16, &d.data)
            .unwrap();
        w.add_snapshot("notes", 2, ByteCodec::Rle, b"backend sweep", 32)
            .unwrap();
        let raw = w.finish().unwrap().0.into_inner();

        let path = std::env::temp_dir().join(format!(
            "exaclim_backend_sweep_{}_{case}.eca1",
            std::process::id()
        ));
        std::fs::write(&path, &raw).unwrap();
        let mapped = Archive::open(&path).unwrap();
        let buffered =
            Archive::from_reader(std::io::BufReader::new(std::fs::File::open(&path).unwrap()))
                .unwrap();
        let reader = Archive::from_reader(Cursor::new(raw)).unwrap();
        assert_eq!(buffered.backend(), "stream");
        if exaclim_store::MMAP_SUPPORTED {
            assert_eq!(mapped.backend(), "mmap");
            assert!(mapped.is_zero_copy());
            assert!(mapped.read_chunk_stored(0, 0).unwrap().is_borrowed());
        }

        let want = reader.read_field_all("field").unwrap();
        assert_eq!(mapped.read_field_all("field").unwrap(), want, "case {case}");
        assert_eq!(
            buffered.read_field_all("field").unwrap(),
            want,
            "case {case}"
        );
        let t = d.t_max as u64;
        for (lo, hi) in [(0, t), (0, 1), (t - 1, t), (t / 3, 2 * t / 3 + 1)] {
            let want = reader.read_field_slices("field", lo..hi).unwrap();
            assert_eq!(
                mapped.read_field_slices("field", lo..hi).unwrap(),
                want,
                "case {case} range {lo}..{hi} (mmap)"
            );
            assert_eq!(
                buffered.read_field_slices("field", lo..hi).unwrap(),
                want,
                "case {case} range {lo}..{hi} (buffered)"
            );
        }
        assert_eq!(
            mapped.read_snapshot("notes").unwrap(),
            buffered.read_snapshot("notes").unwrap()
        );
        mapped.verify().unwrap();
        buffered.verify().unwrap();
        drop((mapped, buffered));
        std::fs::remove_file(&path).ok();
    }
}

/// Chunk corruption is caught identically through a mapped source: the
/// CRC check runs on the borrowed view before anything decodes. The chunk
/// is long enough for the folding CRC kernel and the flipped bit sits in
/// its first folded block.
#[test]
fn mapped_reads_still_verify_checksums() {
    let d = member(1);
    let mut raw = dataset_to_eca1(&d, Codec::F32Shuffle).unwrap().to_vec();
    let chunk0 = {
        let r = Archive::from_reader(Cursor::new(raw.clone())).unwrap();
        r.member("field").unwrap().chunks[0]
    };
    assert!(chunk0.stored_len >= 128, "{}", chunk0.stored_len);
    raw[chunk0.offset as usize + 1] ^= 0x04;
    let path = std::env::temp_dir().join(format!("exaclim_mapped_crc_{}.eca1", std::process::id()));
    std::fs::write(&path, &raw).unwrap();
    let mapped = Archive::open(&path).unwrap();
    match mapped.read_field_all("field").unwrap_err() {
        ArchiveError::ChecksumMismatch { member, chunk } => {
            assert_eq!((member.as_str(), chunk), ("field", 0));
        }
        other => panic!("expected checksum mismatch, got {other}"),
    }
    drop(mapped);
    std::fs::remove_file(&path).ok();
}

#[test]
fn compressed_codec_beats_raw_f32_on_smooth_fields() {
    let d = member(2);
    let f32_len = dataset_to_eca1(&d, Codec::F32).unwrap().len();
    let packed_len = dataset_to_eca1(&d, Codec::F32Shuffle).unwrap().len();
    assert!(
        packed_len < f32_len,
        "byte-shuffle+RLE must be strictly smaller than raw f32: {packed_len} vs {f32_len}"
    );
}

#[test]
fn eca1_corruption_cases_hit_the_right_variant() {
    let d = member(1);
    let good = dataset_to_eca1(&d, Codec::F32).unwrap().to_vec();

    // Bad magic.
    let mut raw = good.clone();
    raw[0] = b'Z';
    assert!(matches!(
        dataset_from_eca1(raw.into()).unwrap_err(),
        ArchiveError::BadMagic
    ));

    // Bad version.
    let mut raw = good.clone();
    raw[4] = 9;
    assert!(matches!(
        dataset_from_eca1(raw.into()).unwrap_err(),
        ArchiveError::BadVersion(9)
    ));

    // Checksum mismatch in a specific chunk: flip one payload byte.
    let chunks = {
        let r = Archive::from_reader(Cursor::new(good.clone())).unwrap();
        r.member("field").unwrap().chunks.clone()
    };
    let mut raw = good.clone();
    raw[chunks[0].offset as usize] ^= 0x80;
    match dataset_from_eca1(raw.into()).unwrap_err() {
        ArchiveError::ChecksumMismatch { member, chunk } => {
            assert_eq!((member.as_str(), chunk), ("field", 0));
        }
        other => panic!("expected checksum mismatch, got {other}"),
    }

    // Truncated chunk: cut the stream inside the last chunk. The directory
    // is gone with it, so the reader reports structural corruption.
    let last = chunks.last().unwrap();
    let mut raw = good.clone();
    raw.truncate((last.offset + last.stored_len / 2) as usize);
    assert!(matches!(
        Archive::from_reader(Cursor::new(raw)).unwrap_err(),
        ArchiveError::Corrupt(_)
    ));

    // A directory that promises a chunk beyond the payload region is a
    // truncated chunk. Build it with a hand-written archive whose chunk
    // extends past where the directory starts.
    let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
    w.add_field(
        "field",
        Codec::Raw64,
        FieldMeta {
            ntheta: 1,
            nphi: 2,
            start_year: 2000,
            tau: 365,
        },
        2,
        1,
        &[1.0, 2.0, 3.0, 4.0],
    )
    .unwrap();
    let (cursor, _) = w.finish().unwrap();
    let mut raw = cursor.into_inner();
    // Enlarge the first chunk's stored_len field in the directory. The
    // directory CRC would catch this edit, so recompute it.
    let dir_offset = u64::from_le_bytes(raw[8..16].try_into().unwrap()) as usize;
    let dir_len = u64::from_le_bytes(raw[16..24].try_into().unwrap()) as usize;
    // Chunk entries start after: u32 count, u16 name_len + name, u8 kind,
    // u8 codec, u32 ver, u32 ntheta, u32 nphi, i64 year, u32 tau, u64
    // t_max, u32 chunk_t, u64 vps, u32 chunk_count.
    let entry_off = dir_offset + 4 + 2 + "field".len() + 1 + 1 + 4 + 4 + 4 + 8 + 4 + 8 + 4 + 8 + 4;
    let stored_len_off = entry_off + 8;
    raw[stored_len_off..stored_len_off + 8].copy_from_slice(&10_000u64.to_le_bytes());
    let crc = exaclim_store::format::crc32(&raw[dir_offset..dir_offset + dir_len]);
    let crc_off = dir_offset + dir_len;
    raw[crc_off..crc_off + 4].copy_from_slice(&crc.to_le_bytes());
    match Archive::from_reader(Cursor::new(raw)).unwrap_err() {
        ArchiveError::TruncatedChunk { member, chunk } => {
            assert_eq!((member.as_str(), chunk), ("field", 0));
        }
        other => panic!("expected truncated chunk, got {other}"),
    }

    // Trailing garbage after the container.
    let mut raw = good.clone();
    raw.extend_from_slice(b"tail");
    assert!(matches!(
        Archive::from_reader(Cursor::new(raw)).unwrap_err(),
        ArchiveError::TrailingBytes { .. }
    ));

    // Unknown codec id in the directory (re-CRC'd so only the codec check
    // can fire).
    let mut raw = good.clone();
    let dir_offset = u64::from_le_bytes(raw[8..16].try_into().unwrap()) as usize;
    let dir_len = u64::from_le_bytes(raw[16..24].try_into().unwrap()) as usize;
    let codec_off = dir_offset + 4 + 2 + "field".len() + 1;
    raw[codec_off] = 200;
    let crc = exaclim_store::format::crc32(&raw[dir_offset..dir_offset + dir_len]);
    let crc_off = dir_offset + dir_len;
    raw[crc_off..crc_off + 4].copy_from_slice(&crc.to_le_bytes());
    assert!(matches!(
        dataset_from_eca1(raw.into()).unwrap_err(),
        ArchiveError::UnknownCodec(200)
    ));
}

#[test]
fn snapshot_files_roundtrip_and_reject_damage() {
    let path = std::env::temp_dir().join("exaclim_roundtrip_snapshot.eca1");
    let snap = Snapshot::new("model", 4, vec![0u8; 4096]);
    write_snapshot_file(&path, &snap).unwrap();
    assert_eq!(read_snapshot_file(&path, "model").unwrap(), snap);

    // Flip a payload byte and fix nothing else: checksum must fire.
    let mut raw = std::fs::read(&path).unwrap();
    raw[40] ^= 0xFF;
    std::fs::write(&path, &raw).unwrap();
    let err = read_snapshot_file(&path, "model").unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(
            err,
            ArchiveError::ChecksumMismatch { .. } | ArchiveError::Corrupt(_)
        ),
        "{err}"
    );
}

/// The bytes of a fixed multi-chunk archive — every chunk CRC and the
/// directory CRC included — and the CRC32 of the whole container, pinned
/// to values recorded before the checksum kernel last changed. Any change
/// to the CRC or the ECA1 layout moves them.
#[test]
fn fixed_archive_bytes_and_crc_are_pinned() {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let data: Vec<f64> = (0..96 * 40)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            280.0 + (x % 20_000) as f64 * 0.001
        })
        .collect();
    let meta = FieldMeta {
        ntheta: 8,
        nphi: 12,
        start_year: 1990,
        tau: 365,
    };
    let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
    w.add_field("t2m", Codec::F32Shuffle, meta, 96, 8, &data)
        .unwrap();
    w.add_field("u10", Codec::Raw64, meta, 96, 7, &data)
        .unwrap();
    w.add_field("v10", Codec::F16, meta, 96, 16, &data).unwrap();
    let blob: Vec<u8> = (0..5000u32).map(|i| (i * i / 7) as u8).collect();
    w.add_snapshot("model", 3, ByteCodec::Rle, &blob, 1024)
        .unwrap();
    let raw = w.finish().unwrap().0.into_inner();
    let fnv = raw.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    });
    assert_eq!(raw.len(), 55_972);
    assert_eq!(fnv, 0xa637_032f_0d0e_8879);
    assert_eq!(exaclim_store::crc32(&raw), 0x4303_81bf);
}

#[test]
fn multi_member_archives_keep_members_independent() {
    let a = member(0);
    let b = member(3);
    let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
    let meta = |d: &Dataset| FieldMeta {
        ntheta: d.ntheta,
        nphi: d.nphi,
        start_year: d.start_year,
        tau: d.tau,
    };
    w.add_field("member0", Codec::F32, meta(&a), a.npoints, 16, &a.data)
        .unwrap();
    w.add_field(
        "member1",
        Codec::F16Shuffle,
        meta(&b),
        b.npoints,
        16,
        &b.data,
    )
    .unwrap();
    w.add_snapshot("notes", 1, ByteCodec::Rle, b"ensemble of two", 64)
        .unwrap();
    let (cursor, _) = w.finish().unwrap();
    let r = Archive::from_reader(Cursor::new(cursor.into_inner())).unwrap();
    assert_eq!(r.members().len(), 3);
    let a_back = r.read_field_all("member0").unwrap();
    let b_back = r.read_field_all("member1").unwrap();
    assert_eq!(a_back.len(), a.data.len());
    assert_eq!(b_back.len(), b.data.len());
    for (x, y) in a.data.iter().zip(&a_back) {
        assert_eq!(Codec::F32.quantize(*x), *y);
    }
    for (x, y) in b.data.iter().zip(&b_back) {
        assert_eq!(Codec::F16Shuffle.quantize(*x), *y);
    }
    assert_eq!(
        r.read_snapshot("notes").unwrap(),
        (1, b"ensemble of two".to_vec())
    );
    r.verify().unwrap();
}
