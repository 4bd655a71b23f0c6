//! # exaclim-store
//!
//! The durable layer of the storage-savings story. The paper's headline is
//! replacing petabyte-scale ESM archives with a trained emulator
//! (conf_sc_AbdulahBBCCGKKL24 §I/§VI); this crate supplies the on-disk
//! artifact for both sides of that ledger: a self-describing container
//! ("ECA1") holding
//!
//! * **field members** — time-chunked gridded payloads in one of several
//!   precision codecs (the same f64/f32/f16 discipline the paper applies
//!   to the tile Cholesky), optionally byte-shuffled and run-length
//!   compressed, each chunk protected by a CRC32 checksum, and
//! * **snapshot members** — versioned opaque blobs (trained emulators),
//!   so a model trained once can be reloaded and re-emulate bit-identically.
//!
//! Layout (byte-exact details in the repository README):
//!
//! ```text
//! header (32 B) | chunk payloads … | directory | directory CRC32
//! ```
//!
//! The directory lives at the end so [`writer::ArchiveWriter`] can stream
//! chunks without knowing member sizes up front; the header is patched
//! with the directory offset on [`writer::ArchiveWriter::finish`].
//! [`Archive`] seeks straight to any `(member, time-range)` slice and
//! decodes only the chunks that overlap it.
//!
//! ## Format invariants
//!
//! * Every chunk's CRC32 covers its **stored** bytes, so corruption is
//!   detected before decoding and attributed to one `(member, chunk)`;
//!   intact chunks of a damaged archive stay readable.
//! * A member's chunks tile `[0, t_max)` contiguously; the reader rejects
//!   gaps, overlaps, and size claims inconsistent with the member's codec
//!   and geometry at open time ([`format::MAX_CHUNK_RAW_LEN`] bounds what a
//!   hostile directory can make it allocate).
//! * The stream must end exactly at `directory offset + length + CRC` —
//!   truncation and trailing garbage are both errors, never silent.
//! * Codec ids are stable wire values ([`Codec::id`]): 0 = `Raw64`,
//!   1 = `F32`, 2 = `F16`, 3 = `F32Shuffle`, 4 = `F16Shuffle`; snapshot
//!   members use [`ByteCodec::id`] (0 = raw, 1 = RLE) in the same field.
//!
//! ## Example
//!
//! Write an archive to any `Write + Seek` sink and slice it back:
//!
//! ```
//! use exaclim_store::{Archive, ArchiveWriter, Codec, FieldMeta};
//! use std::io::Cursor;
//!
//! let meta = FieldMeta { ntheta: 2, nphi: 3, start_year: 2000, tau: 365 };
//! let data: Vec<f64> = (0..6 * 10).map(|i| 280.0 + i as f64).collect();
//!
//! let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
//! w.add_field("t2m", Codec::Raw64, meta, 6, 4, &data).unwrap();
//! let (cursor, total) = w.finish().unwrap();
//!
//! let bytes = cursor.into_inner();
//! assert_eq!(bytes.len() as u64, total);
//! let r = Archive::from_reader(Cursor::new(bytes)).unwrap();
//! // Steps 3..7 of the field: 4 slices × 6 values, crossing a chunk seam.
//! let part = r.read_field_slices("t2m", 3..7).unwrap();
//! assert_eq!(part, data[3 * 6..7 * 6]);
//! ```
//!
//! Modules:
//!
//! * [`mod@format`] — magic/version constants, error type, CRC32
//!   (slice-by-8, or PCLMULQDQ folding where the CPU has it; same bits),
//! * [`chunk`] — directory model and its binary encoding,
//! * [`codec`] — payload codecs (`Raw64`, `F32`, `F16`, shuffled+RLE),
//! * [`writer`] — streaming append,
//! * [`mod@source`] / [`mod@mmap`] — byte-source backends: zero-copy
//!   in-memory and memory-mapped sources, and the mutex-guarded stream
//!   fallback,
//! * [`mod@archive`] — random-access `&self` reads over any source, safe
//!   to share across threads (the serving layer's concurrent fast path),
//! * [`snapshot`] — versioned save/load of opaque snapshot blobs.

#![warn(missing_docs)]

pub mod archive;
pub mod chunk;
pub mod codec;
mod crc;
pub mod format;
pub mod mmap;
pub mod snapshot;
pub mod source;
pub mod writer;

pub use archive::{Archive, DynSource};
pub use chunk::{ChunkEntry, FieldMeta, MemberEntry};
pub use codec::{ByteCodec, Codec};
pub use format::{crc32, crc32_update, ArchiveError, MemberKind};
pub use mmap::{open_file_source, MMAP_SUPPORTED};
pub use snapshot::{read_snapshot_file, write_snapshot_file, Snapshot};
pub use source::{ChunkSource, LockedReader, SharedBytes, SourceBytes};
pub use writer::ArchiveWriter;

#[cfg(all(unix, target_pointer_width = "64"))]
pub use mmap::Mmap;
