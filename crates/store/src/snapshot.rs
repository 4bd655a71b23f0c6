//! Versioned snapshots of trained models.
//!
//! A snapshot is an opaque payload (typically a trained emulator in the
//! binary layout its crate defines) stored as an ECA1 snapshot member
//! together with a schema version. The version is the *payload's* schema,
//! independent of the container version: readers accept a container they
//! understand and then decide whether they can interpret the payload, so
//! old snapshots stay loadable as the model evolves.

use crate::archive::Archive;
use crate::codec::ByteCodec;
use crate::format::ArchiveError;
use crate::writer::ArchiveWriter;

/// Default chunk size for snapshot payloads (1 MiB).
pub const SNAPSHOT_CHUNK_BYTES: usize = 1 << 20;

/// A named, versioned blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Member name inside the archive.
    pub name: String,
    /// Schema version of the payload.
    pub version: u32,
    /// The payload bytes.
    pub payload: Vec<u8>,
}

impl Snapshot {
    /// Build a snapshot.
    pub fn new(name: impl Into<String>, version: u32, payload: Vec<u8>) -> Self {
        Self {
            name: name.into(),
            version,
            payload,
        }
    }
}

/// Write a single-snapshot archive to `path` (RLE-compressed payload).
/// Returns the container size in bytes.
pub fn write_snapshot_file(
    path: impl AsRef<std::path::Path>,
    snapshot: &Snapshot,
) -> Result<u64, ArchiveError> {
    let mut w = ArchiveWriter::create(path)?;
    w.add_snapshot(
        &snapshot.name,
        snapshot.version,
        ByteCodec::Rle,
        &snapshot.payload,
        SNAPSHOT_CHUNK_BYTES,
    )?;
    let (_, total) = w.finish()?;
    Ok(total)
}

/// Read the snapshot member `name` from the archive at `path`.
///
/// The file is read through a buffered stream, never memory-mapped:
/// [`write_snapshot_file`] rewrites its path in place (it truncates), and
/// a mapping of a file truncated under it can raise `SIGBUS` where the
/// stream returns an [`ArchiveError`] (see [`crate::mmap`]).
pub fn read_snapshot_file(
    path: impl AsRef<std::path::Path>,
    name: &str,
) -> Result<Snapshot, ArchiveError> {
    let file = std::fs::File::open(path)?;
    let r = Archive::from_reader(std::io::BufReader::new(file))?;
    let (version, payload) = r.read_snapshot(name)?;
    Ok(Snapshot {
        name: name.to_string(),
        version,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_snapshot_roundtrips_and_compresses() {
        let path = std::env::temp_dir().join("exaclim_store_snapshot_test.eca1");
        // A payload with plenty of byte runs.
        let payload = format!("{{\"mask\":\"{}\"}}", "0".repeat(20_000)).into_bytes();
        let snap = Snapshot::new("trained_emulator", 2, payload.clone());
        let total = write_snapshot_file(&path, &snap).unwrap();
        assert!(
            (total as usize) < payload.len(),
            "RLE snapshot should compress repetitive bytes: {total} vs {}",
            payload.len()
        );
        let back = read_snapshot_file(&path, "trained_emulator").unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, snap);
    }

    #[test]
    fn missing_member_is_reported() {
        let path = std::env::temp_dir().join("exaclim_store_snapshot_missing.eca1");
        write_snapshot_file(&path, &Snapshot::new("a", 1, b"x".to_vec())).unwrap();
        let err = read_snapshot_file(&path, "b").unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, ArchiveError::MemberNotFound(_)));
    }
}
