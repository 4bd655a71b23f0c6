//! ECA1 constants, member kinds, the error type, and CRC32 (the private
//! `crc` module's slice-by-8 and PCLMULQDQ-folding kernels, re-exported).

pub use crate::crc::{crc32, crc32_update};

/// File magic: the literal bytes `ECA1` at offset 0.
pub const MAGIC: [u8; 4] = *b"ECA1";

/// Container version this crate writes and accepts.
pub const VERSION: u16 = 1;

/// Fixed header size in bytes (magic, version, flags, directory offset,
/// directory length, reserved).
pub const HEADER_LEN: u64 = 32;

/// Upper bound on one chunk's decoded size (1 GiB). The writer refuses to
/// create larger chunks and the reader rejects directories claiming them,
/// which bounds the memory a corrupt or hostile archive can make the
/// reader allocate. Real chunks sit far below this (a 0.25° ERA5 slice is
/// ~8 MB at f64; 32-slice chunks ≈ 256 MB).
pub const MAX_CHUNK_RAW_LEN: u64 = 1 << 30;

/// What a member's payload means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberKind {
    /// Gridded time-series field: chunks decode to `f64` values.
    Field,
    /// Versioned opaque blob (e.g. a trained emulator): chunks decode to
    /// raw bytes.
    Snapshot,
}

impl MemberKind {
    /// Wire id.
    pub fn id(self) -> u8 {
        match self {
            MemberKind::Field => 0,
            MemberKind::Snapshot => 1,
        }
    }

    /// Parse a wire id.
    pub fn from_id(id: u8) -> Result<Self, ArchiveError> {
        match id {
            0 => Ok(MemberKind::Field),
            1 => Ok(MemberKind::Snapshot),
            other => Err(ArchiveError::Corrupt(format!(
                "unknown member kind {other}"
            ))),
        }
    }
}

/// Errors surfaced by the archive subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchiveError {
    /// Underlying I/O failure (message of the `std::io::Error`).
    Io(String),
    /// The stream does not start with the `ECA1` magic.
    BadMagic,
    /// The container version is not supported.
    BadVersion(u16),
    /// Structural damage outside a chunk payload (directory, header,
    /// inconsistent sizes).
    Corrupt(String),
    /// Bytes found after the end of the container.
    TrailingBytes {
        /// Expected container length.
        expected: u64,
        /// Observed stream length.
        actual: u64,
    },
    /// A chunk's payload ends before its recorded length.
    TruncatedChunk {
        /// Owning member.
        member: String,
        /// Chunk index within the member.
        chunk: usize,
    },
    /// A chunk's payload does not match its recorded CRC32.
    ChecksumMismatch {
        /// Owning member.
        member: String,
        /// Chunk index within the member.
        chunk: usize,
    },
    /// The codec id is not known.
    UnknownCodec(u8),
    /// No member with the requested name.
    MemberNotFound(String),
    /// A member with this name already exists in the archive being written.
    DuplicateMember(String),
    /// The caller asked for something inconsistent (bad slice range,
    /// wrong payload cardinality, …).
    BadRequest(String),
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::Io(m) => write!(f, "archive I/O error: {m}"),
            ArchiveError::BadMagic => write!(f, "not an ECA1 archive (bad magic)"),
            ArchiveError::BadVersion(v) => write!(f, "unsupported ECA1 version {v}"),
            ArchiveError::Corrupt(m) => write!(f, "corrupt archive: {m}"),
            ArchiveError::TrailingBytes { expected, actual } => write!(
                f,
                "trailing bytes after container end (container is {expected} bytes, stream is {actual})"
            ),
            ArchiveError::TruncatedChunk { member, chunk } => {
                write!(f, "truncated chunk {chunk} of member `{member}`")
            }
            ArchiveError::ChecksumMismatch { member, chunk } => {
                write!(f, "checksum mismatch in chunk {chunk} of member `{member}`")
            }
            ArchiveError::UnknownCodec(id) => write!(f, "unknown codec id {id}"),
            ArchiveError::MemberNotFound(name) => write!(f, "no member `{name}` in archive"),
            ArchiveError::DuplicateMember(name) => {
                write!(f, "member `{name}` already exists in archive")
            }
            ArchiveError::BadRequest(m) => write!(f, "bad request: {m}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<std::io::Error> for ArchiveError {
    fn from(e: std::io::Error) -> Self {
        ArchiveError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_kind_roundtrip() {
        for k in [MemberKind::Field, MemberKind::Snapshot] {
            assert_eq!(MemberKind::from_id(k.id()).unwrap(), k);
        }
        assert!(matches!(
            MemberKind::from_id(9),
            Err(ArchiveError::Corrupt(_))
        ));
    }
}
