//! Random-access archive reads over any [`ChunkSource`].
//!
//! Opening an [`Archive`] reads only the 32-byte header and the
//! directory, which is parsed and validated once; payload chunks are
//! fetched (and checksum-verified) on demand, so a `(member, time-range)`
//! slice touches exactly the chunks that overlap the range. Every read
//! method takes `&self` and may run from any number of threads at once. How concurrent reads behave is entirely the source's property —
//! a memory map or in-memory buffer serves borrowed, lock-free views
//! ([`SourceBytes::Borrowed`]); a wrapped stream serializes reads on its
//! internal mutex and hands out owned buffers.
//!
//! Chunk payloads remain checksum-verified on **every** fetch, whatever
//! the backend: a flipped bit in a mapped page is detected exactly like a
//! corrupt read from a stream.

use crate::chunk::MemberEntry;
use crate::codec::{ByteCodec, Codec};
use crate::format::{
    crc32, ArchiveError, MemberKind, HEADER_LEN, MAGIC, MAX_CHUNK_RAW_LEN, VERSION,
};
use crate::mmap::open_file_source;
use crate::source::{ChunkSource, LockedReader, SharedBytes, SourceBytes};
use bytes::{Buf, Bytes};
use std::ops::Range;

/// Structural validation of an untrusted directory, before anything is
/// allocated from its fields: every chunk must lie inside the payload
/// region, decode to a bounded size consistent with its member's
/// geometry, and the chunks of each member must tile `[0, t_max)`
/// contiguously. After this check, read paths may trust member/chunk
/// arithmetic.
pub(crate) fn validate_members(
    members: &[MemberEntry],
    dir_offset: u64,
) -> Result<(), ArchiveError> {
    for m in members {
        let corrupt = |what: String| ArchiveError::Corrupt(format!("member `{}`: {what}", m.name));
        match m.kind {
            MemberKind::Field => {
                let codec = Codec::from_id(m.codec)?;
                if m.t_max > 0 && m.values_per_slice == 0 {
                    return Err(corrupt("zero values per slice".to_string()));
                }
                let width = codec.value_width() as u64;
                let mut next_t0 = 0u64;
                for (i, c) in m.chunks.iter().enumerate() {
                    if c.t0 != next_t0 {
                        return Err(corrupt(format!(
                            "chunk {i} starts at step {} (expected {next_t0})",
                            c.t0
                        )));
                    }
                    let expect_raw = u64::from(c.t_len)
                        .checked_mul(m.values_per_slice)
                        .and_then(|v| v.checked_mul(width));
                    if expect_raw != Some(c.raw_len) {
                        return Err(corrupt(format!(
                            "chunk {i} records raw_len {} for {} slices",
                            c.raw_len, c.t_len
                        )));
                    }
                    next_t0 += u64::from(c.t_len);
                }
                if next_t0 != m.t_max {
                    return Err(corrupt(format!(
                        "chunks cover {next_t0} steps, directory records {}",
                        m.t_max
                    )));
                }
            }
            MemberKind::Snapshot => {
                ByteCodec::from_id(m.codec)?;
                let mut next_t0 = 0u64;
                for (i, c) in m.chunks.iter().enumerate() {
                    if c.t0 != next_t0 || c.raw_len != u64::from(c.t_len) {
                        return Err(corrupt(format!("chunk {i} is not a contiguous byte run")));
                    }
                    next_t0 += u64::from(c.t_len);
                }
                if next_t0 != m.t_max {
                    return Err(corrupt(format!(
                        "chunks cover {next_t0} bytes, directory records {}",
                        m.t_max
                    )));
                }
            }
        }
        for (i, c) in m.chunks.iter().enumerate() {
            let end = c.offset.checked_add(c.stored_len);
            if c.offset < HEADER_LEN || end.is_none() || end.unwrap() > dir_offset {
                return Err(ArchiveError::TruncatedChunk {
                    member: m.name.clone(),
                    chunk: i,
                });
            }
            if c.raw_len > MAX_CHUNK_RAW_LEN {
                return Err(ArchiveError::Corrupt(format!(
                    "member `{}`: chunk {i} claims {} decoded bytes (limit {})",
                    m.name, c.raw_len, MAX_CHUNK_RAW_LEN
                )));
            }
        }
    }
    Ok(())
}

/// A boxed source, for archives whose backend is chosen at run time
/// (mapped file, buffered stream or in-memory bytes).
pub type DynSource = Box<dyn ChunkSource + Send + Sync>;

/// An ECA1 archive opened for shared (`&self`) reads over a
/// [`ChunkSource`].
///
/// ```
/// use exaclim_store::{Archive, ArchiveWriter, Codec, FieldMeta};
/// use std::io::Cursor;
///
/// let data: Vec<f64> = (0..6 * 10).map(|i| 280.0 + i as f64).collect();
/// let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
/// w.add_field("t2m", Codec::F32, FieldMeta::default(), 6, 4, &data).unwrap();
/// let (cursor, _) = w.finish().unwrap();
///
/// // In-memory archives serve borrowed, lock-free chunk views.
/// let archive = Archive::from_bytes(cursor.into_inner()).unwrap();
/// let slice = archive.read_field_slices("t2m", 3..7).unwrap();
/// assert_eq!(slice.len(), 4 * 6);
/// assert!(archive.read_chunk_stored(0, 0).unwrap().is_borrowed());
/// ```
pub struct Archive<S = DynSource> {
    source: S,
    members: Vec<MemberEntry>,
    /// Container length recorded by the directory (header + payload +
    /// directory + CRC).
    total_len: u64,
}

impl<S: ChunkSource> std::fmt::Debug for Archive<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Archive")
            .field("members", &self.members.len())
            .field("total_len", &self.total_len)
            .field("backend", &self.source.backend())
            .finish()
    }
}

impl Archive<DynSource> {
    /// Open the archive file at `path`, memory-mapping it where the
    /// platform supports it ([`crate::MMAP_SUPPORTED`]) and reading it
    /// through a buffered reader behind a mutex elsewhere. For the
    /// buffered path on any platform, hand a `BufReader<File>` to
    /// [`Archive::from_reader`].
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, ArchiveError> {
        Self::from_source(open_file_source(path)?)
    }

    /// Open an in-memory archive (zero-copy, lock-free reads).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, ArchiveError> {
        Self::from_source(Box::new(SharedBytes::from(bytes)))
    }

    /// Open an archive over any seekable stream (reads serialize on an
    /// internal mutex and return owned buffers).
    pub fn from_reader<R>(stream: R) -> Result<Self, ArchiveError>
    where
        R: std::io::Read + std::io::Seek + Send + 'static,
    {
        Self::from_source(Box::new(LockedReader::new(stream)?))
    }
}

impl<S: ChunkSource> Archive<S> {
    /// Validate the header, load and verify the directory.
    pub fn from_source(source: S) -> Result<Self, ArchiveError> {
        let stream_len = source.len();
        if stream_len < HEADER_LEN {
            return Err(ArchiveError::Corrupt(format!(
                "stream is {stream_len} bytes, shorter than the {HEADER_LEN}-byte header"
            )));
        }
        let header_buf = source.read_at(0, HEADER_LEN as usize)?;
        let mut header: &[u8] = &header_buf;
        let mut magic = [0u8; 4];
        header.copy_to_slice(&mut magic);
        if magic != MAGIC {
            return Err(ArchiveError::BadMagic);
        }
        let version = header.get_u16_le();
        if version != VERSION {
            return Err(ArchiveError::BadVersion(version));
        }
        let _flags = header.get_u16_le();
        let dir_offset = header.get_u64_le();
        let dir_len = header.get_u64_le();
        let total = dir_offset
            .checked_add(dir_len)
            .and_then(|v| v.checked_add(4))
            .filter(|_| dir_offset >= HEADER_LEN);
        let Some(total_len) = total else {
            return Err(ArchiveError::Corrupt(
                "directory offset/length out of range (unfinished archive?)".to_string(),
            ));
        };
        if stream_len < total_len {
            return Err(ArchiveError::Corrupt(format!(
                "stream is {stream_len} bytes but the directory needs {total_len}"
            )));
        }
        if stream_len > total_len {
            return Err(ArchiveError::TrailingBytes {
                expected: total_len,
                actual: stream_len,
            });
        }
        let mut dir = source.read_at(dir_offset, dir_len as usize + 4)?.into_vec();
        let crc_stored = u32::from_le_bytes(dir[dir_len as usize..].try_into().unwrap());
        dir.truncate(dir_len as usize);
        if crc32(&dir) != crc_stored {
            return Err(ArchiveError::Corrupt(
                "directory checksum mismatch".to_string(),
            ));
        }
        let members = crate::chunk::decode_directory(Bytes::from(dir))?;
        validate_members(&members, dir_offset)?;
        Ok(Self {
            source,
            members,
            total_len,
        })
    }

    /// All members, in write order.
    pub fn members(&self) -> &[MemberEntry] {
        &self.members
    }

    /// Total container length in bytes.
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Short label of the byte-source backend ("mmap", "bytes", "stream").
    pub fn backend(&self) -> &'static str {
        self.source.backend()
    }

    /// True when chunk fetches are borrowed views served without locking
    /// (memory map, in-memory buffer) rather than copies read under a
    /// mutex.
    pub fn is_zero_copy(&self) -> bool {
        self.source.is_zero_copy()
    }

    /// Look up a member by name.
    pub fn member(&self, name: &str) -> Result<&MemberEntry, ArchiveError> {
        self.members
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| ArchiveError::MemberNotFound(name.to_string()))
    }

    /// Member index by name.
    pub fn member_index(&self, name: &str) -> Result<usize, ArchiveError> {
        self.members
            .iter()
            .position(|m| m.name == name)
            .ok_or_else(|| ArchiveError::MemberNotFound(name.to_string()))
    }

    /// Bounds-check a `(member, chunk)` index pair from an external caller.
    fn check_chunk_indices(&self, member_idx: usize, chunk_idx: usize) -> Result<(), ArchiveError> {
        let Some(m) = self.members.get(member_idx) else {
            return Err(ArchiveError::BadRequest(format!(
                "member index {member_idx} out of range ({} members)",
                self.members.len()
            )));
        };
        if chunk_idx >= m.chunks.len() {
            return Err(ArchiveError::BadRequest(format!(
                "chunk index {chunk_idx} out of range for member `{}` ({} chunks)",
                m.name,
                m.chunks.len()
            )));
        }
        Ok(())
    }

    /// Fetch and checksum-verify the **stored** (possibly compressed)
    /// bytes of one chunk, without decoding them.
    ///
    /// This is the raw-fetch primitive the serving layer builds on. Over a
    /// zero-copy source the returned [`SourceBytes`] borrows straight from
    /// the mapping — no lock is taken and nothing is copied; over a
    /// [`LockedReader`] the read serializes on the source's mutex and an
    /// owned buffer comes back. Either way the CRC32 of the stored bytes
    /// is verified before they are returned, so a caller can never observe
    /// torn or corrupted payloads.
    pub fn read_chunk_stored(
        &self,
        member_idx: usize,
        chunk_idx: usize,
    ) -> Result<SourceBytes<'_>, ArchiveError> {
        self.check_chunk_indices(member_idx, chunk_idx)?;
        self.read_chunk_stored_unchecked(member_idx, chunk_idx)
    }

    /// [`Archive::read_chunk_stored`] for indices already known to be in
    /// range (internal read paths iterate validated directories).
    fn read_chunk_stored_unchecked(
        &self,
        member_idx: usize,
        chunk_idx: usize,
    ) -> Result<SourceBytes<'_>, ArchiveError> {
        let m = &self.members[member_idx];
        let c = m.chunks[chunk_idx];
        let stored = self
            .source
            .read_at(c.offset, c.stored_len as usize)
            .map_err(|e| match e {
                ArchiveError::Io(_) => ArchiveError::TruncatedChunk {
                    member: m.name.clone(),
                    chunk: chunk_idx,
                },
                other => other,
            })?;
        if crc32(&stored) != c.crc32 {
            return Err(ArchiveError::ChecksumMismatch {
                member: m.name.clone(),
                chunk: chunk_idx,
            });
        }
        Ok(stored)
    }

    /// Read, checksum-verify, and decode **all** values of one field chunk
    /// (`chunks[chunk_idx].t_len × values_per_slice` values, time-major).
    ///
    /// This is the unit a chunk cache stores: whole decoded chunks keyed by
    /// `(member, chunk)`, from which any overlapping time-range slice can
    /// be assembled without touching the source again.
    pub fn read_field_chunk(
        &self,
        member_idx: usize,
        chunk_idx: usize,
    ) -> Result<Vec<f64>, ArchiveError> {
        self.check_chunk_indices(member_idx, chunk_idx)?;
        self.decode_field_chunk(member_idx, chunk_idx)
    }

    /// Decode all values of one field chunk (indices already validated).
    fn decode_field_chunk(
        &self,
        member_idx: usize,
        chunk_idx: usize,
    ) -> Result<Vec<f64>, ArchiveError> {
        let m = &self.members[member_idx];
        if m.kind != MemberKind::Field {
            return Err(ArchiveError::BadRequest(format!(
                "member `{}` is not a field",
                m.name
            )));
        }
        let codec = Codec::from_id(m.codec)?;
        let c = m.chunks[chunk_idx];
        let n_values = c.t_len as usize * m.values_per_slice as usize;
        if c.raw_len != (n_values * codec.value_width()) as u64 {
            return Err(ArchiveError::Corrupt(format!(
                "chunk {chunk_idx} of `{}` records raw_len {} for {n_values} values",
                m.name, c.raw_len
            )));
        }
        let stored = self.read_chunk_stored_unchecked(member_idx, chunk_idx)?;
        codec.decode(&stored, n_values)
    }

    /// Read time slices `range` of a field member, without touching
    /// chunks outside the range. Returns `(t1 − t0) × values_per_slice`
    /// values, time-major.
    pub fn read_field_slices(
        &self,
        name: &str,
        range: Range<u64>,
    ) -> Result<Vec<f64>, ArchiveError> {
        let member_idx = self.member_index(name)?;
        let m = &self.members[member_idx];
        if m.kind != MemberKind::Field {
            return Err(ArchiveError::BadRequest(format!(
                "member `{name}` is not a field"
            )));
        }
        if range.start > range.end || range.end > m.t_max {
            return Err(ArchiveError::BadRequest(format!(
                "slice range {}..{} out of bounds for {} time steps",
                range.start, range.end, m.t_max
            )));
        }
        let vps = m.values_per_slice as usize;
        // Chunks tile the member contiguously (validated at open), so the
        // overlapping chunks arrive in time order and concatenating their
        // in-range parts assembles the slice. Growing the buffer from
        // decoded data (rather than pre-allocating from directory fields)
        // bounds memory by what the payload actually decodes to.
        let mut out: Vec<f64> = Vec::new();
        for chunk_idx in m.chunks_for_range(range.start, range.end) {
            let c = m.chunks[chunk_idx];
            let values = self.decode_field_chunk(member_idx, chunk_idx)?;
            let lo = range.start.max(c.t0);
            let hi = range.end.min(c.t0 + u64::from(c.t_len));
            let a = (lo - c.t0) as usize * vps;
            let b = (hi - c.t0) as usize * vps;
            out.extend_from_slice(&values[a..b]);
        }
        debug_assert_eq!(out.len(), (range.end - range.start) as usize * vps);
        Ok(out)
    }

    /// Read every time slice of a field member.
    pub fn read_field_all(&self, name: &str) -> Result<Vec<f64>, ArchiveError> {
        let t_max = self.member(name)?.t_max;
        self.read_field_slices(name, 0..t_max)
    }

    /// Read a snapshot blob, returning `(schema_version, payload)`.
    pub fn read_snapshot(&self, name: &str) -> Result<(u32, Vec<u8>), ArchiveError> {
        let member_idx = self.member_index(name)?;
        let m = &self.members[member_idx];
        if m.kind != MemberKind::Snapshot {
            return Err(ArchiveError::BadRequest(format!(
                "member `{name}` is not a snapshot"
            )));
        }
        let codec = ByteCodec::from_id(m.codec)?;
        let version = m.snapshot_version;
        let total = m.t_max as usize;
        // Decode every chunk straight into the result buffer; `total`
        // comes from the directory and is only trusted as a final
        // consistency check.
        let mut out = Vec::new();
        for chunk_idx in 0..m.chunks.len() {
            let c = m.chunks[chunk_idx];
            let stored = self.read_chunk_stored_unchecked(member_idx, chunk_idx)?;
            codec.decode_into(&stored, c.raw_len as usize, &mut out)?;
        }
        if out.len() != total {
            return Err(ArchiveError::Corrupt(format!(
                "snapshot `{name}` decodes to {} bytes, directory records {total}",
                out.len()
            )));
        }
        Ok((version, out))
    }

    /// Verify every chunk checksum in the archive.
    pub fn verify(&self) -> Result<(), ArchiveError> {
        for member_idx in 0..self.members.len() {
            for chunk_idx in 0..self.members[member_idx].chunks.len() {
                self.read_chunk_stored_unchecked(member_idx, chunk_idx)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::FieldMeta;
    use crate::writer::ArchiveWriter;
    use std::io::Cursor;

    fn smooth(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 280.0 + 10.0 * (i as f64 * 0.02).sin())
            .collect()
    }

    fn build(codec: Codec) -> (Vec<u8>, Vec<f64>) {
        let meta = FieldMeta {
            ntheta: 4,
            nphi: 5,
            start_year: 1990,
            tau: 365,
        };
        let data = smooth(20 * 17); // 17 slices of 20 values, chunk_t 5
        let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
        w.add_field("t2m", codec, meta, 20, 5, &data).unwrap();
        w.add_snapshot("model", 3, ByteCodec::Rle, b"{\"k\":[1,2,3]}", 8)
            .unwrap();
        let (cursor, total) = w.finish().unwrap();
        let raw = cursor.into_inner();
        assert_eq!(raw.len() as u64, total);
        (raw, data)
    }

    #[test]
    fn shared_archive_reads_match_for_all_codecs() {
        for codec in Codec::ALL {
            let (raw, data) = build(codec);
            let archive = Archive::from_bytes(raw).unwrap();
            assert!(archive.is_zero_copy());
            assert_eq!(archive.backend(), "bytes");
            let expect: Vec<f64> = data.iter().map(|&x| codec.quantize(x)).collect();
            assert_eq!(archive.read_field_all("t2m").unwrap(), expect);
            let part = archive.read_field_slices("t2m", 4..11).unwrap();
            assert_eq!(part, expect[4 * 20..11 * 20]);
            let (version, blob) = archive.read_snapshot("model").unwrap();
            assert_eq!(
                (version, blob.as_slice()),
                (3, b"{\"k\":[1,2,3]}".as_slice())
            );
            archive.verify().unwrap();
        }
    }

    #[test]
    fn stored_chunk_views_borrow_from_shared_bytes() {
        let (raw, _) = build(Codec::F32Shuffle);
        let archive = Archive::from_bytes(raw).unwrap();
        let view = archive.read_chunk_stored(0, 0).unwrap();
        assert!(view.is_borrowed(), "in-memory fetches must be zero-copy");
    }

    #[test]
    fn reader_backed_archive_reads_owned_buffers() {
        let (raw, data) = build(Codec::Raw64);
        let archive = Archive::from_reader(Cursor::new(raw)).unwrap();
        assert!(!archive.is_zero_copy());
        assert_eq!(archive.backend(), "stream");
        assert!(!archive.read_chunk_stored(0, 0).unwrap().is_borrowed());
        assert_eq!(archive.read_field_all("t2m").unwrap(), data);
    }

    #[test]
    fn concurrent_shared_reads_are_bit_identical() {
        let (raw, data) = build(Codec::F32);
        let archive = std::sync::Arc::new(Archive::from_bytes(raw).unwrap());
        let expect: Vec<f64> = data.iter().map(|&x| Codec::F32.quantize(x)).collect();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let archive = std::sync::Arc::clone(&archive);
                let expect = expect.clone();
                std::thread::spawn(move || {
                    for _ in 0..8 {
                        let lo = (i * 3) as u64;
                        let got = archive.read_field_slices("t2m", lo..17).unwrap();
                        assert_eq!(got, expect[lo as usize * 20..]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[cfg(all(unix, target_pointer_width = "64"))]
    #[test]
    fn mapped_and_buffered_file_opens_agree() {
        let (raw, _) = build(Codec::F16Shuffle);
        let path =
            std::env::temp_dir().join(format!("exaclim_archive_open_{}.eca1", std::process::id()));
        std::fs::write(&path, &raw).unwrap();
        let mapped = Archive::open(&path).unwrap();
        let buffered =
            Archive::from_reader(std::io::BufReader::new(std::fs::File::open(&path).unwrap()))
                .unwrap();
        assert_eq!(mapped.backend(), "mmap");
        assert_eq!(buffered.backend(), "stream");
        assert_eq!(
            mapped.read_field_all("t2m").unwrap(),
            buffered.read_field_all("t2m").unwrap()
        );
        assert_eq!(
            mapped.read_snapshot("model").unwrap(),
            buffered.read_snapshot("model").unwrap()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_chunk_is_detected_through_any_source() {
        let (mut raw, _) = build(Codec::F32);
        let chunk = Archive::from_bytes(raw.clone()).unwrap().members()[0].chunks[1];
        // Long enough for the folding CRC kernel; the flip is in its first
        // folded block.
        assert!(chunk.stored_len >= 128, "{}", chunk.stored_len);
        raw[chunk.offset as usize + 2] ^= 0x10;
        let archive = Archive::from_bytes(raw).unwrap();
        assert!(archive.read_field_slices("t2m", 0..5).is_ok());
        assert_eq!(
            archive.read_field_all("t2m").unwrap_err(),
            ArchiveError::ChecksumMismatch {
                member: "t2m".to_string(),
                chunk: 1
            }
        );
        assert!(archive.verify().is_err());
    }

    #[test]
    fn full_and_sliced_reads_roundtrip() {
        for codec in Codec::ALL {
            let (raw, data) = build(codec);
            let r = Archive::from_reader(Cursor::new(raw)).unwrap();
            let m = r.member("t2m").unwrap();
            assert_eq!(m.t_max, 17);
            assert_eq!(m.chunks.len(), 4); // 5+5+5+2
            let all = r.read_field_all("t2m").unwrap();
            let expect: Vec<f64> = data.iter().map(|&x| codec.quantize(x)).collect();
            assert_eq!(all, expect, "{}", codec.label());
            // A slice crossing a chunk boundary.
            let part = r.read_field_slices("t2m", 4..11).unwrap();
            assert_eq!(part, expect[4 * 20..11 * 20]);
            // Snapshot back.
            let (version, blob) = r.read_snapshot("model").unwrap();
            assert_eq!(version, 3);
            assert_eq!(blob, b"{\"k\":[1,2,3]}");
            r.verify().unwrap();
        }
    }

    #[test]
    fn bad_magic_and_version_are_detected() {
        let (mut raw, _) = build(Codec::F32);
        let pristine = raw.clone();
        raw[0] = b'X';
        assert!(matches!(
            Archive::from_reader(Cursor::new(raw)).unwrap_err(),
            ArchiveError::BadMagic
        ));
        let mut raw = pristine.clone();
        raw[4] = 99;
        assert!(matches!(
            Archive::from_reader(Cursor::new(raw)).unwrap_err(),
            ArchiveError::BadVersion(99)
        ));
        let mut short = pristine.clone();
        short.truncate(10);
        assert!(matches!(
            Archive::from_reader(Cursor::new(short)).unwrap_err(),
            ArchiveError::Corrupt(_)
        ));
    }

    #[test]
    fn flipped_payload_byte_fails_checksum_only_for_its_chunk() {
        let (mut raw, _) = build(Codec::F32);
        // Flip one byte inside the second chunk of `t2m`.
        let (off, t0) = {
            let r = Archive::from_reader(Cursor::new(raw.clone())).unwrap();
            let c = r.member("t2m").unwrap().chunks[1];
            (c.offset as usize, c.t0)
        };
        raw[off + 3] ^= 0x40;
        let r = Archive::from_reader(Cursor::new(raw)).unwrap();
        // Chunk 0 still reads fine.
        let ok = r.read_field_slices("t2m", 0..t0).unwrap();
        assert_eq!(ok.len() as u64, t0 * 20);
        // Any read touching chunk 1 reports the checksum failure.
        let err = r.read_field_all("t2m").unwrap_err();
        assert_eq!(
            err,
            ArchiveError::ChecksumMismatch {
                member: "t2m".to_string(),
                chunk: 1
            }
        );
        assert!(r.verify().is_err());
    }

    #[test]
    fn overflowing_directory_offsets_are_corrupt() {
        // dir_offset + dir_len passes a single checked_add but the +4 for
        // the CRC would overflow: must error, not panic.
        let mut raw = Vec::new();
        raw.extend_from_slice(b"ECA1");
        raw.extend_from_slice(&1u16.to_le_bytes());
        raw.extend_from_slice(&0u16.to_le_bytes());
        raw.extend_from_slice(&(u64::MAX - 5).to_le_bytes()); // dir offset
        raw.extend_from_slice(&2u64.to_le_bytes()); // dir len
        raw.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            Archive::from_reader(Cursor::new(raw)).unwrap_err(),
            ArchiveError::Corrupt(_)
        ));
    }

    #[test]
    fn truncated_and_trailing_streams_are_detected() {
        let (raw, _) = build(Codec::Raw64);
        let mut long = raw.clone();
        long.extend_from_slice(b"garbage");
        assert!(matches!(
            Archive::from_reader(Cursor::new(long)).unwrap_err(),
            ArchiveError::TrailingBytes { .. }
        ));
        let mut short = raw.clone();
        short.truncate(raw.len() - 3);
        assert!(matches!(
            Archive::from_reader(Cursor::new(short)).unwrap_err(),
            ArchiveError::Corrupt(_)
        ));
    }

    #[test]
    fn hostile_directories_are_rejected_before_allocation() {
        use crate::chunk::ChunkEntry;
        // Writer refuses chunks beyond the decoded-size limit.
        let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
        assert!(matches!(
            w.begin_field("x", Codec::Raw64, FieldMeta::default(), 1 << 27, 1 << 27),
            Err(ArchiveError::BadRequest(_))
        ));
        // A directory claiming huge t_max with no chunks backing it.
        let phantom = MemberEntry {
            name: "phantom".to_string(),
            kind: MemberKind::Field,
            codec: Codec::Raw64.id(),
            snapshot_version: 0,
            meta: crate::chunk::FieldMeta::default(),
            t_max: 1 << 20,
            chunk_t: 1,
            values_per_slice: 1 << 40,
            chunks: vec![],
        };
        assert!(matches!(
            validate_members(std::slice::from_ref(&phantom), 1000),
            Err(ArchiveError::Corrupt(_))
        ));
        // A self-consistent chunk whose decoded size exceeds the limit.
        let giant = MemberEntry {
            t_max: 1,
            values_per_slice: 1 << 30,
            chunks: vec![ChunkEntry {
                offset: 32,
                stored_len: 10,
                raw_len: (1u64 << 30) * 8,
                t0: 0,
                t_len: 1,
                crc32: 0,
            }],
            ..phantom.clone()
        };
        assert!(matches!(
            validate_members(&[giant], 1000),
            Err(ArchiveError::Corrupt(_))
        ));
        // Non-contiguous chunks (a gap in time coverage).
        let gappy = MemberEntry {
            t_max: 4,
            values_per_slice: 1,
            chunks: vec![
                ChunkEntry {
                    offset: 32,
                    stored_len: 16,
                    raw_len: 16,
                    t0: 0,
                    t_len: 2,
                    crc32: 0,
                },
                ChunkEntry {
                    offset: 48,
                    stored_len: 8,
                    raw_len: 8,
                    t0: 3,
                    t_len: 1,
                    crc32: 0,
                },
            ],
            ..phantom
        };
        assert!(matches!(
            validate_members(&[gappy], 1000),
            Err(ArchiveError::Corrupt(_))
        ));
    }

    #[test]
    fn out_of_range_requests_are_bad_requests() {
        let (raw, _) = build(Codec::F32);
        let r = Archive::from_reader(Cursor::new(raw)).unwrap();
        assert!(matches!(
            r.read_field_slices("t2m", 5..100),
            Err(ArchiveError::BadRequest(_))
        ));
        assert!(matches!(
            r.read_field_slices("nope", 0..1),
            Err(ArchiveError::MemberNotFound(_))
        ));
        assert!(matches!(
            r.read_snapshot("t2m"),
            Err(ArchiveError::BadRequest(_))
        ));
    }
}
