//! Streaming archive writer.
//!
//! Chunks are written to the stream as soon as they fill, so an ensemble
//! member larger than memory can be appended slice-by-slice; the directory
//! is held in memory (a few hundred bytes per member) and written at
//! [`ArchiveWriter::finish`], which then patches the header with its
//! location.

use crate::chunk::{encode_directory_with_crc, ChunkEntry, FieldMeta, MemberEntry};
use crate::codec::{ByteCodec, Codec};
use crate::format::{
    crc32, ArchiveError, MemberKind, HEADER_LEN, MAGIC, MAX_CHUNK_RAW_LEN, VERSION,
};
use bytes::{BufMut, BytesMut};
use std::io::{Seek, SeekFrom, Write};

/// A field member currently being appended to.
struct OpenField {
    entry: MemberEntry,
    codec: Codec,
    /// Pending values not yet forming a full chunk.
    pending: Vec<f64>,
}

/// Streaming ECA1 writer over any `Write + Seek` sink.
///
/// Fields can be appended slice-by-slice; chunks are encoded and flushed
/// as soon as they fill, so peak memory is one chunk regardless of member
/// size:
///
/// ```
/// use exaclim_store::{Archive, ArchiveWriter, Codec, FieldMeta};
/// use std::io::Cursor;
///
/// let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
/// w.begin_field("u10", Codec::F32, FieldMeta::default(), 4, 2).unwrap();
/// for step in 0..5 {
///     let slice = [step as f64; 4]; // one 4-value time slice
///     w.append_slices(&slice).unwrap();
/// }
/// w.finish_field().unwrap();
/// let (cursor, _total) = w.finish().unwrap();
///
/// let r = Archive::from_reader(cursor).unwrap();
/// let m = r.member("u10").unwrap();
/// assert_eq!((m.t_max, m.chunks.len()), (5, 3)); // 2 + 2 + 1 steps
/// assert_eq!(r.read_field_slices("u10", 4..5).unwrap(), [4.0; 4]);
/// ```
pub struct ArchiveWriter<W: Write + Seek> {
    sink: W,
    /// Next payload byte offset.
    pos: u64,
    members: Vec<MemberEntry>,
    open: Option<OpenField>,
}

impl ArchiveWriter<std::io::BufWriter<std::fs::File>> {
    /// Create (truncate) an archive file.
    pub fn create(path: impl AsRef<std::path::Path>) -> Result<Self, ArchiveError> {
        let file = std::fs::File::create(path)?;
        Self::new(std::io::BufWriter::new(file))
    }
}

impl<W: Write + Seek> ArchiveWriter<W> {
    /// Start an archive on `sink`, writing the placeholder header.
    pub fn new(mut sink: W) -> Result<Self, ArchiveError> {
        let mut header = BytesMut::with_capacity(HEADER_LEN as usize);
        header.put_slice(&MAGIC);
        header.put_u16_le(VERSION);
        header.put_u16_le(0); // flags, reserved
        header.put_u64_le(0); // directory offset, patched in finish()
        header.put_u64_le(0); // directory length, patched in finish()
        header.put_u64_le(0); // reserved
        sink.write_all(&header)?;
        Ok(Self {
            sink,
            pos: HEADER_LEN,
            members: Vec::new(),
            open: None,
        })
    }

    fn check_name(&self, name: &str) -> Result<(), ArchiveError> {
        if name.is_empty() || name.len() > u16::MAX as usize {
            return Err(ArchiveError::BadRequest(format!(
                "member name length {} out of range",
                name.len()
            )));
        }
        if self.members.iter().any(|m| m.name == name)
            || self.open.as_ref().is_some_and(|o| o.entry.name == name)
        {
            return Err(ArchiveError::DuplicateMember(name.to_string()));
        }
        Ok(())
    }

    /// Begin a streaming field member. `values_per_slice` is the grid size
    /// of one time slice, `chunk_t` the number of slices per chunk.
    pub fn begin_field(
        &mut self,
        name: &str,
        codec: Codec,
        meta: FieldMeta,
        values_per_slice: usize,
        chunk_t: usize,
    ) -> Result<(), ArchiveError> {
        if self.open.is_some() {
            return Err(ArchiveError::BadRequest(
                "a field member is already open; call finish_field first".to_string(),
            ));
        }
        self.check_name(name)?;
        if values_per_slice == 0 || chunk_t == 0 || chunk_t > u32::MAX as usize {
            return Err(ArchiveError::BadRequest(
                "values_per_slice and chunk_t must be positive (chunk_t ≤ u32::MAX)".to_string(),
            ));
        }
        let chunk_raw = (chunk_t as u64)
            .checked_mul(values_per_slice as u64)
            .and_then(|v| v.checked_mul(codec.value_width() as u64));
        if chunk_raw.is_none_or(|v| v > MAX_CHUNK_RAW_LEN) {
            return Err(ArchiveError::BadRequest(format!(
                "chunk of {chunk_t} × {values_per_slice} values exceeds the \
                 {MAX_CHUNK_RAW_LEN}-byte chunk limit; lower chunk_t"
            )));
        }
        self.open = Some(OpenField {
            entry: MemberEntry {
                name: name.to_string(),
                kind: MemberKind::Field,
                codec: codec.id(),
                snapshot_version: 0,
                meta,
                t_max: 0,
                chunk_t: chunk_t as u32,
                values_per_slice: values_per_slice as u64,
                chunks: Vec::new(),
            },
            codec,
            pending: Vec::new(),
        });
        Ok(())
    }

    /// Append whole time slices (`values.len()` must be a multiple of
    /// `values_per_slice`) to the open field member.
    pub fn append_slices(&mut self, values: &[f64]) -> Result<(), ArchiveError> {
        let open = self.open.as_mut().ok_or_else(|| {
            ArchiveError::BadRequest("no field member open; call begin_field".to_string())
        })?;
        let vps = open.entry.values_per_slice as usize;
        if !values.len().is_multiple_of(vps) {
            return Err(ArchiveError::BadRequest(format!(
                "{} values is not a whole number of {vps}-value slices",
                values.len()
            )));
        }
        let chunk_values = open.entry.chunk_t as usize * vps;
        let mut input = values;
        // Top up a pending partial chunk first (invariant: pending holds
        // less than one chunk between calls).
        if !open.pending.is_empty() {
            let take = (chunk_values - open.pending.len()).min(input.len());
            open.pending.extend_from_slice(&input[..take]);
            input = &input[take..];
            if open.pending.len() == chunk_values {
                let full = std::mem::take(&mut open.pending);
                Self::write_chunk_of(&mut self.sink, &mut self.pos, open, &full)?;
            }
        }
        // Encode full chunks straight out of the caller's slice — no
        // buffering, no per-chunk copies of the remaining tail.
        while input.len() >= chunk_values {
            let (chunk, rest) = input.split_at(chunk_values);
            Self::write_chunk_of(&mut self.sink, &mut self.pos, open, chunk)?;
            input = rest;
        }
        // Buffer only the final partial chunk.
        open.pending.extend_from_slice(input);
        Ok(())
    }

    /// Encode `values` (a whole number of slices) as one chunk of `open`.
    fn write_chunk_of(
        sink: &mut W,
        pos: &mut u64,
        open: &mut OpenField,
        values: &[f64],
    ) -> Result<(), ArchiveError> {
        let vps = open.entry.values_per_slice as usize;
        let t_len = values.len() / vps;
        let stored = open.codec.encode(values);
        sink.write_all(&stored)?;
        open.entry.chunks.push(ChunkEntry {
            offset: *pos,
            stored_len: stored.len() as u64,
            raw_len: (values.len() * open.codec.value_width()) as u64,
            t0: open.entry.t_max,
            t_len: t_len as u32,
            crc32: crc32(&stored),
        });
        open.entry.t_max += t_len as u64;
        *pos += stored.len() as u64;
        Ok(())
    }

    /// Close the open field member, flushing any partial final chunk.
    pub fn finish_field(&mut self) -> Result<(), ArchiveError> {
        let mut open = self
            .open
            .take()
            .ok_or_else(|| ArchiveError::BadRequest("no field member open".to_string()))?;
        if !open.pending.is_empty() {
            let tail = std::mem::take(&mut open.pending);
            Self::write_chunk_of(&mut self.sink, &mut self.pos, &mut open, &tail)?;
        }
        self.members.push(open.entry);
        Ok(())
    }

    /// Convenience: write a complete field member in one call.
    pub fn add_field(
        &mut self,
        name: &str,
        codec: Codec,
        meta: FieldMeta,
        values_per_slice: usize,
        chunk_t: usize,
        data: &[f64],
    ) -> Result<(), ArchiveError> {
        self.begin_field(name, codec, meta, values_per_slice, chunk_t)?;
        self.append_slices(data)?;
        self.finish_field()
    }

    /// Add a versioned snapshot blob, chunked every `chunk_bytes`.
    pub fn add_snapshot(
        &mut self,
        name: &str,
        version: u32,
        codec: ByteCodec,
        payload: &[u8],
        chunk_bytes: usize,
    ) -> Result<(), ArchiveError> {
        if self.open.is_some() {
            return Err(ArchiveError::BadRequest(
                "a field member is open; call finish_field first".to_string(),
            ));
        }
        self.check_name(name)?;
        if chunk_bytes == 0 || chunk_bytes as u64 > MAX_CHUNK_RAW_LEN {
            return Err(ArchiveError::BadRequest(format!(
                "chunk_bytes must be positive and ≤ {MAX_CHUNK_RAW_LEN}"
            )));
        }
        let mut entry = MemberEntry {
            name: name.to_string(),
            kind: MemberKind::Snapshot,
            codec: codec.id(),
            snapshot_version: version,
            meta: FieldMeta::default(),
            t_max: payload.len() as u64,
            chunk_t: chunk_bytes as u32,
            values_per_slice: 0,
            chunks: Vec::new(),
        };
        let mut t0 = 0u64;
        // `chunks(…)` never yields an empty slice, so an empty payload
        // stores zero chunks and decodes back to an empty blob.
        for part in payload.chunks(chunk_bytes) {
            let stored = codec.encode(part);
            self.sink.write_all(&stored)?;
            entry.chunks.push(ChunkEntry {
                offset: self.pos,
                stored_len: stored.len() as u64,
                raw_len: part.len() as u64,
                t0,
                t_len: part.len() as u32,
                crc32: crc32(&stored),
            });
            t0 += part.len() as u64;
            self.pos += stored.len() as u64;
        }
        self.members.push(entry);
        Ok(())
    }

    /// Bytes of payload written so far (excluding header and directory).
    pub fn payload_bytes(&self) -> u64 {
        self.pos - HEADER_LEN
    }

    /// Write the directory, patch the header, flush, and return the sink.
    /// The total container length is the returned value.
    pub fn finish(mut self) -> Result<(W, u64), ArchiveError> {
        if self.open.is_some() {
            return Err(ArchiveError::BadRequest(
                "a field member is still open; call finish_field first".to_string(),
            ));
        }
        let dir = encode_directory_with_crc(&self.members);
        let dir_offset = self.pos;
        let dir_len = (dir.len() - 4) as u64; // directory proper, sans CRC
        self.sink.write_all(&dir)?;
        self.sink.seek(SeekFrom::Start(8))?;
        let mut patch = BytesMut::with_capacity(16);
        patch.put_u64_le(dir_offset);
        patch.put_u64_le(dir_len);
        self.sink.write_all(&patch)?;
        self.sink.flush()?;
        let total = dir_offset + dir_len + 4;
        Ok((self.sink, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn streaming_appends_match_one_shot() {
        let meta = FieldMeta {
            ntheta: 3,
            nphi: 4,
            start_year: 2000,
            tau: 365,
        };
        let data: Vec<f64> = (0..12 * 10).map(|i| i as f64 * 0.25).collect();

        let mut one = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
        one.add_field("x", Codec::Raw64, meta, 12, 4, &data)
            .unwrap();
        let (one, len_one) = one.finish().unwrap();

        let mut streamed = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
        streamed
            .begin_field("x", Codec::Raw64, meta, 12, 4)
            .unwrap();
        for slice in data.chunks(12) {
            streamed.append_slices(slice).unwrap();
        }
        streamed.finish_field().unwrap();
        let (streamed, len_streamed) = streamed.finish().unwrap();

        assert_eq!(one.into_inner(), streamed.into_inner());
        assert_eq!(len_one, len_streamed);
    }

    #[test]
    fn partial_final_chunk_is_flushed() {
        let meta = FieldMeta::default();
        let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
        w.begin_field("x", Codec::Raw64, meta, 2, 4).unwrap();
        w.append_slices(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap(); // 3 slices
        w.finish_field().unwrap();
        assert_eq!(w.members[0].chunks.len(), 1);
        assert_eq!(w.members[0].t_max, 3);
        assert_eq!(w.members[0].chunks[0].t_len, 3);
    }

    #[test]
    fn guards_reject_misuse() {
        let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
        assert!(matches!(
            w.append_slices(&[0.0]),
            Err(ArchiveError::BadRequest(_))
        ));
        w.begin_field("x", Codec::F32, FieldMeta::default(), 4, 2)
            .unwrap();
        assert!(matches!(
            w.begin_field("y", Codec::F32, FieldMeta::default(), 4, 2),
            Err(ArchiveError::BadRequest(_))
        ));
        assert!(matches!(
            w.append_slices(&[0.0; 3]),
            Err(ArchiveError::BadRequest(_))
        ));
        w.finish_field().unwrap();
        assert!(matches!(
            w.add_field("x", Codec::F32, FieldMeta::default(), 1, 1, &[0.0]),
            Err(ArchiveError::DuplicateMember(_))
        ));
    }

    #[test]
    fn empty_snapshot_is_representable() {
        let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
        w.add_snapshot("s", 1, ByteCodec::Raw, &[], 1024).unwrap();
        assert_eq!(w.members[0].chunks.len(), 0);
        assert_eq!(w.members[0].t_max, 0);
        w.finish().unwrap();
    }
}
