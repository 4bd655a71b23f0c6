//! The ECN1 wire protocol: framed, checksummed request/response encoding
//! for the network front end.
//!
//! The protocol is deliberately dependency-free (plain `std`, no serde on
//! the wire) and mirrors the hostile-input discipline of the `ECA1`
//! container in `exaclim-store`: every frame is length-prefixed **and**
//! capped ([`MAX_FRAME_PAYLOAD`]), every payload is CRC32-protected (the
//! same [`exaclim_store::crc32`] the archives use, folded with PCLMULQDQ
//! where the CPU has it), and the decoder validates every length claim
//! against the bytes actually present *before* allocating — a hostile
//! peer can waste its own bandwidth, not this process's memory.
//!
//! ## Frame layout
//!
//! Every message is one frame; all integers are little-endian:
//!
//! ```text
//! offset  size  field
//! 0       4     magic, the literal bytes "ECN1"
//! 4       1     protocol version (always VERSION = 4)
//! 5       1     frame kind: 1 = request batch, 3 = error,
//!               4 = response fragment (id 2 is retired)
//! 6       2     kinds 1 and 3: reserved, must be zero
//!               kind 4: stream position — bits 0..15 are the fragment
//!               sequence number, bit 15 is the FIN flag
//! 8       8     frame id (echoed verbatim in the matching response)
//! 16      4     payload length in bytes (≤ MAX_FRAME_PAYLOAD)
//! 20      4     CRC32 of the payload bytes
//! 24      …     payload
//! ```
//!
//! There is one protocol version: a header carrying any other version is
//! rejected with [`WireError::Version`] before any payload is read.
//!
//! A **request** frame's payload is a batch: a `u32` count followed by
//! that many encoded [`Request`]s. The **response** echoes the frame id
//! and carries one encoded `Result<Response, ServeError>` per request, in
//! request order — the wire analogue of [`crate::Server::handle_batch`].
//! Every response is a **stream** of one or more `Stream` fragments. The
//! header's position word ([`StreamPos`]) carries a 15-bit sequence
//! number starting at 0 and a FIN flag on the final fragment; a response
//! that fits one fragment is a single frame at seq 0 with FIN set.
//! Concatenating the fragments' CRC-checked payloads in sequence order
//! yields **exactly** the [`encode_response_batch`] payload — the
//! fragmentation is invisible above [`decode_response_batch`]. An
//! **error** frame reports a transport-level failure (malformed frame,
//! version mismatch) and is terminal for the connection.
//!
//! Frame ids are chosen by the client (monotonically increasing in
//! [`crate::net::Client`]) and let requests pipeline: a client may write
//! several request frames before reading the first response; the server
//! answers in arrival order. Fragments of two responses never interleave
//! on one connection ([`WireError::StreamInterleaved`]).
//!
//! ## Zero-copy response bodies
//!
//! A response payload is represented as a [`ResponseBody`]: a list of
//! segments that are either small owned metadata buffers or **borrowed
//! value ranges** — shared `Arc<[f64]>` views of decoded cache chunks
//! (the same allocations the chunk cache holds for mmap-backed archives)
//! or value vectors moved out of the responses themselves. On
//! little-endian targets the wire form of an `f64` array *is* its
//! memory, so [`FrameStream`] can gather each frame's header and
//! borrowed payload slices into one vectored `writev` without ever
//! materializing the payload; per-fragment CRCs are computed
//! incrementally over the scattered parts
//! ([`exaclim_store::crc32_update`]).
//!
//! ## Example
//!
//! A request batch survives an encode/decode round trip bit-identically:
//!
//! ```
//! use exaclim_serve::wire::{self, FrameKind};
//! use exaclim_serve::{Request, SliceRequest};
//!
//! let batch = vec![
//!     Request::Slice(SliceRequest {
//!         archive: "era5".to_string(),
//!         member: "t2m".to_string(),
//!         range: 10..20,
//!     }),
//!     Request::Stats,
//! ];
//! let frame = wire::encode_frame(FrameKind::Request, 7, &wire::encode_request_batch(&batch)).unwrap();
//! let (header, payload) = wire::decode_frame(&frame).unwrap();
//! assert_eq!((header.kind, header.id), (FrameKind::Request, 7));
//! assert_eq!(wire::decode_request_batch(payload).unwrap(), batch);
//! ```

use crate::error::{ServeError, WireError};
use crate::metrics::Counters;
use crate::product::{ProductData, ProductDescriptor, ProductSource, ProductStat, ScenarioSpec};
use crate::server::{
    ArchiveInfo, CatalogAnswer, CatalogQuery, EmulatorInfo, MemberInfo, Request, Response,
    ServeStats, SliceData,
};
use crate::SliceRequest;
use exaclim_climate::Dataset;
use exaclim_store::{crc32, crc32_update, ArchiveError, MemberKind};
use std::io::{IoSlice, Read, Write};
use std::ops::Range;
use std::sync::Arc;

/// Frame magic: the literal bytes `ECN1` at offset 0 of every frame.
pub const MAGIC: [u8; 4] = *b"ECN1";

/// The one protocol version this build speaks and accepts (header byte
/// 4). Clients of the earlier negotiating wire announce 4 and already
/// reassemble a one-fragment [`FrameKind::Stream`] response, so they
/// interoperate unchanged.
pub const VERSION: u8 = 4;

/// Largest stream-fragment sequence number (15 bits; bit 15 of the
/// on-wire position word is the FIN flag).
pub const STREAM_SEQ_MAX: u16 = 0x7FFF;

/// Fixed frame-header size in bytes.
pub const HEADER_LEN: usize = 24;

/// Upper bound on one frame's payload (1 GiB), mirroring the archive
/// decode cap [`exaclim_store::format::MAX_CHUNK_RAW_LEN`]: the reader
/// rejects larger length claims *before* allocating or reading, which
/// bounds what a hostile peer can make this process buffer.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 30;

/// Cap on one length-prefixed string (64 KiB) — names on the wire are
/// archive/member/emulator names and error messages, never bulk data.
/// The decoder rejects longer claims; the encoder clips longer inputs to
/// this many bytes at a char boundary, so an over-long name degrades to
/// a harmless prefix instead of a connection-fatal transport error.
pub const MAX_STR_LEN: u32 = 1 << 16;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A batch of [`Request`]s (client → server).
    Request,
    /// A terminal transport-level error report (either direction).
    Error,
    /// One fragment of a response (server → client). The header's
    /// reserved bytes carry a [`StreamPos`]; fragment payloads
    /// concatenate, in sequence order, to exactly the batch's
    /// [`encode_response_batch`] payload.
    Stream,
}

impl FrameKind {
    /// Wire id of this kind (header byte 5). Id 2, the retired
    /// single-frame response, decodes as [`WireError::BadFrameKind`].
    pub fn id(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Error => 3,
            FrameKind::Stream => 4,
        }
    }

    /// Parse a wire id.
    pub fn from_id(id: u8) -> Result<Self, WireError> {
        match id {
            1 => Ok(FrameKind::Request),
            3 => Ok(FrameKind::Error),
            4 => Ok(FrameKind::Stream),
            other => Err(WireError::BadFrameKind(other)),
        }
    }
}

/// Position of a [`FrameKind::Stream`] fragment within its response,
/// packed into the header's two reserved bytes as a little-endian `u16`:
/// bits 0..15 are the sequence number, bit 15 is the FIN flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamPos {
    /// Fragment sequence number, starting at 0 (≤ [`STREAM_SEQ_MAX`]).
    pub seq: u16,
    /// Set on the final fragment of the response.
    pub fin: bool,
}

impl StreamPos {
    /// Pack into the on-wire position word.
    fn to_wire(self) -> u16 {
        (self.seq & STREAM_SEQ_MAX) | if self.fin { 0x8000 } else { 0 }
    }

    /// Unpack from the on-wire position word.
    fn from_wire(word: u16) -> Self {
        Self {
            seq: word & STREAM_SEQ_MAX,
            fin: word & 0x8000 != 0,
        }
    }
}

/// The decoded fixed-size frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame kind.
    pub kind: FrameKind,
    /// Stream position; `Some` exactly when `kind` is
    /// [`FrameKind::Stream`] (other kinds keep the bytes reserved-zero).
    pub stream: Option<StreamPos>,
    /// Frame id, echoed in the matching response.
    pub id: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// CRC32 of the payload.
    pub crc: u32,
}

impl FrameHeader {
    /// Serialize to the fixed 24-byte wire form.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[0..4].copy_from_slice(&MAGIC);
        h[4] = VERSION;
        h[5] = self.kind.id();
        // Bytes 6..8: reserved-zero, except a stream fragment's position.
        if let Some(pos) = self.stream {
            h[6..8].copy_from_slice(&pos.to_wire().to_le_bytes());
        }
        h[8..16].copy_from_slice(&self.id.to_le_bytes());
        h[16..20].copy_from_slice(&self.len.to_le_bytes());
        h[20..24].copy_from_slice(&self.crc.to_le_bytes());
        h
    }

    /// Parse and validate the fixed 24-byte wire form: magic, version
    /// (exactly [`VERSION`]), kind, reserved/stream bytes, and the
    /// [`MAX_FRAME_PAYLOAD`] cap.
    pub fn decode(bytes: &[u8; HEADER_LEN]) -> Result<Self, WireError> {
        if bytes[0..4] != MAGIC {
            return Err(WireError::BadMagic([
                bytes[0], bytes[1], bytes[2], bytes[3],
            ]));
        }
        if bytes[4] != VERSION {
            return Err(WireError::Version {
                got: bytes[4],
                want: VERSION,
            });
        }
        let kind = FrameKind::from_id(bytes[5])?;
        let stream = if kind == FrameKind::Stream {
            Some(StreamPos::from_wire(u16::from_le_bytes(
                bytes[6..8].try_into().expect("2 bytes"),
            )))
        } else {
            if bytes[6] != 0 || bytes[7] != 0 {
                return Err(WireError::Malformed(format!(
                    "reserved header bytes are {:#04x}{:#04x}, want zero",
                    bytes[6], bytes[7]
                )));
            }
            None
        };
        let id = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
        if len > MAX_FRAME_PAYLOAD {
            return Err(WireError::FrameTooLarge {
                len: u64::from(len),
                max: u64::from(MAX_FRAME_PAYLOAD),
            });
        }
        let crc = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
        Ok(Self {
            kind,
            stream,
            id,
            len,
            crc,
        })
    }

    /// The header of one whole frame carrying `payload` (see
    /// [`encode_frame`]).
    fn whole(kind: FrameKind, id: u64, payload: &[u8]) -> Result<Self, WireError> {
        check_payload_cap(payload.len())?;
        Ok(Self {
            kind,
            stream: (kind == FrameKind::Stream).then_some(StreamPos { seq: 0, fin: true }),
            id,
            len: payload.len() as u32,
            crc: crc32(payload),
        })
    }
}

/// [`WireError::FrameTooLarge`] unless `len` fits [`MAX_FRAME_PAYLOAD`].
fn check_payload_cap(len: usize) -> Result<(), WireError> {
    if len as u64 > u64::from(MAX_FRAME_PAYLOAD) {
        return Err(WireError::FrameTooLarge {
            len: len as u64,
            max: u64::from(MAX_FRAME_PAYLOAD),
        });
    }
    Ok(())
}

/// Assemble one complete frame (header + payload) in memory. A
/// [`FrameKind::Stream`] frame built this way is a complete one-fragment
/// response (seq 0, FIN).
///
/// Fails with [`WireError::FrameTooLarge`] if `payload` exceeds
/// [`MAX_FRAME_PAYLOAD`] — the sender enforces the same cap the receiver
/// does, so an over-long batch is rejected before it ties up the socket.
pub fn encode_frame(kind: FrameKind, id: u64, payload: &[u8]) -> Result<Vec<u8>, WireError> {
    let header = FrameHeader::whole(kind, id, payload)?;
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&header.encode());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// Decode one complete frame from a byte buffer, returning the header and
/// a borrowed view of the checksum-verified payload. Trailing bytes after
/// the payload are an error — a frame is exactly as long as it claims.
pub fn decode_frame(bytes: &[u8]) -> Result<(FrameHeader, &[u8]), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            context: "frame header",
        });
    }
    let header = FrameHeader::decode(bytes[..HEADER_LEN].try_into().expect("header slice"))?;
    let want = HEADER_LEN
        .checked_add(header.len as usize)
        .ok_or(WireError::FrameTooLarge {
            len: u64::from(header.len),
            max: u64::from(MAX_FRAME_PAYLOAD),
        })?;
    if bytes.len() < want {
        return Err(WireError::Truncated {
            context: "frame payload",
        });
    }
    if bytes.len() > want {
        return Err(WireError::Malformed(format!(
            "{} trailing bytes after frame end",
            bytes.len() - want
        )));
    }
    let payload = &bytes[HEADER_LEN..want];
    let actual = crc32(payload);
    if actual != header.crc {
        return Err(WireError::ChecksumMismatch {
            expected: header.crc,
            actual,
        });
    }
    Ok((header, payload))
}

/// Write one frame to a stream (header, then payload) — the streaming
/// twin of [`encode_frame`], byte for byte. The caller is responsible
/// for flushing; behind a `BufWriter`, a frame that fits its buffer
/// leaves in one syscall at the flush.
pub fn write_frame(
    w: &mut impl Write,
    kind: FrameKind,
    id: u64,
    payload: &[u8],
) -> Result<(), WireError> {
    w.write_all(&FrameHeader::whole(kind, id, payload)?.encode())?;
    w.write_all(payload)?;
    Ok(())
}

/// Most bytes [`read_frame`] allocates for a payload ahead of the bytes
/// that fill them.
const PAYLOAD_READ_STEP: usize = 1 << 20;

/// Read one frame from a stream: header, validation (magic, version,
/// kind, payload cap — rejected **before** the payload is read or
/// buffered), then the checksum-verified payload.
///
/// A clean EOF before the first header byte is
/// [`WireError::ConnectionClosed`]; EOF anywhere inside the frame is
/// [`WireError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<(FrameHeader, Vec<u8>), WireError> {
    let mut header_bytes = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        let n = r
            .read(&mut header_bytes[filled..])
            .map_err(WireError::from)?;
        if n == 0 {
            return if filled == 0 {
                Err(WireError::ConnectionClosed { peer: None })
            } else {
                Err(WireError::Truncated {
                    context: "frame header",
                })
            };
        }
        filled += n;
    }
    let header = FrameHeader::decode(&header_bytes)?;
    // Size the payload buffer from the header, but at most
    // `PAYLOAD_READ_STEP` past the bytes that have arrived: a peer that
    // claims 1 GiB and trickles ties up only what it sent plus one step.
    let len = header.len as usize;
    let mut payload = Vec::new();
    while payload.len() < len {
        let filled = payload.len();
        let step = (len - filled).min(PAYLOAD_READ_STEP);
        payload.reserve_exact(step);
        payload.resize(filled + step, 0);
        r.read_exact(&mut payload[filled..]).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                WireError::Truncated {
                    context: "frame payload",
                }
            } else {
                WireError::from(e)
            }
        })?;
    }
    let actual = crc32(&payload);
    if actual != header.crc {
        return Err(WireError::ChecksumMismatch {
            expected: header.crc,
            actual,
        });
    }
    Ok((header, payload))
}

// ---------------------------------------------------------------------------
// Streaming emission and reassembly
// ---------------------------------------------------------------------------

/// Cap on gathered slices per `write_vectored` call. Kernels truncate at
/// `IOV_MAX` (1024 on Linux), and a socket accepts at most its buffer's
/// worth per call anyway — a modest cap keeps per-call setup cheap while
/// still batching a header and dozens of chunk parts into one `writev`.
pub const MAX_WRITE_IOV: usize = 64;

/// One wire frame staged for writing: the encoded 24-byte header plus
/// `(segment, byte range)` references into the [`ResponseBody`] it was
/// cut from. Payload bytes stay where they are — owned metadata runs or
/// shared chunk buffers — and go to the socket via gathered `writev`.
pub struct OutFrame {
    head: [u8; HEADER_LEN],
    parts: Vec<(usize, Range<usize>)>,
    payload_len: usize,
    /// True for the final frame (the `FIN` fragment, or an error frame).
    pub last: bool,
}

impl OutFrame {
    /// Bytes this frame puts on the wire (header + payload).
    pub fn total_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Bytes of this frame the connection actually owns — the header
    /// plus owned metadata runs, excluding shared chunk-cache references
    /// (those cost a refcount, not a copy). This is what bounds
    /// per-connection memory while a response drains.
    pub fn owned_len(&self, body: &ResponseBody) -> usize {
        HEADER_LEN
            + self
                .parts
                .iter()
                .map(|(i, r)| match &body.segments[*i] {
                    Segment::Owned(_) => r.len(),
                    Segment::Values { .. } => 0,
                })
                .sum::<usize>()
    }

    /// Materialize the whole frame contiguously (tests and diagnostics;
    /// the server's write-drain gathers instead).
    pub fn to_bytes(&self, body: &ResponseBody) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.total_len());
        out.extend_from_slice(&self.head);
        for (i, r) in &self.parts {
            out.extend_from_slice(&body.segments[*i].bytes()[r.clone()]);
        }
        out
    }

    /// Gather the frame's unwritten tail (everything after `written`
    /// bytes) into `out` as borrowed I/O slices, at most `max` of them.
    pub fn remaining_slices<'a>(
        &'a self,
        body: &'a ResponseBody,
        written: usize,
        out: &mut Vec<IoSlice<'a>>,
        max: usize,
    ) {
        let mut skip = written;
        if skip < HEADER_LEN {
            out.push(IoSlice::new(&self.head[skip..]));
            skip = 0;
        } else {
            skip -= HEADER_LEN;
        }
        for (i, r) in &self.parts {
            if out.len() >= max {
                return;
            }
            let len = r.len();
            if skip >= len {
                skip -= len;
                continue;
            }
            out.push(IoSlice::new(
                &body.segments[*i].bytes()[r.start + skip..r.end],
            ));
            skip = 0;
        }
    }
}

/// Cuts a [`ResponseBody`] into wire frames: [`FrameKind::Stream`]
/// fragments whose payloads concatenate to exactly the response payload
/// (one FIN fragment when the body fits the stream chunk), or the single
/// frame of any other kind. Each frame carries its own CRC (computed
/// incrementally across the scattered segments), so corruption is
/// detected per fragment, not per response.
pub struct FrameStream {
    body: ResponseBody,
    kind: FrameKind,
    id: u64,
    total: usize,
    /// Fragment payload size; `0` means the whole body in one frame.
    chunk: usize,
    offset: usize,
    seg: usize,
    seg_off: usize,
    next_seq: u16,
    frames: u32,
    done: bool,
}

impl FrameStream {
    /// Stage a response as fragments of ≈`stream_chunk` payload bytes
    /// when the body exceeds one chunk, otherwise (or when `stream_chunk`
    /// is 0) as one fragment at seq 0 with FIN set. Fails up front if the
    /// body exceeds [`MAX_FRAME_PAYLOAD`] — the cap bounds the
    /// *reassembled* payload, however many fragments carry it, so both
    /// sides agree on what is too large.
    pub fn response(body: ResponseBody, id: u64, stream_chunk: usize) -> Result<Self, WireError> {
        let total = body.total_len();
        let chunk = if stream_chunk > 0 && total > stream_chunk {
            // Never emit more fragments than the 15-bit sequence space
            // holds — widen the fragment instead of overflowing seq.
            stream_chunk.max(total.div_ceil(usize::from(STREAM_SEQ_MAX) + 1))
        } else {
            0
        };
        Self::new(FrameKind::Stream, id, body, chunk)
    }

    /// Stage a single frame of any kind (error frames use this).
    pub fn single(kind: FrameKind, id: u64, body: ResponseBody) -> Result<Self, WireError> {
        Self::new(kind, id, body, 0)
    }

    fn new(kind: FrameKind, id: u64, body: ResponseBody, chunk: usize) -> Result<Self, WireError> {
        let total = body.total_len();
        check_payload_cap(total)?;
        Ok(Self {
            body,
            kind,
            id,
            total,
            chunk,
            offset: 0,
            seg: 0,
            seg_off: 0,
            next_seq: 0,
            frames: 0,
            done: false,
        })
    }

    /// Whether this response goes out as more than one fragment.
    pub fn is_streamed(&self) -> bool {
        self.chunk != 0
    }

    /// Frames cut so far.
    pub fn frames_emitted(&self) -> u32 {
        self.frames
    }

    /// Reassembled payload length.
    pub fn total_len(&self) -> usize {
        self.total
    }

    /// The body frames reference — [`OutFrame`] methods need it back to
    /// resolve their segment references.
    pub fn body(&self) -> &ResponseBody {
        &self.body
    }

    /// Cut the next frame, advancing the cursor. `None` once the whole
    /// response has been emitted.
    pub fn next_frame(&mut self) -> Option<OutFrame> {
        if self.done {
            return None;
        }
        let len = if self.chunk == 0 {
            self.total
        } else {
            self.chunk.min(self.total - self.offset)
        };
        let last = self.offset + len == self.total;
        let stream = (self.kind == FrameKind::Stream).then_some(StreamPos {
            seq: self.next_seq,
            fin: last,
        });
        self.next_seq += 1;
        // Walk segments from the cursor, collecting `len` payload bytes
        // and folding them into the fragment's CRC as they pass.
        let mut parts = Vec::new();
        let mut crc_state = 0xFFFF_FFFFu32;
        let mut need = len;
        while need > 0 {
            let seg = &self.body.segments[self.seg];
            let seg_len = seg.len();
            let take = need.min(seg_len - self.seg_off);
            if take > 0 {
                let range = self.seg_off..self.seg_off + take;
                crc_state = crc32_update(crc_state, &seg.bytes()[range.clone()]);
                parts.push((self.seg, range));
                self.seg_off += take;
                need -= take;
            }
            if self.seg_off == seg_len {
                self.seg += 1;
                self.seg_off = 0;
            }
        }
        self.offset += len;
        self.done = last;
        let head = FrameHeader {
            kind: self.kind,
            stream,
            id: self.id,
            len: len as u32,
            crc: crc_state ^ 0xFFFF_FFFF,
        }
        .encode();
        self.frames += 1;
        Some(OutFrame {
            head,
            parts,
            payload_len: len,
            last,
        })
    }
}

/// Receiver-side reassembly of a response: fragments must arrive in
/// sequence order on one frame id, and the payload collected when `FIN`
/// lands is bit-identical to [`encode_response_batch`]'s. One
/// reassembler serves a whole connection — it resets itself after each
/// completed stream.
#[derive(Debug, Default)]
pub struct StreamReassembler {
    id: Option<u64>,
    next_seq: u16,
    buf: Vec<u8>,
}

impl StreamReassembler {
    /// A reassembler with no stream in progress.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a stream is mid-reassembly (a non-stream frame arriving
    /// now would be a protocol violation).
    pub fn in_progress(&self) -> bool {
        self.id.is_some()
    }

    /// Accept one CRC-verified stream frame. Returns the complete
    /// response payload when the `FIN` fragment lands, `None` while the
    /// stream continues, and a typed error for any sequencing violation:
    /// a first fragment not at seq 0, a duplicate/skipped/reordered seq,
    /// a foreign frame id spliced mid-stream, or reassembled growth past
    /// [`MAX_FRAME_PAYLOAD`]. The first fragment's vector is kept as the
    /// buffer rather than copied, so a one-fragment response comes back
    /// as the very allocation that was pushed.
    pub fn push(
        &mut self,
        header: &FrameHeader,
        payload: Vec<u8>,
    ) -> Result<Option<Vec<u8>>, WireError> {
        let pos = header.stream.ok_or_else(|| {
            WireError::Malformed("stream frame without a stream position".to_string())
        })?;
        match self.id {
            None => {
                if pos.seq != 0 {
                    return Err(WireError::StreamSequence {
                        expected: 0,
                        got: pos.seq,
                    });
                }
                self.id = Some(header.id);
            }
            Some(id) if header.id != id => {
                return Err(WireError::StreamInterleaved {
                    expected: id,
                    got: header.id,
                })
            }
            Some(_) => {
                if pos.seq != self.next_seq {
                    return Err(WireError::StreamSequence {
                        expected: self.next_seq,
                        got: pos.seq,
                    });
                }
            }
        }
        let grown = self.buf.len() as u64 + payload.len() as u64;
        if grown > u64::from(MAX_FRAME_PAYLOAD) {
            return Err(WireError::FrameTooLarge {
                len: grown,
                max: u64::from(MAX_FRAME_PAYLOAD),
            });
        }
        if self.buf.is_empty() {
            self.buf = payload;
        } else {
            self.buf.extend_from_slice(&payload);
        }
        // Saturate past the seq space: a 0x8000th fragment can only
        // mismatch (seq maxes at STREAM_SEQ_MAX), which is the right
        // outcome for a stream that long.
        self.next_seq = self.next_seq.saturating_add(1);
        if pos.fin {
            self.id = None;
            self.next_seq = 0;
            Ok(Some(std::mem::take(&mut self.buf)))
        } else {
            Ok(None)
        }
    }
}

// ---------------------------------------------------------------------------
// Payload primitives
// ---------------------------------------------------------------------------

/// A run of `f64` values backing a zero-copy [`Segment`]: either a
/// shared chunk-cache buffer (no copy at all — the segment holds a
/// refcount on the decoded chunk) or an owned vector moved out of a
/// [`Response`].
enum ValuesBuf {
    Arc(Arc<[f64]>),
    Vec(Vec<f64>),
}

impl ValuesBuf {
    fn as_slice(&self) -> &[f64] {
        match self {
            ValuesBuf::Arc(a) => a,
            ValuesBuf::Vec(v) => v,
        }
    }
}

/// One contiguous run of payload bytes: an owned metadata run, or a
/// borrowed view of `f64` values whose on-wire bytes are read straight
/// out of the backing buffer (little-endian hosts only; see
/// [`Segment::bytes`]).
enum Segment {
    Owned(Vec<u8>),
    Values { buf: ValuesBuf, range: Range<usize> },
}

impl Segment {
    fn len(&self) -> usize {
        match self {
            Segment::Owned(b) => b.len(),
            Segment::Values { range, .. } => range.len() * 8,
        }
    }

    /// The segment's on-wire bytes, borrowed — no copy for either
    /// variant. For `Values` this reinterprets the `f64` run as bytes,
    /// which is exactly the wire encoding (IEEE 754 bits, little-endian)
    /// on little-endian hosts; the encoder never builds a `Values`
    /// segment on big-endian hosts (it falls back to an owned copy), so
    /// the reinterpretation is always byte-order-correct here.
    fn bytes(&self) -> &[u8] {
        match self {
            Segment::Owned(b) => b,
            Segment::Values { buf, range } => {
                debug_assert!(cfg!(target_endian = "little"));
                let vals = &buf.as_slice()[range.clone()];
                // SAFETY: any 8 bytes are a valid f64 bit pattern and
                // vice versa; the pointer and length describe exactly the
                // `vals` allocation, which lives as long as `self`.
                unsafe { std::slice::from_raw_parts(vals.as_ptr().cast::<u8>(), vals.len() * 8) }
            }
        }
    }
}

/// A fully encoded response payload held as segments instead of one
/// contiguous buffer: owned metadata runs interleaved with shared value
/// buffers referenced straight from the chunk cache. Concatenating the
/// segments yields exactly the payload [`encode_response_batch`]
/// produces — [`FrameStream`] fragments it for the wire without ever
/// materializing the whole thing.
pub struct ResponseBody {
    segments: Vec<Segment>,
}

impl ResponseBody {
    /// Encode a batch of responses (by value: large value vectors are
    /// moved into segments, not copied).
    pub fn from_responses(responses: Vec<Result<Response, ServeError>>) -> Self {
        let mut e = Enc::new();
        e.u32(responses.len() as u32);
        for r in responses {
            match r {
                Ok(resp) => {
                    e.u8(1);
                    encode_response(&mut e, resp);
                }
                Err(err) => {
                    e.u8(0);
                    encode_serve_error(&mut e, &err);
                }
            }
        }
        e.into_body()
    }

    /// Wrap an already-encoded payload (error payloads, diagnostics) as
    /// a one-segment body, so [`FrameStream`] can emit any frame kind.
    pub fn from_payload(payload: Vec<u8>) -> Self {
        Self {
            segments: vec![Segment::Owned(payload)],
        }
    }

    /// Total payload length in bytes.
    pub fn total_len(&self) -> usize {
        self.segments.iter().map(Segment::len).sum()
    }

    /// Materialize the contiguous payload (copies; the contiguous
    /// encoders and tests use this).
    pub fn to_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.total_len());
        for s in &self.segments {
            out.extend_from_slice(s.bytes());
        }
        out
    }
}

/// Copying `Values` runs at or below this many bytes into the owned
/// metadata segment instead of keeping a borrowed segment: a 4-entry
/// iovec for 64 bytes of payload costs more than the copy.
const SMALL_VALUES_BYTES: usize = 256;

/// Append-only payload encoder (little-endian throughout). Scalar and
/// string writes accumulate in an owned buffer; value runs past
/// [`SMALL_VALUES_BYTES`] become borrowed [`Segment`]s so response
/// payloads reference chunk-cache memory instead of copying it.
struct Enc {
    segments: Vec<Segment>,
    cur: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Self {
            segments: Vec::new(),
            cur: Vec::new(),
        }
    }
    /// Seal the pending owned bytes into a segment.
    fn flush(&mut self) {
        if !self.cur.is_empty() {
            self.segments
                .push(Segment::Owned(std::mem::take(&mut self.cur)));
        }
    }
    fn into_body(mut self) -> ResponseBody {
        self.flush();
        ResponseBody {
            segments: self.segments,
        }
    }
    /// Concatenate everything into one contiguous payload (request and
    /// error payloads, which are all-metadata anyway).
    fn into_payload(self) -> Vec<u8> {
        self.into_body().to_payload()
    }
    fn u8(&mut self, v: u8) {
        self.cur.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.cur.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.cur.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.cur.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.cur.extend_from_slice(&v.to_le_bytes());
    }
    /// Length-prefixed string, clipped to [`MAX_STR_LEN`] at a char
    /// boundary: names and messages past the cap degrade to their prefix
    /// (an over-long archive name simply won't match the catalog) rather
    /// than producing a payload the peer must reject — which would
    /// escalate one bad field into a connection-fatal transport error.
    fn str(&mut self, s: &str) {
        let mut end = (MAX_STR_LEN as usize).min(s.len());
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        let s = &s[..end];
        self.u32(s.len() as u32);
        self.cur.extend_from_slice(s.as_bytes());
    }
    /// Length-prefixed value array taken by value: the count goes into
    /// the owned run, the values become a borrowed segment (zero copy).
    fn values(&mut self, buf: ValuesBuf, range: Range<usize>) {
        self.u64(range.len() as u64);
        self.values_run(buf, range);
    }
    /// One un-prefixed run of values — several runs after a single
    /// count prefix concatenate into one on-wire array (the chunk-parts
    /// form of a slice response). Bit-identical to copying the values
    /// byte by byte: the wire encoding of an f64 is its little-endian
    /// bit pattern either way.
    fn values_run(&mut self, buf: ValuesBuf, range: Range<usize>) {
        if cfg!(target_endian = "big") || range.len() * 8 <= SMALL_VALUES_BYTES {
            for v in &buf.as_slice()[range] {
                self.cur.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        } else {
            self.flush();
            self.segments.push(Segment::Values { buf, range });
        }
    }
}

/// Checked payload decoder: every read validates its length claim against
/// the bytes actually remaining before touching (or allocating for) them.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Malformed(format!(
                "{context}: need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, context: &str) -> Result<u8, WireError> {
        Ok(self.take(1, context)?[0])
    }
    fn u16(&mut self, context: &str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(
            self.take(2, context)?.try_into().expect("2 bytes"),
        ))
    }
    fn u32(&mut self, context: &str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().expect("4 bytes"),
        ))
    }
    fn u64(&mut self, context: &str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }
    fn i64(&mut self, context: &str) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    /// `usize` from a `u64` field, rejecting values that cannot index
    /// memory on this target.
    fn usize(&mut self, context: &str) -> Result<usize, WireError> {
        let v = self.u64(context)?;
        usize::try_from(v)
            .map_err(|_| WireError::Malformed(format!("{context}: {v} exceeds address space")))
    }

    fn str(&mut self, context: &str) -> Result<String, WireError> {
        let len = self.u32(context)?;
        if len > MAX_STR_LEN {
            return Err(WireError::Malformed(format!(
                "{context}: string of {len} bytes exceeds the {MAX_STR_LEN}-byte cap"
            )));
        }
        let bytes = self.take(len as usize, context)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed(format!("{context}: invalid UTF-8")))
    }

    fn f64s(&mut self, context: &str) -> Result<Vec<f64>, WireError> {
        let count = self.u64(context)?;
        // The claim must fit in the bytes that are actually here — this is
        // the allocation guard: a hostile count of 2^60 is rejected before
        // any buffer is sized from it.
        let need = count
            .checked_mul(8)
            .ok_or_else(|| WireError::Malformed(format!("{context}: value count overflows")))?;
        if need > self.remaining() as u64 {
            return Err(WireError::Malformed(format!(
                "{context}: {count} values claimed, {} bytes remain",
                self.remaining()
            )));
        }
        let raw = self.take(need as usize, context)?;
        // One exactly-sized collect the compiler turns into a copy on
        // little-endian hosts, not a capacity-checked push per value.
        Ok(raw
            .chunks_exact(8)
            .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8 bytes"))))
            .collect())
    }

    /// Assert the payload was consumed exactly.
    fn finish(self, context: &str) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed(format!(
                "{context}: {} trailing payload bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

const REQ_SLICE: u8 = 1;
const REQ_EMULATE: u8 = 2;
const REQ_CATALOG: u8 = 3;
const REQ_STATS: u8 = 4;
const REQ_PRODUCT: u8 = 5;
const REQ_ENSEMBLE: u8 = 6;
const REQ_DEADLINE: u8 = 7;

const CQ_LIST_ARCHIVES: u8 = 1;
const CQ_LIST_MEMBERS: u8 = 2;
const CQ_MEMBER_INFO: u8 = 3;
const CQ_LIST_EMULATORS: u8 = 4;

// Scenario-engine tags: product sources and statistics.
const PS_MEMBER: u8 = 1;
const PS_ENSEMBLE: u8 = 2;

const ST_RAW: u8 = 1;
const ST_ANOMALY: u8 = 2;
const ST_MEAN_STD: u8 = 3;
const ST_TREND: u8 = 4;
const ST_PERSISTENCE: u8 = 5;
const ST_TUKEY: u8 = 6;

fn encode_scenario_spec(e: &mut Enc, spec: &ScenarioSpec) {
    e.str(&spec.emulator);
    e.u64(spec.t_max);
    e.u64(spec.seed);
    e.u32(spec.realizations);
}

fn decode_scenario_spec(d: &mut Dec) -> Result<ScenarioSpec, WireError> {
    Ok(ScenarioSpec {
        emulator: d.str("scenario emulator")?,
        t_max: d.u64("scenario t_max")?,
        seed: d.u64("scenario seed")?,
        realizations: d.u32("scenario realizations")?,
    })
}

/// Optional half-open window: a presence byte, then `start`/`end` when
/// present. The presence byte must be exactly 0 or 1 so every descriptor
/// has one canonical wire form.
fn encode_window(e: &mut Enc, window: &Option<std::ops::Range<u64>>) {
    match window {
        Some(r) => {
            e.u8(1);
            e.u64(r.start);
            e.u64(r.end);
        }
        None => e.u8(0),
    }
}

fn decode_window(d: &mut Dec, context: &str) -> Result<Option<std::ops::Range<u64>>, WireError> {
    match d.u8(context)? {
        0 => Ok(None),
        1 => {
            let start = d.u64(context)?;
            let end = d.u64(context)?;
            Ok(Some(start..end))
        }
        other => Err(WireError::Malformed(format!(
            "{context}: presence byte is {other}, want 0 or 1"
        ))),
    }
}

fn encode_product_descriptor(e: &mut Enc, desc: &ProductDescriptor) {
    match &desc.source {
        ProductSource::Member { archive, member } => {
            e.u8(PS_MEMBER);
            e.str(archive);
            e.str(member);
        }
        ProductSource::Ensemble(spec) => {
            e.u8(PS_ENSEMBLE);
            encode_scenario_spec(e, spec);
        }
    }
    match &desc.stat {
        ProductStat::Raw => e.u8(ST_RAW),
        ProductStat::Anomaly { archive, member } => {
            e.u8(ST_ANOMALY);
            e.str(archive);
            e.str(member);
        }
        ProductStat::MeanStd => e.u8(ST_MEAN_STD),
        ProductStat::Trend => e.u8(ST_TREND),
        ProductStat::Persistence { order } => {
            e.u8(ST_PERSISTENCE);
            e.u32(*order);
        }
        ProductStat::TukeyExtremes { tail_per_mille } => {
            e.u8(ST_TUKEY);
            e.u32(*tail_per_mille);
        }
    }
    encode_window(e, &desc.time);
    encode_window(e, &desc.space);
}

fn decode_product_descriptor(d: &mut Dec) -> Result<ProductDescriptor, WireError> {
    let source = match d.u8("product source tag")? {
        PS_MEMBER => ProductSource::Member {
            archive: d.str("product archive")?,
            member: d.str("product member")?,
        },
        PS_ENSEMBLE => ProductSource::Ensemble(decode_scenario_spec(d)?),
        other => {
            return Err(WireError::Malformed(format!(
                "unknown product source tag {other}"
            )))
        }
    };
    let stat = match d.u8("product stat tag")? {
        ST_RAW => ProductStat::Raw,
        ST_ANOMALY => ProductStat::Anomaly {
            archive: d.str("anomaly baseline archive")?,
            member: d.str("anomaly baseline member")?,
        },
        ST_MEAN_STD => ProductStat::MeanStd,
        ST_TREND => ProductStat::Trend,
        ST_PERSISTENCE => ProductStat::Persistence {
            order: d.u32("persistence order")?,
        },
        ST_TUKEY => ProductStat::TukeyExtremes {
            tail_per_mille: d.u32("tukey tail_per_mille")?,
        },
        other => {
            return Err(WireError::Malformed(format!(
                "unknown product stat tag {other}"
            )))
        }
    };
    let time = decode_window(d, "product time window")?;
    let space = decode_window(d, "product space window")?;
    Ok(ProductDescriptor {
        source,
        stat,
        time,
        space,
    })
}

fn encode_request(e: &mut Enc, req: &Request) {
    match req {
        Request::Slice(s) => {
            e.u8(REQ_SLICE);
            e.str(&s.archive);
            e.str(&s.member);
            e.u64(s.range.start);
            e.u64(s.range.end);
        }
        Request::Emulate {
            emulator,
            t_max,
            seed,
        } => {
            e.u8(REQ_EMULATE);
            e.str(emulator);
            e.u64(*t_max as u64);
            e.u64(*seed);
        }
        Request::Catalog(q) => {
            e.u8(REQ_CATALOG);
            match q {
                CatalogQuery::ListArchives => e.u8(CQ_LIST_ARCHIVES),
                CatalogQuery::ListMembers { archive } => {
                    e.u8(CQ_LIST_MEMBERS);
                    e.str(archive);
                }
                CatalogQuery::MemberInfo { archive, member } => {
                    e.u8(CQ_MEMBER_INFO);
                    e.str(archive);
                    e.str(member);
                }
                CatalogQuery::ListEmulators => e.u8(CQ_LIST_EMULATORS),
            }
        }
        Request::Stats => e.u8(REQ_STATS),
        Request::Product(desc) => {
            e.u8(REQ_PRODUCT);
            encode_product_descriptor(e, desc);
        }
        Request::Ensemble(spec) => {
            e.u8(REQ_ENSEMBLE);
            encode_scenario_spec(e, spec);
        }
        Request::WithDeadline { budget_ms, request } => {
            e.u8(REQ_DEADLINE);
            e.u32(*budget_ms);
            encode_request(e, request);
        }
    }
}

fn decode_request(d: &mut Dec) -> Result<Request, WireError> {
    match d.u8("request tag")? {
        REQ_SLICE => Ok(Request::Slice(SliceRequest {
            archive: d.str("slice archive")?,
            member: d.str("slice member")?,
            range: {
                let start = d.u64("slice range start")?;
                let end = d.u64("slice range end")?;
                start..end
            },
        })),
        REQ_EMULATE => Ok(Request::Emulate {
            emulator: d.str("emulate name")?,
            t_max: d.usize("emulate t_max")?,
            seed: d.u64("emulate seed")?,
        }),
        REQ_CATALOG => {
            let q = match d.u8("catalog query tag")? {
                CQ_LIST_ARCHIVES => CatalogQuery::ListArchives,
                CQ_LIST_MEMBERS => CatalogQuery::ListMembers {
                    archive: d.str("list-members archive")?,
                },
                CQ_MEMBER_INFO => CatalogQuery::MemberInfo {
                    archive: d.str("member-info archive")?,
                    member: d.str("member-info member")?,
                },
                CQ_LIST_EMULATORS => CatalogQuery::ListEmulators,
                other => {
                    return Err(WireError::Malformed(format!(
                        "unknown catalog query tag {other}"
                    )))
                }
            };
            Ok(Request::Catalog(q))
        }
        REQ_STATS => Ok(Request::Stats),
        REQ_PRODUCT => Ok(Request::Product(decode_product_descriptor(d)?)),
        REQ_ENSEMBLE => Ok(Request::Ensemble(decode_scenario_spec(d)?)),
        REQ_DEADLINE => {
            let budget_ms = d.u32("deadline budget_ms")?;
            let request = decode_request(d)?;
            // One level only: a deadline wrapping a deadline has no
            // meaning, so a nested wrapper is a protocol violation, not
            // something to silently flatten.
            if matches!(request, Request::WithDeadline { .. }) {
                return Err(WireError::Malformed("nested deadline wrapper".to_string()));
            }
            Ok(Request::WithDeadline {
                budget_ms,
                request: Box::new(request),
            })
        }
        other => Err(WireError::Malformed(format!("unknown request tag {other}"))),
    }
}

/// Encode a batch of requests as a request-frame payload.
pub fn encode_request_batch(requests: &[Request]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(requests.len() as u32);
    for r in requests {
        encode_request(&mut e, r);
    }
    e.into_payload()
}

/// Decode a request-frame payload. The whole payload must be consumed —
/// trailing bytes are malformed, mirroring the container's
/// no-trailing-garbage rule.
pub fn decode_request_batch(payload: &[u8]) -> Result<Vec<Request>, WireError> {
    let mut d = Dec::new(payload);
    let count = d.u32("request count")? as usize;
    // Every request is at least one tag byte; a count beyond the
    // remaining bytes is a lie and is rejected before any allocation
    // is sized from it.
    if count > d.remaining() {
        return Err(WireError::Malformed(format!(
            "{count} requests claimed in a {}-byte payload",
            d.remaining()
        )));
    }
    let mut requests = Vec::with_capacity(count);
    for _ in 0..count {
        requests.push(decode_request(&mut d)?);
    }
    d.finish("request batch")?;
    Ok(requests)
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

const RESP_SLICE: u8 = 1;
const RESP_EMULATE: u8 = 2;
const RESP_CATALOG: u8 = 3;
const RESP_STATS: u8 = 4;
const RESP_PRODUCT: u8 = 5;

const CA_ARCHIVES: u8 = 1;
const CA_MEMBERS: u8 = 2;
const CA_MEMBER: u8 = 3;
const CA_EMULATORS: u8 = 4;

fn encode_member_info(e: &mut Enc, m: &MemberInfo) {
    e.str(&m.name);
    e.u8(m.kind.id());
    e.u8(m.codec);
    e.u64(m.t_max);
    e.u64(m.values_per_slice);
    e.u64(m.chunks as u64);
    e.u32(m.snapshot_version);
}

fn decode_member_info(d: &mut Dec) -> Result<MemberInfo, WireError> {
    Ok(MemberInfo {
        name: d.str("member name")?,
        kind: match d.u8("member kind")? {
            0 => MemberKind::Field,
            1 => MemberKind::Snapshot,
            other => return Err(WireError::Malformed(format!("unknown member kind {other}"))),
        },
        codec: d.u8("member codec")?,
        t_max: d.u64("member t_max")?,
        values_per_slice: d.u64("member values_per_slice")?,
        chunks: d.usize("member chunk count")?,
        snapshot_version: d.u32("member snapshot version")?,
    })
}

fn encode_response(e: &mut Enc, resp: Response) {
    match resp {
        Response::Slice(s) => {
            e.u8(RESP_SLICE);
            e.str(&s.archive);
            e.str(&s.member);
            e.u64(s.range.start);
            e.u64(s.range.end);
            e.u64(s.values_per_slice);
            let n = s.values.len();
            e.values(ValuesBuf::Vec(s.values), 0..n);
        }
        Response::Emulate(ds) => {
            e.u8(RESP_EMULATE);
            e.u64(ds.t_max as u64);
            e.u64(ds.npoints as u64);
            e.u64(ds.ntheta as u64);
            e.u64(ds.nphi as u64);
            e.i64(ds.start_year);
            e.u64(ds.tau as u64);
            let n = ds.data.len();
            e.values(ValuesBuf::Vec(ds.data), 0..n);
        }
        Response::Catalog(a) => {
            e.u8(RESP_CATALOG);
            match &a {
                CatalogAnswer::Archives(list) => {
                    e.u8(CA_ARCHIVES);
                    e.u32(list.len() as u32);
                    for a in list {
                        e.str(&a.name);
                        e.u64(a.members as u64);
                        e.u64(a.total_len);
                    }
                }
                CatalogAnswer::Members(list) => {
                    e.u8(CA_MEMBERS);
                    e.u32(list.len() as u32);
                    for m in list {
                        encode_member_info(e, m);
                    }
                }
                CatalogAnswer::Member(m) => {
                    e.u8(CA_MEMBER);
                    encode_member_info(e, m);
                }
                CatalogAnswer::Emulators(list) => {
                    e.u8(CA_EMULATORS);
                    e.u32(list.len() as u32);
                    for em in list {
                        e.str(&em.name);
                        e.u64(em.lmax as u64);
                        e.u64(em.grid.0 as u64);
                        e.u64(em.grid.1 as u64);
                        e.u64(em.parameter_bytes as u64);
                    }
                }
            }
        }
        Response::Stats(s) => {
            e.u8(RESP_STATS);
            for (_, words) in s.fields() {
                for &w in words {
                    e.u64(w);
                }
            }
        }
        Response::Product(p) => {
            e.u8(RESP_PRODUCT);
            e.u32(p.realizations);
            e.u64(p.rows);
            e.u64(p.values_per_row);
            let n = p.values.len();
            e.values(ValuesBuf::Vec(p.values), 0..n);
        }
    }
}

/// Guard a `u32` element count against the bytes remaining: each element
/// encodes to at least `min_bytes`, so any larger claim is hostile.
fn check_count(d: &Dec, count: u32, min_bytes: usize, context: &str) -> Result<usize, WireError> {
    let need = (count as u64).saturating_mul(min_bytes as u64);
    if need > d.remaining() as u64 {
        return Err(WireError::Malformed(format!(
            "{context}: {count} elements claimed, {} bytes remain",
            d.remaining()
        )));
    }
    Ok(count as usize)
}

fn decode_response(d: &mut Dec) -> Result<Response, WireError> {
    match d.u8("response tag")? {
        RESP_SLICE => {
            let archive = d.str("slice archive")?;
            let member = d.str("slice member")?;
            let start = d.u64("slice range start")?;
            let end = d.u64("slice range end")?;
            let values_per_slice = d.u64("slice values_per_slice")?;
            let values = d.f64s("slice values")?;
            Ok(Response::Slice(SliceData {
                archive,
                member,
                range: start..end,
                values_per_slice,
                values,
            }))
        }
        RESP_EMULATE => {
            let t_max = d.usize("dataset t_max")?;
            let npoints = d.usize("dataset npoints")?;
            let ntheta = d.usize("dataset ntheta")?;
            let nphi = d.usize("dataset nphi")?;
            let start_year = d.i64("dataset start_year")?;
            let tau = d.usize("dataset tau")?;
            let data = d.f64s("dataset values")?;
            let expect = t_max
                .checked_mul(npoints)
                .ok_or_else(|| WireError::Malformed("dataset geometry overflows".to_string()))?;
            if data.len() != expect {
                return Err(WireError::Malformed(format!(
                    "dataset carries {} values for {t_max}×{npoints} geometry",
                    data.len()
                )));
            }
            Ok(Response::Emulate(Dataset {
                data,
                t_max,
                npoints,
                ntheta,
                nphi,
                start_year,
                tau,
            }))
        }
        RESP_CATALOG => {
            let answer = match d.u8("catalog answer tag")? {
                CA_ARCHIVES => {
                    let count = d.u32("archive count")?;
                    let count = check_count(d, count, 4 + 8 + 8, "archive list")?;
                    let mut list = Vec::with_capacity(count);
                    for _ in 0..count {
                        list.push(ArchiveInfo {
                            name: d.str("archive name")?,
                            members: d.usize("archive member count")?,
                            total_len: d.u64("archive total_len")?,
                        });
                    }
                    CatalogAnswer::Archives(list)
                }
                CA_MEMBERS => {
                    let count = d.u32("member count")?;
                    let count = check_count(d, count, 4 + 2 + 8 * 3 + 4, "member list")?;
                    let mut list = Vec::with_capacity(count);
                    for _ in 0..count {
                        list.push(decode_member_info(d)?);
                    }
                    CatalogAnswer::Members(list)
                }
                CA_MEMBER => CatalogAnswer::Member(decode_member_info(d)?),
                CA_EMULATORS => {
                    let count = d.u32("emulator count")?;
                    let count = check_count(d, count, 4 + 8 * 4, "emulator list")?;
                    let mut list = Vec::with_capacity(count);
                    for _ in 0..count {
                        list.push(EmulatorInfo {
                            name: d.str("emulator name")?,
                            lmax: d.usize("emulator lmax")?,
                            grid: (d.usize("emulator ntheta")?, d.usize("emulator nphi")?),
                            parameter_bytes: d.usize("emulator parameter bytes")?,
                        });
                    }
                    CatalogAnswer::Emulators(list)
                }
                other => {
                    return Err(WireError::Malformed(format!(
                        "unknown catalog answer tag {other}"
                    )))
                }
            };
            Ok(Response::Catalog(answer))
        }
        RESP_STATS => {
            let mut stats = ServeStats::default();
            for (name, words) in stats.fields_mut() {
                for w in words {
                    *w = d.u64(&format!("stats {name}"))?;
                }
            }
            Ok(Response::Stats(stats))
        }
        RESP_PRODUCT => {
            let realizations = d.u32("product realizations")?;
            let rows = d.u64("product rows")?;
            let values_per_row = d.u64("product values_per_row")?;
            let values = d.f64s("product values")?;
            let expect = u64::from(realizations)
                .checked_mul(rows)
                .and_then(|v| v.checked_mul(values_per_row))
                .ok_or_else(|| WireError::Malformed("product geometry overflows".to_string()))?;
            if values.len() as u64 != expect {
                return Err(WireError::Malformed(format!(
                    "product carries {} values for {realizations}×{rows}×{values_per_row} geometry",
                    values.len()
                )));
            }
            Ok(Response::Product(ProductData {
                realizations,
                rows,
                values_per_row,
                values,
            }))
        }
        other => Err(WireError::Malformed(format!(
            "unknown response tag {other}"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Errors on the wire
// ---------------------------------------------------------------------------

const SE_ARCHIVE: u8 = 1;
const SE_EMULATION: u8 = 2;
const SE_UNKNOWN_ARCHIVE: u8 = 3;
const SE_UNKNOWN_EMULATOR: u8 = 4;
const SE_BAD_REQUEST: u8 = 5;
const SE_OVERLOADED: u8 = 6;
const SE_DEADLINE_EXPIRED: u8 = 7;
const SE_INTERNAL: u8 = 8;

const AE_IO: u8 = 1;
const AE_BAD_MAGIC: u8 = 2;
const AE_BAD_VERSION: u8 = 3;
const AE_CORRUPT: u8 = 4;
const AE_TRAILING: u8 = 5;
const AE_TRUNCATED_CHUNK: u8 = 6;
const AE_CHECKSUM: u8 = 7;
const AE_UNKNOWN_CODEC: u8 = 8;
const AE_MEMBER_NOT_FOUND: u8 = 9;
const AE_DUPLICATE_MEMBER: u8 = 10;
const AE_BAD_REQUEST: u8 = 11;

fn encode_archive_error(e: &mut Enc, err: &ArchiveError) {
    match err {
        ArchiveError::Io(m) => {
            e.u8(AE_IO);
            e.str(m);
        }
        ArchiveError::BadMagic => e.u8(AE_BAD_MAGIC),
        ArchiveError::BadVersion(v) => {
            e.u8(AE_BAD_VERSION);
            e.u16(*v);
        }
        ArchiveError::Corrupt(m) => {
            e.u8(AE_CORRUPT);
            e.str(m);
        }
        ArchiveError::TrailingBytes { expected, actual } => {
            e.u8(AE_TRAILING);
            e.u64(*expected);
            e.u64(*actual);
        }
        ArchiveError::TruncatedChunk { member, chunk } => {
            e.u8(AE_TRUNCATED_CHUNK);
            e.str(member);
            e.u64(*chunk as u64);
        }
        ArchiveError::ChecksumMismatch { member, chunk } => {
            e.u8(AE_CHECKSUM);
            e.str(member);
            e.u64(*chunk as u64);
        }
        ArchiveError::UnknownCodec(id) => {
            e.u8(AE_UNKNOWN_CODEC);
            e.u8(*id);
        }
        ArchiveError::MemberNotFound(n) => {
            e.u8(AE_MEMBER_NOT_FOUND);
            e.str(n);
        }
        ArchiveError::DuplicateMember(n) => {
            e.u8(AE_DUPLICATE_MEMBER);
            e.str(n);
        }
        ArchiveError::BadRequest(m) => {
            e.u8(AE_BAD_REQUEST);
            e.str(m);
        }
    }
}

fn decode_archive_error(d: &mut Dec) -> Result<ArchiveError, WireError> {
    Ok(match d.u8("archive error tag")? {
        AE_IO => ArchiveError::Io(d.str("io message")?),
        AE_BAD_MAGIC => ArchiveError::BadMagic,
        AE_BAD_VERSION => ArchiveError::BadVersion(d.u16("bad version")?),
        AE_CORRUPT => ArchiveError::Corrupt(d.str("corrupt message")?),
        AE_TRAILING => ArchiveError::TrailingBytes {
            expected: d.u64("trailing expected")?,
            actual: d.u64("trailing actual")?,
        },
        AE_TRUNCATED_CHUNK => ArchiveError::TruncatedChunk {
            member: d.str("truncated member")?,
            chunk: d.usize("truncated chunk")?,
        },
        AE_CHECKSUM => ArchiveError::ChecksumMismatch {
            member: d.str("checksum member")?,
            chunk: d.usize("checksum chunk")?,
        },
        AE_UNKNOWN_CODEC => ArchiveError::UnknownCodec(d.u8("codec id")?),
        AE_MEMBER_NOT_FOUND => ArchiveError::MemberNotFound(d.str("missing member")?),
        AE_DUPLICATE_MEMBER => ArchiveError::DuplicateMember(d.str("duplicate member")?),
        AE_BAD_REQUEST => ArchiveError::BadRequest(d.str("bad request message")?),
        other => {
            return Err(WireError::Malformed(format!(
                "unknown archive error tag {other}"
            )))
        }
    })
}

fn encode_serve_error(e: &mut Enc, err: &ServeError) {
    match err {
        ServeError::Archive(inner) => {
            e.u8(SE_ARCHIVE);
            encode_archive_error(e, inner);
        }
        ServeError::Emulation(m) => {
            e.u8(SE_EMULATION);
            e.str(m);
        }
        ServeError::UnknownArchive(n) => {
            e.u8(SE_UNKNOWN_ARCHIVE);
            e.str(n);
        }
        ServeError::UnknownEmulator(n) => {
            e.u8(SE_UNKNOWN_EMULATOR);
            e.str(n);
        }
        ServeError::BadRequest(m) => {
            e.u8(SE_BAD_REQUEST);
            e.str(m);
        }
        ServeError::Overloaded { retry_after_ms } => {
            e.u8(SE_OVERLOADED);
            e.u32(*retry_after_ms);
        }
        ServeError::DeadlineExpired => e.u8(SE_DEADLINE_EXPIRED),
        ServeError::Internal(m) => {
            e.u8(SE_INTERNAL);
            e.str(m);
        }
    }
}

fn decode_serve_error(d: &mut Dec) -> Result<ServeError, WireError> {
    Ok(match d.u8("serve error tag")? {
        SE_ARCHIVE => ServeError::Archive(decode_archive_error(d)?),
        SE_EMULATION => ServeError::Emulation(d.str("emulation message")?),
        SE_UNKNOWN_ARCHIVE => ServeError::UnknownArchive(d.str("unknown archive")?),
        SE_UNKNOWN_EMULATOR => ServeError::UnknownEmulator(d.str("unknown emulator")?),
        SE_BAD_REQUEST => ServeError::BadRequest(d.str("bad request message")?),
        SE_OVERLOADED => ServeError::Overloaded {
            retry_after_ms: d.u32("overloaded retry_after_ms")?,
        },
        SE_DEADLINE_EXPIRED => ServeError::DeadlineExpired,
        SE_INTERNAL => ServeError::Internal(d.str("internal message")?),
        other => {
            return Err(WireError::Malformed(format!(
                "unknown serve error tag {other}"
            )))
        }
    })
}

/// Encode a batch's responses as a response-frame payload: one
/// `Result<Response, ServeError>` per request, in request order.
///
/// Convenience over [`ResponseBody::from_responses`] — both paths run
/// the same encoder, so a streamed body reassembles to exactly these
/// bytes.
pub fn encode_response_batch(responses: &[Result<Response, ServeError>]) -> Vec<u8> {
    ResponseBody::from_responses(responses.to_vec()).to_payload()
}

/// Encode a batch of server [`Reply`](crate::server::Reply)s. The slice
/// variant writes the same bytes a materialized [`Response::Slice`]
/// would — metadata, one total value count, then each chunk part as a
/// borrowed segment referencing the decoded chunk's `Arc` directly, so
/// slice payloads are never copied out of the chunk cache.
pub(crate) fn encode_reply_batch(replies: Vec<crate::server::Reply>) -> ResponseBody {
    use crate::server::Reply;
    let mut e = Enc::new();
    e.u32(replies.len() as u32);
    for r in replies {
        match r {
            Reply::Full(Ok(resp)) => {
                e.u8(1);
                encode_response(&mut e, resp);
            }
            Reply::Full(Err(err)) => {
                e.u8(0);
                encode_serve_error(&mut e, &err);
            }
            Reply::Slice {
                archive,
                member,
                range,
                values_per_slice,
                parts,
            } => {
                e.u8(1);
                e.u8(RESP_SLICE);
                e.str(&archive);
                e.str(&member);
                e.u64(range.start);
                e.u64(range.end);
                e.u64(values_per_slice);
                let total: usize = parts.iter().map(|(_, r)| r.len()).sum();
                e.u64(total as u64);
                for (chunk, r) in parts {
                    e.values_run(ValuesBuf::Arc(chunk), r);
                }
            }
        }
    }
    e.into_body()
}

/// Decode a response-frame payload (exact inverse of
/// [`encode_response_batch`]; the round trip is bit-identical, errors
/// included).
pub fn decode_response_batch(
    payload: &[u8],
) -> Result<Vec<Result<Response, ServeError>>, WireError> {
    let mut d = Dec::new(payload);
    let count = d.u32("response count")? as usize;
    if count > d.remaining() {
        return Err(WireError::Malformed(format!(
            "{count} responses claimed in a {}-byte payload",
            d.remaining()
        )));
    }
    let mut responses = Vec::with_capacity(count);
    for _ in 0..count {
        match d.u8("result tag")? {
            1 => responses.push(Ok(decode_response(&mut d)?)),
            0 => responses.push(Err(decode_serve_error(&mut d)?)),
            other => return Err(WireError::Malformed(format!("unknown result tag {other}"))),
        }
    }
    d.finish("response batch")?;
    Ok(responses)
}

/// Encode an error-frame payload: the transport failure's display text
/// (clipped to [`MAX_STR_LEN`] at a char boundary).
pub fn encode_error_payload(message: &str) -> Vec<u8> {
    let mut e = Enc::new();
    e.str(message);
    e.into_payload()
}

/// Decode an error-frame payload back to its message.
pub fn decode_error_payload(payload: &[u8]) -> Result<String, WireError> {
    let mut d = Dec::new(payload);
    let msg = d.str("error message")?;
    d.finish("error payload")?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Slice(SliceRequest {
                archive: "era5".to_string(),
                member: "t2m".to_string(),
                range: 3..17,
            }),
            Request::Emulate {
                emulator: "sst-model".to_string(),
                t_max: 365,
                seed: 0xDEAD_BEEF,
            },
            Request::Catalog(CatalogQuery::ListArchives),
            Request::Catalog(CatalogQuery::ListMembers {
                archive: "era5".to_string(),
            }),
            Request::Catalog(CatalogQuery::MemberInfo {
                archive: "era5".to_string(),
                member: "t2m".to_string(),
            }),
            Request::Catalog(CatalogQuery::ListEmulators),
            Request::Stats,
            Request::Product(ProductDescriptor {
                source: ProductSource::Member {
                    archive: "era5".to_string(),
                    member: "t2m".to_string(),
                },
                stat: ProductStat::Anomaly {
                    archive: "era5".to_string(),
                    member: "t2m-baseline".to_string(),
                },
                time: Some(10..50),
                space: None,
            }),
            Request::Product(ProductDescriptor {
                source: ProductSource::Ensemble(ScenarioSpec {
                    emulator: "sst-model".to_string(),
                    t_max: 730,
                    seed: 7,
                    realizations: 16,
                }),
                stat: ProductStat::Trend,
                time: None,
                space: Some(3..9),
            }),
            Request::Product(ProductDescriptor {
                source: ProductSource::Member {
                    archive: "era5".to_string(),
                    member: "t2m".to_string(),
                },
                stat: ProductStat::Persistence { order: 3 },
                time: Some(0..64),
                space: Some(0..4),
            }),
            Request::Product(ProductDescriptor {
                source: ProductSource::Ensemble(ScenarioSpec {
                    emulator: "sst-model".to_string(),
                    t_max: 365,
                    seed: 0,
                    realizations: 4,
                }),
                stat: ProductStat::TukeyExtremes { tail_per_mille: 25 },
                time: None,
                space: None,
            }),
            Request::Product(ProductDescriptor {
                source: ProductSource::Member {
                    archive: "era5".to_string(),
                    member: "t2m".to_string(),
                },
                stat: ProductStat::MeanStd,
                time: None,
                space: None,
            }),
            Request::Ensemble(ScenarioSpec {
                emulator: "sst-model".to_string(),
                t_max: 365,
                seed: 0xC0FFEE,
                realizations: 32,
            }),
            Request::WithDeadline {
                budget_ms: 250,
                request: Box::new(Request::Slice(SliceRequest {
                    archive: "era5".to_string(),
                    member: "t2m".to_string(),
                    range: 0..8,
                })),
            },
            Request::WithDeadline {
                budget_ms: 0,
                request: Box::new(Request::Stats),
            },
        ]
    }

    fn sample_responses() -> Vec<Result<Response, ServeError>> {
        vec![
            Ok(Response::Slice(SliceData {
                archive: "era5".to_string(),
                member: "t2m".to_string(),
                range: 3..17,
                values_per_slice: 4,
                values: (0..56).map(|i| 260.0 + f64::from(i) * 0.25).collect(),
            })),
            Ok(Response::Emulate(Dataset {
                data: vec![1.5, -2.5, f64::MIN_POSITIVE, 0.0, -0.0, f64::MAX],
                t_max: 3,
                npoints: 2,
                ntheta: 1,
                nphi: 2,
                start_year: -44,
                tau: 365,
            })),
            Ok(Response::Catalog(CatalogAnswer::Archives(vec![
                ArchiveInfo {
                    name: "era5".to_string(),
                    members: 2,
                    total_len: 12345,
                },
            ]))),
            Ok(Response::Catalog(CatalogAnswer::Member(MemberInfo {
                name: "t2m".to_string(),
                kind: MemberKind::Field,
                codec: 3,
                t_max: 100,
                values_per_slice: 64,
                chunks: 7,
                snapshot_version: 0,
            }))),
            Ok(Response::Catalog(CatalogAnswer::Emulators(vec![
                EmulatorInfo {
                    name: "sst-model".to_string(),
                    lmax: 31,
                    grid: (32, 64),
                    parameter_bytes: 8192,
                },
            ]))),
            Ok(Response::Stats(ServeStats {
                slices: 1,
                emulations: 2,
                catalog_queries: 3,
                errors: 4,
                batches: 5,
                chunk_touches: 6,
                chunk_fetches: 7,
                chunk_decodes: 8,
                products: 9,
                product_computes: 10,
                busy_nanos: 11,
                deadline_expired: 12,
            })),
            Ok(Response::Product(ProductData {
                realizations: 2,
                rows: 3,
                values_per_row: 2,
                values: (0..12).map(|i| f64::from(i) * 0.5 - 1.0).collect(),
            })),
            Err(ServeError::UnknownArchive("gone".to_string())),
            Err(ServeError::Archive(ArchiveError::ChecksumMismatch {
                member: "t2m".to_string(),
                chunk: 3,
            })),
            Err(ServeError::Archive(ArchiveError::TrailingBytes {
                expected: 100,
                actual: 120,
            })),
            Err(ServeError::Emulation("singular matrix".to_string())),
            Err(ServeError::BadRequest("no".to_string())),
            Err(ServeError::Overloaded { retry_after_ms: 40 }),
            Err(ServeError::DeadlineExpired),
            Err(ServeError::Internal("worker panicked".to_string())),
        ]
    }

    #[test]
    fn request_batch_round_trips() {
        let batch = sample_requests();
        let payload = encode_request_batch(&batch);
        assert_eq!(decode_request_batch(&payload).unwrap(), batch);
    }

    #[test]
    fn nested_deadline_wrapper_is_malformed() {
        // Hand-assemble a deadline wrapping a deadline — the encoder
        // cannot produce this (the type is a single wrapper level by
        // construction in practice), so build the payload manually.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u32.to_le_bytes()); // batch count
        payload.push(7); // REQ_DEADLINE
        payload.extend_from_slice(&5u32.to_le_bytes()); // budget_ms
        payload.push(7); // nested REQ_DEADLINE
        payload.extend_from_slice(&5u32.to_le_bytes());
        payload.push(4); // REQ_STATS
        assert!(matches!(
            decode_request_batch(&payload),
            Err(WireError::Malformed(m)) if m.contains("nested deadline")
        ));
    }

    #[test]
    fn response_batch_round_trips_bit_identically() {
        let batch = sample_responses();
        let payload = encode_response_batch(&batch);
        assert_eq!(decode_response_batch(&payload).unwrap(), batch);
    }

    #[test]
    fn frame_round_trips() {
        let payload = encode_request_batch(&sample_requests());
        let frame = encode_frame(FrameKind::Request, 42, &payload).unwrap();
        assert_eq!(frame.len(), HEADER_LEN + payload.len());
        let (header, got) = decode_frame(&frame).unwrap();
        assert_eq!(header.kind, FrameKind::Request);
        assert_eq!(header.id, 42);
        assert_eq!(got, &payload[..]);

        // And through a stream.
        let mut cursor = std::io::Cursor::new(frame);
        let (header2, got2) = read_frame(&mut cursor).unwrap();
        assert_eq!(header2, header);
        assert_eq!(got2, payload);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut frame = encode_frame(FrameKind::Request, 0, b"xy").unwrap();
        frame[0] = b'X';
        assert!(matches!(decode_frame(&frame), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut frame = encode_frame(FrameKind::Request, 0, b"xy").unwrap();
        // The retired versions and the next one alike: one version only.
        for got in [2, 3, 5] {
            frame[4] = got;
            assert_eq!(
                decode_frame(&frame).unwrap_err(),
                WireError::Version { got, want: 4 }
            );
        }
    }

    #[test]
    fn retired_response_kind_is_a_bad_frame_kind() {
        let payload = encode_response_batch(&sample_responses());
        let mut frame = encode_frame(FrameKind::Stream, 7, &payload).unwrap();
        assert!(decode_frame(&frame).is_ok());
        // Kind 2 was the single-frame response; every response is a
        // stream now, so the id is as unknown as kind 9.
        frame[5] = 2;
        assert_eq!(
            decode_frame(&frame).unwrap_err(),
            WireError::BadFrameKind(2)
        );
    }

    #[test]
    fn oversized_length_claim_is_rejected_before_reading() {
        let mut header = FrameHeader {
            kind: FrameKind::Request,
            stream: None,
            id: 0,
            len: 0,
            crc: 0,
        }
        .encode();
        header[16..20].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        // read_frame sees only the header — the reject happens without the
        // (absent) payload ever being requested or allocated.
        let mut cursor = std::io::Cursor::new(header.to_vec());
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    /// A reader that hands out one byte per `read` call.
    struct TrickleReader<'a>(&'a [u8]);

    impl Read for TrickleReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.0.len()).min(1);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    /// Payloads below, at and past the read step come back byte for
    /// byte, whether the bytes arrive all at once or one per call.
    #[test]
    fn read_frame_returns_identical_bytes_at_every_step_boundary() {
        let step = PAYLOAD_READ_STEP;
        for len in [0, 1, step - 1, step, step + 1, 3 * step + 5] {
            let payload: Vec<u8> = (0..len).map(|i| (i ^ (i >> 9)) as u8).collect();
            let frame = encode_frame(FrameKind::Request, len as u64, &payload).unwrap();
            let whole = read_frame(&mut frame.as_slice()).unwrap();
            let trickled = read_frame(&mut TrickleReader(&frame)).unwrap();
            assert_eq!((whole.0.id, whole.0.len), (len as u64, len as u32));
            assert!(whole.1 == payload, "whole-buffer read of {len} bytes");
            assert_eq!(trickled.0, whole.0);
            assert!(trickled.1 == payload, "trickled read of {len} bytes");
        }
    }

    /// A header that claims far more than the peer sends is a typed
    /// truncation once the bytes run out.
    #[test]
    fn payload_claim_past_the_bytes_sent_is_truncated() {
        let header = FrameHeader {
            kind: FrameKind::Request,
            stream: None,
            id: 3,
            len: 512 << 20,
            crc: 0,
        }
        .encode();
        let mut bytes = header.to_vec();
        bytes.extend_from_slice(&[0xA5; 10]);
        assert_eq!(
            read_frame(&mut bytes.as_slice()).unwrap_err(),
            WireError::Truncated {
                context: "frame payload"
            }
        );
    }

    /// The per-value loop `Dec::f64s` used to run, kept as its oracle.
    fn f64s_reference(raw: &[u8]) -> Vec<f64> {
        let mut values = Vec::with_capacity(raw.len() / 8);
        for chunk in raw.chunks_exact(8) {
            values.push(f64::from_bits(u64::from_le_bytes(
                chunk.try_into().expect("8 bytes"),
            )));
        }
        values
    }

    /// Every bit pattern survives `f64s` exactly as the reference loop
    /// decodes it: signed zeros, subnormals, infinities, quiet and
    /// signalling NaNs with payloads, and arbitrary bits at every run
    /// length up to 40.
    #[test]
    fn f64s_decodes_every_bit_pattern_like_the_reference_loop() {
        let mut bits: Vec<u64> = vec![
            0.0f64.to_bits(),
            (-0.0f64).to_bits(),
            1,
            0x000F_FFFF_FFFF_FFFF,
            0x8000_0000_0000_0001,
            f64::MIN_POSITIVE.to_bits(),
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            f64::NAN.to_bits(),
            0x7FF8_0000_0000_0001,
            0x7FF0_0000_0000_0001,
            0xFFF8_DEAD_BEEF_0000,
            0xFFF4_0000_0000_0000,
            f64::MAX.to_bits(),
        ];
        let mut z = 0x9E37_79B9_7F4A_7C15u64;
        bits.extend((0..26).map(|_| {
            z = z.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            z ^ (z >> 29)
        }));
        for n in 0..=bits.len() {
            let mut payload = (n as u64).to_le_bytes().to_vec();
            for b in &bits[..n] {
                payload.extend_from_slice(&b.to_le_bytes());
            }
            let mut d = Dec::new(&payload);
            let got = d.f64s("values").unwrap();
            d.finish("values").unwrap();
            let want = f64s_reference(&payload[8..]);
            let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{n} values");
            assert_eq!(got, bits[..n], "{n} values");
        }
    }

    /// A payload long enough for the folding kernel: one flipped bit in
    /// any byte, folded region or slice-by-8 tail, is a checksum mismatch
    /// through both the buffer and the stream decoder.
    #[test]
    fn flipped_payload_bit_fails_the_checksum() {
        let payload = encode_response_batch(&sample_responses());
        assert!(payload.len() >= 256, "{}", payload.len());
        let frame = encode_frame(FrameKind::Stream, 9, &payload).unwrap();
        for at in HEADER_LEN..frame.len() {
            let mut bad = frame.clone();
            bad[at] ^= 1 << (at % 8);
            assert!(
                matches!(decode_frame(&bad), Err(WireError::ChecksumMismatch { .. })),
                "byte {at}"
            );
            assert!(
                matches!(
                    read_frame(&mut bad.as_slice()),
                    Err(WireError::ChecksumMismatch { .. })
                ),
                "byte {at}"
            );
        }
    }

    #[test]
    fn truncation_at_every_boundary_is_typed() {
        let payload = encode_request_batch(&sample_requests());
        let frame = encode_frame(FrameKind::Request, 1, &payload).unwrap();
        for cut in 0..frame.len() {
            let err = decode_frame(&frame[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn truncated_stats_response_names_the_missing_field() {
        let payload = encode_response_batch(&[Ok(Response::Stats(ServeStats::default()))]);
        for (cut, field) in [(8, "deadline_expired"), (8 * 12, "slices")] {
            let err = decode_response_batch(&payload[..payload.len() - cut]).unwrap_err();
            let want = format!("stats {field}: need 8 bytes, 0 remain");
            assert_eq!(err, WireError::Malformed(want));
        }
    }

    #[test]
    fn hostile_value_count_is_rejected_without_allocation() {
        // A slice response claiming 2^56 values in a tiny payload: the
        // decoder must fail on the length check, not size a buffer from
        // the claim.
        let mut e = Enc::new();
        e.u32(1); // one response
        e.u8(1); // ok
        e.u8(RESP_SLICE);
        e.str("a");
        e.str("m");
        e.u64(0);
        e.u64(1);
        e.u64(1);
        e.u64(1 << 56); // hostile count, then no values at all
        let err = decode_response_batch(&e.into_payload()).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn trailing_payload_bytes_are_malformed() {
        let mut payload = encode_request_batch(&sample_requests());
        payload.push(0);
        assert!(matches!(
            decode_request_batch(&payload),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn dataset_geometry_must_match_its_values() {
        let mut e = Enc::new();
        e.u8(RESP_EMULATE);
        e.u64(10); // t_max
        e.u64(10); // npoints — claims 100 values
        e.u64(2);
        e.u64(5);
        e.i64(2000);
        e.u64(365);
        e.values(ValuesBuf::Vec(vec![1.0, 2.0]), 0..2); // … but carries 2
        let payload = e.into_payload();
        let mut d = Dec::new(&payload);
        assert!(matches!(
            decode_response(&mut d),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn over_long_strings_clip_at_a_char_boundary_instead_of_poisoning() {
        // 65535 ASCII bytes then a multi-byte char straddling the cap: the
        // encoder must clip below the cap without splitting the char, and
        // the result must still decode (to the prefix) on the other side.
        let name = "x".repeat((MAX_STR_LEN - 1) as usize) + "éé";
        let batch = vec![Request::Emulate {
            emulator: name.clone(),
            t_max: 1,
            seed: 0,
        }];
        let decoded = decode_request_batch(&encode_request_batch(&batch)).unwrap();
        let Request::Emulate { emulator, .. } = &decoded[0] else {
            panic!()
        };
        assert_eq!(emulator.as_str(), &name[..(MAX_STR_LEN - 1) as usize]);

        // Error-frame messages clip the same way.
        let msg = "m".repeat(MAX_STR_LEN as usize + 100);
        let decoded = decode_error_payload(&encode_error_payload(&msg)).unwrap();
        assert_eq!(decoded.len(), MAX_STR_LEN as usize);
    }

    #[test]
    fn product_geometry_must_match_its_values() {
        let mut e = Enc::new();
        e.u8(RESP_PRODUCT);
        e.u32(4); // realizations
        e.u64(5); // rows — claims 4×5×2 = 40 values
        e.u64(2); // values_per_row
        e.values(ValuesBuf::Vec(vec![1.0, 2.0, 3.0]), 0..3); // … but carries 3
        let payload = e.into_payload();
        let mut d = Dec::new(&payload);
        assert!(matches!(
            decode_response(&mut d),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn product_geometry_overflow_is_rejected() {
        let mut e = Enc::new();
        e.u8(RESP_PRODUCT);
        e.u32(u32::MAX);
        e.u64(u64::MAX); // realizations × rows overflows u64
        e.u64(2);
        e.values(ValuesBuf::Vec(Vec::new()), 0..0);
        let payload = e.into_payload();
        let mut d = Dec::new(&payload);
        assert!(matches!(
            decode_response(&mut d),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn window_presence_byte_must_be_canonical() {
        // A descriptor whose time-window presence byte is 2: exactly one
        // wire form per descriptor, so anything but 0/1 is malformed.
        let mut e = Enc::new();
        e.u32(1);
        e.u8(REQ_PRODUCT);
        e.u8(PS_MEMBER);
        e.str("a");
        e.str("m");
        e.u8(ST_RAW);
        e.u8(2); // hostile presence byte
        let err = decode_request_batch(&e.into_payload()).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn unknown_product_tags_are_typed_errors() {
        for (source_tag, stat_tag) in [(9, ST_RAW), (PS_MEMBER, 9)] {
            let mut e = Enc::new();
            e.u32(1);
            e.u8(REQ_PRODUCT);
            e.u8(source_tag);
            e.str("a");
            e.str("m");
            e.u8(stat_tag);
            e.u8(0);
            e.u8(0);
            assert!(matches!(
                decode_request_batch(&e.into_payload()),
                Err(WireError::Malformed(_))
            ));
        }
    }

    /// Writer that accepts at most one byte per call, forcing the
    /// write-drain through every partial-write resume path.
    struct TrickleWriter(Vec<u8>);

    impl Write for TrickleWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if buf.is_empty() {
                return Ok(0);
            }
            self.0.push(buf[0]);
            Ok(1)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            for b in bufs {
                if !b.is_empty() {
                    return self.write(b);
                }
            }
            Ok(0)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn error_payload_round_trips() {
        let payload = encode_error_payload("unsupported wire version 3");
        assert_eq!(
            decode_error_payload(&payload).unwrap(),
            "unsupported wire version 3"
        );
    }

    #[test]
    fn segmented_body_matches_contiguous_encoding() {
        let batch = sample_responses();
        let body = ResponseBody::from_responses(batch.clone());
        assert_eq!(body.to_payload(), encode_response_batch(&batch));
        assert_eq!(body.total_len(), encode_response_batch(&batch).len());
    }

    #[test]
    fn streamed_fragments_reassemble_bit_identically() {
        let batch = sample_responses();
        let expect = encode_response_batch(&batch);
        // Sweep fragment sizes across the awkward boundaries: 1 byte,
        // primes, exactly-total, larger-than-total and 0 (one fragment).
        for chunk in [1usize, 7, 64, 333, expect.len() - 1, expect.len(), 0] {
            let body = ResponseBody::from_responses(batch.clone());
            let mut s = FrameStream::response(body, 99, chunk).unwrap();
            let mut reasm = StreamReassembler::new();
            let mut got = None;
            let mut frames = 0u32;
            while let Some(frame) = s.next_frame() {
                frames += 1;
                let bytes = frame.to_bytes(s.body());
                let (header, payload) = decode_frame(&bytes).unwrap();
                assert_eq!((header.kind, header.id), (FrameKind::Stream, 99));
                if s.is_streamed() {
                    assert!(payload.len() <= chunk, "fragment over chunk");
                }
                if let Some(done) = reasm.push(&header, payload.to_vec()).unwrap() {
                    got = Some(done);
                }
            }
            assert_eq!(frames, s.frames_emitted());
            assert_eq!(s.is_streamed(), frames > 1, "chunk {chunk}");
            assert_eq!(got.as_deref(), Some(&expect[..]), "chunk {chunk}");
        }
    }

    /// The frames of a fixed multi-fragment response — headers with their
    /// per-fragment CRCs, folded across segment seams — pinned to values
    /// recorded before the checksum kernel last changed.
    #[test]
    fn fixed_fragment_stream_bytes_are_pinned() {
        let mut batch = sample_responses();
        batch.push(Ok(Response::Slice(SliceData {
            archive: "era5".to_string(),
            member: "u10".to_string(),
            range: 0..30,
            values_per_slice: 100,
            values: (0..3000)
                .map(|i| 250.0 + f64::from(i % 977) / 8.0)
                .collect(),
        })));
        let mut s = FrameStream::response(ResponseBody::from_responses(batch), 42, 1000).unwrap();
        let mut frames = 0u32;
        let mut fnv = 0xCBF2_9CE4_8422_2325u64;
        while let Some(f) = s.next_frame() {
            frames += 1;
            for b in f.to_bytes(s.body()) {
                fnv = (fnv ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
            }
        }
        assert_eq!(
            (frames, s.total_len(), fnv),
            (26, 25_108, 0x0ed8_1c3a_a19c_a47f)
        );
    }

    #[test]
    fn small_response_is_one_fin_fragment() {
        let batch = sample_responses();
        let payload = encode_response_batch(&batch);
        for chunk in [0, payload.len(), payload.len() + 1] {
            let body = ResponseBody::from_responses(batch.clone());
            let mut s = FrameStream::response(body, 5, chunk).unwrap();
            assert!(!s.is_streamed());
            let frame = s.next_frame().unwrap();
            assert!(frame.last);
            assert!(s.next_frame().is_none());
            // Byte-identical to the whole-frame encoder's stream frame…
            let bytes = frame.to_bytes(s.body());
            assert_eq!(bytes, encode_frame(FrameKind::Stream, 5, &payload).unwrap());
            let (header, got) = decode_frame(&bytes).unwrap();
            assert_eq!(header.stream, Some(StreamPos { seq: 0, fin: true }));
            // …and the reassembler hands back the very buffer it was given.
            let pushed = got.to_vec();
            let ptr = pushed.as_ptr();
            let done = StreamReassembler::new().push(&header, pushed).unwrap();
            assert_eq!(done.as_ref().map(|d| d.as_ptr()), Some(ptr));
            assert_eq!(done.unwrap(), payload);
        }
    }

    /// Drives the server's write-drain loop — gather a frame's unwritten
    /// tail with `remaining_slices`, `write_vectored` it, repeat until
    /// `total_len` — through a one-byte-per-call writer, so a segmented
    /// body is resumed at every byte offset.
    #[test]
    fn remaining_slices_resume_under_trickle_and_match_to_bytes() {
        let batch = sample_responses();
        let expect: Vec<u8> = {
            let mut s =
                FrameStream::response(ResponseBody::from_responses(batch.clone()), 3, 100).unwrap();
            let mut all = Vec::new();
            while let Some(f) = s.next_frame() {
                all.extend_from_slice(&f.to_bytes(s.body()));
            }
            all
        };
        for chunk in [100usize, 0] {
            // chunk 0 — one fragment, same machinery.
            let mut s =
                FrameStream::response(ResponseBody::from_responses(batch.clone()), 3, chunk)
                    .unwrap();
            let mut trickle = TrickleWriter(Vec::new());
            let mut owned_peak = 0;
            while let Some(frame) = s.next_frame() {
                owned_peak = owned_peak.max(frame.owned_len(s.body()));
                let total = frame.total_len();
                let mut written = 0;
                let mut bufs = Vec::new();
                while written < total {
                    bufs.clear();
                    frame.remaining_slices(s.body(), written, &mut bufs, MAX_WRITE_IOV);
                    written += trickle.write_vectored(&bufs).unwrap();
                }
            }
            // Every frame's owned footprint stays below header + small
            // metadata runs — far below the payload itself.
            assert!(owned_peak < trickle.0.len());
            if chunk == 100 {
                assert!(s.is_streamed());
                assert_eq!(trickle.0, expect);
            } else {
                assert_eq!(s.frames_emitted(), 1);
                let single = encode_frame(FrameKind::Stream, 3, &encode_response_batch(&batch));
                assert_eq!(trickle.0, single.unwrap());
            }
        }
    }

    #[test]
    fn reassembler_rejects_sequencing_violations() {
        let batch = sample_responses();
        let mut s = FrameStream::response(ResponseBody::from_responses(batch), 11, 64).unwrap();
        let mut frames = Vec::new();
        while let Some(f) = s.next_frame() {
            frames.push(f.to_bytes(s.body()));
        }
        assert!(frames.len() >= 3, "need several fragments for this test");
        let decode = |bytes: &[u8]| {
            let (h, p) = decode_frame(bytes).unwrap();
            (h, p.to_vec())
        };

        // First fragment must be seq 0.
        let (h1, p1) = decode(&frames[1]);
        let mut r = StreamReassembler::new();
        assert_eq!(
            r.push(&h1, p1.clone()).unwrap_err(),
            WireError::StreamSequence {
                expected: 0,
                got: 1
            }
        );

        // Duplicate seq.
        let (h0, p0) = decode(&frames[0]);
        let mut r = StreamReassembler::new();
        r.push(&h0, p0.clone()).unwrap();
        assert_eq!(
            r.push(&h0, p0.clone()).unwrap_err(),
            WireError::StreamSequence {
                expected: 1,
                got: 0
            }
        );

        // Skipped seq.
        let (h2, p2) = decode(&frames[2]);
        let mut r = StreamReassembler::new();
        r.push(&h0, p0.clone()).unwrap();
        assert_eq!(
            r.push(&h2, p2).unwrap_err(),
            WireError::StreamSequence {
                expected: 1,
                got: 2
            }
        );

        // Foreign id spliced mid-stream.
        let mut r = StreamReassembler::new();
        r.push(&h0, p0).unwrap();
        let mut alien = h1;
        alien.id = 999;
        assert_eq!(
            r.push(&alien, p1).unwrap_err(),
            WireError::StreamInterleaved {
                expected: 11,
                got: 999
            }
        );

        // The happy path still completes after all that rejection.
        let mut r = StreamReassembler::new();
        let mut done = None;
        for f in &frames {
            let (h, p) = decode(f);
            if let Some(out) = r.push(&h, p).unwrap() {
                done = Some(out);
            }
        }
        assert!(done.is_some());
        assert!(!r.in_progress());
    }
}
