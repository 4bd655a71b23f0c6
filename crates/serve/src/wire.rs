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
        responses.put_owned(&mut e);
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
    /// Append chunk parts to the value array just written, an empty one
    /// whose zero count ends the owned run: the count becomes the parts'
    /// total and each part one run of the array (the chunk-parts form of
    /// a slice response).
    fn extend_values(&mut self, parts: Vec<(Arc<[f64]>, Range<usize>)>) {
        let count = self.cur.len() - 8;
        assert_eq!(
            self.cur[count..],
            [0; 8],
            "an empty value array ends the run"
        );
        let total: usize = parts.iter().map(|(_, r)| r.len()).sum();
        self.cur[count..].copy_from_slice(&(total as u64).to_le_bytes());
        for (chunk, r) in parts {
            self.values_run(ValuesBuf::Arc(chunk), r);
        }
    }
    /// One un-prefixed run of values. Bit-identical to copying the values
    /// byte by byte: the wire encoding of an f64 is its little-endian bit
    /// pattern either way.
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

    /// The error for a read of `n` bytes past the end of the payload.
    fn short(&self, n: usize, context: &str) -> WireError {
        WireError::Malformed(format!(
            "{context}: need {n} bytes, {} remain",
            self.remaining()
        ))
    }

    fn take(&mut self, n: usize, context: &str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(self.short(n, context));
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
// Message codecs
// ---------------------------------------------------------------------------

/// A type's wire form. Each message type is declared once with [`wire!`],
/// which writes its impl; its field types' impls follow the declarations.
trait Wire: Sized {
    /// A lower bound on any value's encoded size, which guards list counts.
    const MIN: usize;
    fn put(&self, e: &mut Enc);
    /// [`Wire::put`] by value: value arrays move into borrowed segments.
    fn put_owned(self, e: &mut Enc) {
        self.put(e);
    }
    fn get(d: &mut Dec, context: &'static str) -> Result<Self, WireError>;
}

/// Declare a type's wire form once: a struct's fields, or an enum's tags,
/// variants and fields, in wire order and with their types. This writes
/// the type's [`Wire`] impl: encoders whose `match` has no catch-all, so an
/// undeclared variant does not compile; a decoder whose contexts name the
/// type, variant and field, whose undeclared tags are [`unknown_tag`], and
/// which runs `check` on each value; and `MIN`, the fields' sum for a
/// struct and the tag byte for an enum.
macro_rules! wire {
    (enum $ty:ident $(<$($g:ident),*>)? { $(
        $tag:literal => $var:ident $(($x:ident: $xty:ty))? $({ $($f:ident: $fty:ty),* })?,
    )* } $(check $check:expr)?) => {
        impl$(<$($g: Wire),*>)? Wire for $ty$(<$($g),*>)? {
            const MIN: usize = 1;
            fn put(&self, e: &mut Enc) {
                match self {$($ty::$var $(($x))? $({ $($f),* })? => {
                    e.u8($tag);
                    $(Wire::put($x, e);)? $($(Wire::put($f, e);)*)?
                })*}
            }
            fn put_owned(self, e: &mut Enc) {
                match self {$($ty::$var $(($x))? $({ $($f),* })? => {
                    e.u8($tag);
                    $(Wire::put_owned($x, e);)? $($(Wire::put_owned($f, e);)*)?
                })*}
            }
            fn get(d: &mut Dec, _: &'static str) -> Result<Self, WireError> {
                let value = match d.u8(stringify!($ty tag))? {
                    $($tag => $ty::$var
                        $((<$xty as Wire>::get(d, stringify!($ty $var))?))?
                        $({ $($f: <$fty as Wire>::get(d, stringify!($ty $var $f))?),* })?,)*
                    other => return Err(unknown_tag(stringify!($ty), other)),
                };
                $(($check)(&value)?;)?
                Ok(value)
            }
        }
    };
    (struct $ty:ident { $($f:ident: $fty:ty),* $(,)? } $(check $check:expr)?) => {
        impl Wire for $ty {
            const MIN: usize = 0 $(+ <$fty as Wire>::MIN)*;
            fn put(&self, e: &mut Enc) {
                $(<$fty as Wire>::put(&self.$f, e);)*
            }
            fn put_owned(self, e: &mut Enc) {
                $(<$fty as Wire>::put_owned(self.$f, e);)*
            }
            fn get(d: &mut Dec, _: &'static str) -> Result<Self, WireError> {
                let value = $ty { $($f: <$fty as Wire>::get(d, stringify!($ty $f))?,)* };
                $(($check)(&value)?;)?
                Ok(value)
            }
        }
    };
}

/// The one error for a tag that no declaration lists.
fn unknown_tag(ty: &str, tag: u8) -> WireError {
    WireError::Malformed(format!("unknown {ty} tag {tag}"))
}

// Requests.
wire! { enum Request {
    1 => Slice(slice: SliceRequest),
    2 => Emulate { emulator: String, t_max: usize, seed: u64 },
    3 => Catalog(query: CatalogQuery),
    4 => Stats,
    5 => Product(descriptor: ProductDescriptor),
    6 => Ensemble(spec: ScenarioSpec),
    7 => WithDeadline { budget_ms: u32, request: Box<Request> },
} check one_deadline_level }
wire! { enum CatalogQuery {
    1 => ListArchives,
    2 => ListMembers { archive: String },
    3 => MemberInfo { archive: String, member: String },
    4 => ListEmulators,
} }
wire! { struct SliceRequest { archive: String, member: String, range: Range<u64> } }
wire! { struct ScenarioSpec { emulator: String, t_max: u64, seed: u64, realizations: u32 } }
wire! { struct ProductDescriptor {
    source: ProductSource, stat: ProductStat, time: Option<Range<u64>>, space: Option<Range<u64>>,
} }
wire! { enum ProductSource {
    1 => Member { archive: String, member: String },
    2 => Ensemble(spec: ScenarioSpec),
} }
wire! { enum ProductStat {
    1 => Raw,
    2 => Anomaly { archive: String, member: String },
    3 => MeanStd,
    4 => Trend,
    5 => Persistence { order: u32 },
    6 => TukeyExtremes { tail_per_mille: u32 },
} }

// Answers: one `Result<Response, ServeError>` per request.
wire! { enum Result<T, E> { 0 => Err(error: E), 1 => Ok(value: T), } }
wire! { enum Response {
    1 => Slice(data: SliceData),
    2 => Emulate(dataset: Dataset),
    3 => Catalog(answer: CatalogAnswer),
    4 => Stats(stats: ServeStats),
    5 => Product(data: ProductData),
} }
wire! { struct SliceData {
    archive: String, member: String, range: Range<u64>, values_per_slice: u64, values: Vec<f64>,
} }
wire! { struct Dataset {
    t_max: usize, npoints: usize, ntheta: usize, nphi: usize, start_year: i64, tau: usize,
    data: Vec<f64>,
} check |ds: &Dataset| geometry("dataset", &[ds.t_max as u64, ds.npoints as u64], &ds.data) }
wire! { struct ProductData {
    realizations: u32, rows: u64, values_per_row: u64, values: Vec<f64>,
} check |p: &ProductData| {
    geometry("product", &[p.realizations.into(), p.rows, p.values_per_row], &p.values)
} }
wire! { enum CatalogAnswer {
    1 => Archives(list: Vec<ArchiveInfo>),
    2 => Members(list: Vec<MemberInfo>),
    3 => Member(info: MemberInfo),
    4 => Emulators(list: Vec<EmulatorInfo>),
} }
wire! { struct ArchiveInfo { name: String, members: usize, total_len: u64 } }
wire! { struct MemberInfo {
    name: String, kind: MemberKind, codec: u8, t_max: u64, values_per_slice: u64, chunks: usize,
    snapshot_version: u32,
} }
wire! { enum MemberKind { 0 => Field, 1 => Snapshot, } }
wire! { struct EmulatorInfo {
    name: String, lmax: usize, grid: (usize, usize), parameter_bytes: usize,
} }
wire! { enum ServeError {
    1 => Archive(error: ArchiveError),
    2 => Emulation(message: String),
    3 => UnknownArchive(name: String),
    4 => UnknownEmulator(name: String),
    5 => BadRequest(message: String),
    6 => Overloaded { retry_after_ms: u32 },
    7 => DeadlineExpired,
    8 => Internal(message: String),
} }
wire! { enum ArchiveError {
    1 => Io(message: String),
    2 => BadMagic,
    3 => BadVersion(version: u16),
    4 => Corrupt(message: String),
    5 => TrailingBytes { expected: u64, actual: u64 },
    6 => TruncatedChunk { member: String, chunk: usize },
    7 => ChecksumMismatch { member: String, chunk: usize },
    8 => UnknownCodec(id: u8),
    9 => MemberNotFound(name: String),
    10 => DuplicateMember(name: String),
    11 => BadRequest(message: String),
} }

/// A deadline wraps one request, never another deadline: a nested wrapper
/// has no meaning, so it is malformed rather than flattened.
fn one_deadline_level(request: &Request) -> Result<(), WireError> {
    match request {
        Request::WithDeadline { request, .. }
            if matches!(**request, Request::WithDeadline { .. }) =>
        {
            Err(WireError::Malformed("nested deadline wrapper".to_string()))
        }
        _ => Ok(()),
    }
}

/// A value array holds exactly the product of its geometry's sizes.
fn geometry(what: &str, dims: &[u64], values: &[f64]) -> Result<(), WireError> {
    let n = values.len();
    match dims.iter().try_fold(1u64, |acc, &dim| acc.checked_mul(dim)) {
        Some(want) if want == n as u64 => Ok(()),
        Some(_) => Err(WireError::Malformed(format!(
            "{what} carries {n} values for {dims:?} geometry"
        ))),
        None => Err(WireError::Malformed(format!(
            "{what} geometry {dims:?} overflows"
        ))),
    }
}

/// The field types: little-endian integers, and `usize` as a `u64` that
/// must fit this target's address space. Each gives its `MIN`, then how a
/// value is put and got.
macro_rules! leaf_wire {
    ($($t:ty = $min:expr, |$v:ident, $e:ident| $put:expr, |$d:ident, $cx:ident| $get:expr;)*) => {$(
        impl Wire for $t {
            const MIN: usize = $min;
            fn put(&self, $e: &mut Enc) {
                let $v = self;
                $put;
            }
            fn get($d: &mut Dec, $cx: &'static str) -> Result<Self, WireError> {
                $get
            }
        }
    )*};
}
leaf_wire! {
    u8 = 1, |v, e| e.u8(*v), |d, cx| d.u8(cx);
    u16 = 2, |v, e| e.u16(*v), |d, cx| d.u16(cx);
    u32 = 4, |v, e| e.u32(*v), |d, cx| d.u32(cx);
    u64 = 8, |v, e| e.u64(*v), |d, cx| d.u64(cx);
    i64 = 8, |v, e| e.i64(*v), |d, cx| d.i64(cx);
    usize = 8, |v, e| e.u64(*v as u64), |d, cx| d.usize(cx);
    // A `u32` byte length, then UTF-8, clipped to `MAX_STR_LEN` (`Enc::str`).
    String = 4, |v, e| e.str(v), |d, cx| d.str(cx);
    Range<u64> = 16, |v, e| (e.u64(v.start), e.u64(v.end)), |d, cx| Ok(d.u64(cx)?..d.u64(cx)?);
    (usize, usize) = 16, |v, e| (v.0.put(e), v.1.put(e)), |d, cx| Ok((d.usize(cx)?, d.usize(cx)?));
    Box<Request> = Request::MIN, |v, e| (**v).put(e), |d, cx| Request::get(d, cx).map(Box::new);
}

/// A presence byte, then the value when it is 1. The byte must be exactly
/// 0 or 1, so every value has one canonical wire form.
impl<T: Wire> Wire for Option<T> {
    const MIN: usize = 1;
    fn put(&self, e: &mut Enc) {
        e.u8(self.is_some().into());
        self.iter().for_each(|v| v.put(e));
    }
    fn get(d: &mut Dec, context: &'static str) -> Result<Self, WireError> {
        match d.u8(context)? {
            0 => Ok(None),
            1 => T::get(d, context).map(Some),
            other => Err(WireError::Malformed(format!(
                "{context}: presence byte is {other}, want 0 or 1"
            ))),
        }
    }
}

/// A list: a `u32` count, then the elements. A count that `T::MIN`-byte
/// elements could not fit in the bytes left is rejected before anything
/// is sized from it.
impl<T: Wire> Wire for Vec<T> {
    const MIN: usize = 4;
    fn put(&self, e: &mut Enc) {
        put_list(self, e);
    }
    fn put_owned(self, e: &mut Enc) {
        e.u32(self.len() as u32);
        self.into_iter().for_each(|v| v.put_owned(e));
    }
    fn get(d: &mut Dec, context: &'static str) -> Result<Self, WireError> {
        let count = d.u32(context)?;
        if u64::from(count) * T::MIN as u64 > d.remaining() as u64 {
            let left = d.remaining();
            return Err(WireError::Malformed(format!(
                "{context}: {count} elements claimed, {left} bytes remain"
            )));
        }
        let mut list = Vec::with_capacity(count as usize);
        for _ in 0..count {
            list.push(T::get(d, context)?);
        }
        Ok(list)
    }
}

/// A value array: a `u64` count, then each value's IEEE 754 bits. It is not
/// a list (`f64` is no [`Wire`] type): [`Dec::f64s`] guards its count, and
/// the values go into the body as one run ([`Enc::values`]), borrowed when
/// owned; by reference, a clone takes the owned path.
impl Wire for Vec<f64> {
    const MIN: usize = 8;
    fn put(&self, e: &mut Enc) {
        self.clone().put_owned(e);
    }
    fn put_owned(self, e: &mut Enc) {
        let n = self.len();
        e.values(ValuesBuf::Vec(self), 0..n);
    }
    fn get(d: &mut Dec, context: &'static str) -> Result<Self, WireError> {
        d.f64s(context)
    }
}

/// Every counter word as a `u64`, in declaration order ([`Counters`]).
impl Wire for ServeStats {
    // Every field is made of `u64` words, so the struct is its wire size.
    const MIN: usize = std::mem::size_of::<ServeStats>();
    fn put(&self, e: &mut Enc) {
        self.fields()
            .flat_map(|(_, words)| words)
            .for_each(|&w| e.u64(w));
    }
    fn get(d: &mut Dec, _: &'static str) -> Result<Self, WireError> {
        let mut stats = ServeStats::default();
        for (name, words) in stats.fields_mut() {
            for w in words {
                // The context names the field, formatted only on failure.
                *w = d
                    .u64("")
                    .map_err(|_| d.short(8, &format!("stats {name}")))?;
            }
        }
        Ok(stats)
    }
}

/// A list's wire form from a borrowed slice.
fn put_list<T: Wire>(items: &[T], e: &mut Enc) {
    e.u32(items.len() as u32);
    items.iter().for_each(|item| item.put(e));
}

/// A borrowed list as a whole payload.
fn list_payload<T: Wire>(items: &[T]) -> Vec<u8> {
    let mut e = Enc::new();
    put_list(items, &mut e);
    e.into_payload()
}

/// Decode one `T` that must fill `payload` exactly: trailing bytes are
/// malformed, mirroring the container's no-trailing-garbage rule.
fn decode_whole<T: Wire>(payload: &[u8], context: &'static str) -> Result<T, WireError> {
    let mut d = Dec::new(payload);
    let value = T::get(&mut d, context)?;
    d.finish(context)?;
    Ok(value)
}

/// Encode a batch of requests as a request-frame payload.
pub fn encode_request_batch(requests: &[Request]) -> Vec<u8> {
    list_payload(requests)
}

/// Decode a request-frame payload; the whole payload must be consumed.
pub fn decode_request_batch(payload: &[u8]) -> Result<Vec<Request>, WireError> {
    decode_whole(payload, "request batch")
}

/// Encode a batch's responses as a response-frame payload: one
/// `Result<Response, ServeError>` per request, in request order. The
/// by-reference twin of [`ResponseBody::from_responses`], from the same
/// declarations, so a streamed body reassembles to exactly these bytes.
pub fn encode_response_batch(responses: &[Result<Response, ServeError>]) -> Vec<u8> {
    list_payload(responses)
}

/// Encode a batch of server [`Reply`](crate::server::Reply)s. A slice
/// reply writes the bytes its materialized [`Response::Slice`] would: the
/// declared answer, whose value array is then the chunk parts, each a
/// borrowed segment of the decoded chunk's `Arc`, so slice payloads are
/// never copied out of the chunk cache.
pub(crate) fn encode_reply_batch(replies: Vec<crate::server::Reply>) -> ResponseBody {
    use crate::server::Reply;
    let mut e = Enc::new();
    e.u32(replies.len() as u32);
    for reply in replies {
        match reply {
            Reply::Full(result) => result.put_owned(&mut e),
            Reply::Slice(data, parts) => {
                Ok::<_, ServeError>(Response::Slice(data)).put_owned(&mut e);
                e.extend_values(parts);
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
    decode_whole(payload, "response batch")
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
    decode_whole(payload, "error message")
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tags the hand-assembled payloads below write, stated apart from
    // the declarations so these tests pin the wire.
    const REQ_PRODUCT: u8 = 5;
    const PS_MEMBER: u8 = 1;
    const ST_RAW: u8 = 1;
    const RESP_SLICE: u8 = 1;
    const RESP_EMULATE: u8 = 2;
    const RESP_PRODUCT: u8 = 5;

    fn decode_response(d: &mut Dec) -> Result<Response, WireError> {
        Response::get(d, "response")
    }

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
            Request::Product(ProductDescriptor {
                source: ProductSource::Member {
                    archive: "era5".to_string(),
                    member: "u10".to_string(),
                },
                stat: ProductStat::Raw,
                time: Some(5..6),
                space: Some(0..1),
            }),
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
            // Appended after the list `fixed_fragment_stream_bytes_are_pinned`
            // pins (the first 15): every variant the list above misses.
            Ok(Response::Catalog(CatalogAnswer::Members(vec![
                MemberInfo {
                    name: "t2m".to_string(),
                    kind: MemberKind::Field,
                    codec: 1,
                    t_max: 100,
                    values_per_slice: 64,
                    chunks: 7,
                    snapshot_version: 0,
                },
                MemberInfo {
                    name: "emulator".to_string(),
                    kind: MemberKind::Snapshot,
                    codec: 0,
                    t_max: 0,
                    values_per_slice: 0,
                    chunks: 2,
                    snapshot_version: 3,
                },
            ]))),
            Err(ServeError::UnknownEmulator("sst-model".to_string())),
            Err(ServeError::Archive(ArchiveError::Io(
                "disk gone".to_string(),
            ))),
            Err(ServeError::Archive(ArchiveError::BadMagic)),
            Err(ServeError::Archive(ArchiveError::BadVersion(0xBEEF))),
            Err(ServeError::Archive(ArchiveError::Corrupt(
                "directory".to_string(),
            ))),
            Err(ServeError::Archive(ArchiveError::TruncatedChunk {
                member: "u10".to_string(),
                chunk: 11,
            })),
            Err(ServeError::Archive(ArchiveError::UnknownCodec(200))),
            Err(ServeError::Archive(ArchiveError::MemberNotFound(
                "v".to_string(),
            ))),
            Err(ServeError::Archive(ArchiveError::DuplicateMember(
                "t2m".to_string(),
            ))),
            Err(ServeError::Archive(ArchiveError::BadRequest(
                "range".to_string(),
            ))),
        ]
    }

    /// The sample batches' encodings, pinned: the wire bytes of every
    /// variant of every message type.
    #[test]
    fn sample_batch_bytes_are_pinned() {
        let requests = encode_request_batch(&sample_requests());
        let responses = encode_response_batch(&sample_responses());
        assert_eq!((requests.len(), crc32(&requests)), (459, 4_144_623_140));
        assert_eq!((responses.len(), crc32(&responses)), (1_252, 363_167_480));
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

    /// Every tagged type's first undeclared tag, one past its last, is
    /// the one typed error naming the type; its last declared tag is not.
    #[test]
    fn unknown_product_tags_are_typed_errors() {
        let s = |x: &str| [&(x.len() as u32).to_le_bytes()[..], x.as_bytes()].concat();
        // (type, request batch?, the bytes after the batch count up to
        // and including the type's tag)
        let cases = [
            ("Request", true, vec![8]),
            ("CatalogQuery", true, vec![3, 5]),
            ("ProductSource", true, vec![REQ_PRODUCT, 3]),
            (
                "ProductStat",
                true,
                [&[REQ_PRODUCT, PS_MEMBER][..], &s("a"), &s("m"), &[7]].concat(),
            ),
            ("Result", false, vec![2]),
            ("Response", false, vec![1, 6]),
            ("CatalogAnswer", false, vec![1, 3, 5]),
            (
                "MemberKind",
                false,
                [&[1, 3, 3][..], &s("t2m"), &[2]].concat(),
            ),
            ("ServeError", false, vec![0, 9]),
            ("ArchiveError", false, vec![0, 1, 12]),
        ];
        for (ty, request, body) in cases {
            let tag = *body.last().unwrap();
            for t in [tag, tag - 1] {
                let mut payload = [&1u32.to_le_bytes()[..], &body].concat();
                *payload.last_mut().unwrap() = t;
                let err = if request {
                    decode_request_batch(&payload).map(drop)
                } else {
                    decode_response_batch(&payload).map(drop)
                }
                .err();
                let unknown = WireError::Malformed(format!("unknown {ty} tag {t}"));
                assert_eq!(err == Some(unknown), t == tag, "{ty} tag {t}: {err:?}");
            }
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
        batch.truncate(15);
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
