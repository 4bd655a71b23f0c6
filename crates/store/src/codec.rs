//! Payload codecs.
//!
//! Field chunks pass through two stages: a **precision stage** narrowing
//! `f64` values to the stored width (the same DP/SP/HP lattice the paper's
//! tile Cholesky uses), and an optional **compression stage** — byte
//! shuffle followed by run-length encoding with varint lengths. Shuffling
//! groups the k-th byte of every value together; on smooth geophysical
//! fields the exponent/high-mantissa planes are nearly constant along
//! space, so they collapse into long runs the RLE stage removes. Both
//! stages are exactly invertible at the stored precision: `F32` decodes
//! bit-identically to `(x as f32) as f64`.

use crate::format::ArchiveError;
use exaclim_linalg::f16::{narrow_f64_into, widen_f64_into, Half};

/// Values per stack buffer of the binary16 slice conversions.
const F16_CHUNK: usize = 256;

/// Precision/compression codec of a field member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Little-endian `f64`, uncompressed (8 B/value).
    Raw64,
    /// Little-endian `f32` (4 B/value) — the ERA5/CMIP archive convention.
    F32,
    /// IEEE binary16 with round-to-nearest-even (2 B/value).
    F16,
    /// `F32` + byte shuffle + RLE (the archive workhorse).
    F32Shuffle,
    /// `F16` + byte shuffle + RLE (smallest, coarsest).
    F16Shuffle,
}

impl Codec {
    /// All codecs, for sweeps in benches and tests.
    pub const ALL: [Codec; 5] = [
        Codec::Raw64,
        Codec::F32,
        Codec::F16,
        Codec::F32Shuffle,
        Codec::F16Shuffle,
    ];

    /// Wire id.
    pub fn id(self) -> u8 {
        match self {
            Codec::Raw64 => 0,
            Codec::F32 => 1,
            Codec::F16 => 2,
            Codec::F32Shuffle => 3,
            Codec::F16Shuffle => 4,
        }
    }

    /// Parse a wire id.
    pub fn from_id(id: u8) -> Result<Self, ArchiveError> {
        match id {
            0 => Ok(Codec::Raw64),
            1 => Ok(Codec::F32),
            2 => Ok(Codec::F16),
            3 => Ok(Codec::F32Shuffle),
            4 => Ok(Codec::F16Shuffle),
            other => Err(ArchiveError::UnknownCodec(other)),
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Codec::Raw64 => "raw64",
            Codec::F32 => "f32",
            Codec::F16 => "f16",
            Codec::F32Shuffle => "f32+shuffle-rle",
            Codec::F16Shuffle => "f16+shuffle-rle",
        }
    }

    /// Bytes per value before compression.
    pub fn value_width(self) -> usize {
        match self {
            Codec::Raw64 => 8,
            Codec::F32 | Codec::F32Shuffle => 4,
            Codec::F16 | Codec::F16Shuffle => 2,
        }
    }

    /// The value a stored sample decodes to — the quantization this codec
    /// applies. `Raw64` is the identity.
    pub fn quantize(self, x: f64) -> f64 {
        match self {
            Codec::Raw64 => x,
            Codec::F32 | Codec::F32Shuffle => (x as f32) as f64,
            Codec::F16 | Codec::F16Shuffle => Half::from_f64(x).to_f64(),
        }
    }

    /// Encode a chunk of values.
    pub fn encode(self, values: &[f64]) -> Vec<u8> {
        let planar = match self {
            Codec::Raw64 => {
                let mut out = Vec::with_capacity(values.len() * 8);
                for &v in values {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                return out;
            }
            Codec::F32 => {
                let mut out = Vec::with_capacity(values.len() * 4);
                for &v in values {
                    out.extend_from_slice(&(v as f32).to_le_bytes());
                }
                return out;
            }
            Codec::F16 => {
                let mut out = Vec::with_capacity(values.len() * 2);
                let mut bits = [0u16; F16_CHUNK];
                for v in values.chunks(F16_CHUNK) {
                    let bits = &mut bits[..v.len()];
                    narrow_f64_into(v, bits);
                    out.extend(bits.iter().flat_map(|h| h.to_le_bytes()));
                }
                return out;
            }
            Codec::F32Shuffle => {
                let mut raw = Vec::with_capacity(values.len() * 4);
                for &v in values {
                    raw.extend_from_slice(&(v as f32).to_le_bytes());
                }
                shuffle(&raw, 4)
            }
            Codec::F16Shuffle => {
                let mut raw = Vec::with_capacity(values.len() * 2);
                for &v in values {
                    raw.extend_from_slice(&Half::from_f64(v).0.to_le_bytes());
                }
                shuffle(&raw, 2)
            }
        };
        rle_encode(&planar)
    }

    /// Decode a chunk back to `n_values` values.
    ///
    /// Shuffle codecs decode straight from the RLE-expanded **planar**
    /// layout into the output vector: byte plane `k` of value `i` lives at
    /// `planar[k * n + i]`, so values are gathered plane-wise without ever
    /// materializing the unshuffled byte stream. One intermediate buffer
    /// (the RLE expansion) instead of the previous three-stage
    /// `rle_decode → unshuffle → copy` chain — this is the hot path of
    /// every cold chunk fetch in the serving layer.
    pub fn decode(self, bytes: &[u8], n_values: usize) -> Result<Vec<f64>, ArchiveError> {
        let width = self.value_width();
        let expected = n_values
            .checked_mul(width)
            .ok_or_else(|| ArchiveError::Corrupt("chunk size overflows".to_string()))?;
        let mut out = Vec::with_capacity(n_values);
        match self {
            Codec::Raw64 | Codec::F32 | Codec::F16 => {
                if bytes.len() != expected {
                    return Err(ArchiveError::Corrupt(format!(
                        "chunk payload is {} bytes, expected {expected} ({n_values} values × {width})",
                        bytes.len()
                    )));
                }
                match self {
                    Codec::Raw64 => {
                        for c in bytes.chunks_exact(8) {
                            out.push(f64::from_le_bytes(c.try_into().unwrap()));
                        }
                    }
                    Codec::F32 => {
                        for c in bytes.chunks_exact(4) {
                            out.push(f32::from_le_bytes(c.try_into().unwrap()) as f64);
                        }
                    }
                    _ => {
                        out.resize(n_values, 0.0);
                        let mut bits = [0u16; F16_CHUNK];
                        for (c, o) in bytes.chunks(2 * F16_CHUNK).zip(out.chunks_mut(F16_CHUNK)) {
                            let bits = &mut bits[..o.len()];
                            for (h, c) in bits.iter_mut().zip(c.chunks_exact(2)) {
                                *h = u16::from_le_bytes([c[0], c[1]]);
                            }
                            widen_f64_into(bits, o);
                        }
                    }
                }
            }
            Codec::F32Shuffle => {
                let planar = rle_decode(bytes, expected)?;
                let n = n_values;
                let (p0, rest) = planar.split_at(n);
                let (p1, rest) = rest.split_at(n);
                let (p2, p3) = rest.split_at(n);
                for i in 0..n {
                    let raw = u32::from_le_bytes([p0[i], p1[i], p2[i], p3[i]]);
                    out.push(f32::from_bits(raw) as f64);
                }
            }
            Codec::F16Shuffle => {
                let planar = rle_decode(bytes, expected)?;
                let (p0, p1) = planar.split_at(n_values);
                for i in 0..n_values {
                    out.push(Half(u16::from_le_bytes([p0[i], p1[i]])).to_f64());
                }
            }
        }
        Ok(out)
    }
}

/// Snapshot-blob codec: raw bytes or RLE-compressed bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteCodec {
    /// Stored verbatim.
    Raw,
    /// Run-length encoded with varint lengths: runs of equal bytes (zeros,
    /// repeated values) shrink, anything else costs at most a few bytes
    /// per literal run.
    Rle,
}

impl ByteCodec {
    /// Wire id (shares the namespace of [`Codec`] ids within snapshot
    /// members).
    pub fn id(self) -> u8 {
        match self {
            ByteCodec::Raw => 0,
            ByteCodec::Rle => 1,
        }
    }

    /// Parse a wire id.
    pub fn from_id(id: u8) -> Result<Self, ArchiveError> {
        match id {
            0 => Ok(ByteCodec::Raw),
            1 => Ok(ByteCodec::Rle),
            other => Err(ArchiveError::UnknownCodec(other)),
        }
    }

    /// Encode a blob chunk.
    pub fn encode(self, bytes: &[u8]) -> Vec<u8> {
        match self {
            ByteCodec::Raw => bytes.to_vec(),
            ByteCodec::Rle => rle_encode(bytes),
        }
    }

    /// Decode a blob chunk of known decoded size.
    pub fn decode(self, bytes: &[u8], raw_len: usize) -> Result<Vec<u8>, ArchiveError> {
        let mut out = Vec::with_capacity(raw_len);
        self.decode_into(bytes, raw_len, &mut out)?;
        Ok(out)
    }

    /// Decode a blob chunk, **appending** its `raw_len` decoded bytes to
    /// `out` — the multi-chunk snapshot read path concatenates chunks
    /// directly into its result buffer instead of decoding each chunk to
    /// a temporary and copying it over.
    pub fn decode_into(
        self,
        bytes: &[u8],
        raw_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), ArchiveError> {
        match self {
            ByteCodec::Raw => {
                if bytes.len() != raw_len {
                    return Err(ArchiveError::Corrupt(format!(
                        "raw blob chunk is {} bytes, expected {raw_len}",
                        bytes.len()
                    )));
                }
                out.extend_from_slice(bytes);
                Ok(())
            }
            ByteCodec::Rle => rle_decode_into(bytes, raw_len, out),
        }
    }
}

// ------------------------------------------------------------ shuffle/RLE

/// Byte shuffle: gather byte plane `k` of every `width`-byte value into a
/// contiguous run (`data.len()` must be a multiple of `width`).
fn shuffle(data: &[u8], width: usize) -> Vec<u8> {
    debug_assert_eq!(data.len() % width, 0);
    let n = data.len() / width;
    let mut out = vec![0u8; data.len()];
    for (i, v) in data.chunks_exact(width).enumerate() {
        for (k, &b) in v.iter().enumerate() {
            out[k * n + i] = b;
        }
    }
    out
}

/// Append `value` as a LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read a LEB128 varint at `*pos`, advancing it.
fn get_varint(data: &[u8], pos: &mut usize) -> Result<u64, ArchiveError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = data
            .get(*pos)
            .ok_or_else(|| ArchiveError::Corrupt("varint past end of chunk".to_string()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(ArchiveError::Corrupt("varint overflow".to_string()));
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Run-length encode: a stream of ops, each a varint `v` followed by
/// payload — `v & 1 == 0` is a *run* (`v >> 1` copies of the next byte),
/// `v & 1 == 1` is a *literal* (`v >> 1` verbatim bytes). Runs shorter
/// than 4 bytes are folded into literals so pathological inputs cost at
/// most a few bytes per 127 of payload.
pub fn rle_encode(data: &[u8]) -> Vec<u8> {
    const MIN_RUN: usize = 4;
    let mut out = Vec::with_capacity(data.len() / 4 + 16);
    let mut i = 0;
    let mut lit_start = 0;
    while i < data.len() {
        // Measure the run at i.
        let b = data[i];
        let mut j = i + 1;
        while j < data.len() && data[j] == b {
            j += 1;
        }
        let run = j - i;
        if run >= MIN_RUN {
            if lit_start < i {
                let lit = &data[lit_start..i];
                put_varint(&mut out, ((lit.len() as u64) << 1) | 1);
                out.extend_from_slice(lit);
            }
            put_varint(&mut out, (run as u64) << 1);
            out.push(b);
            i = j;
            lit_start = i;
        } else {
            i = j;
        }
    }
    if lit_start < data.len() {
        let lit = &data[lit_start..];
        put_varint(&mut out, ((lit.len() as u64) << 1) | 1);
        out.extend_from_slice(lit);
    }
    out
}

/// Inverse of [`rle_encode`]; `raw_len` is the expected decoded size.
pub fn rle_decode(data: &[u8], raw_len: usize) -> Result<Vec<u8>, ArchiveError> {
    let mut out = Vec::with_capacity(raw_len);
    rle_decode_into(data, raw_len, &mut out)?;
    Ok(out)
}

/// [`rle_decode`] **appending** to an existing buffer: decodes exactly
/// `raw_len` bytes onto the end of `out`, so multi-chunk payloads can be
/// concatenated without a temporary per chunk. On error `out` is
/// truncated back to its original length.
pub fn rle_decode_into(data: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Result<(), ArchiveError> {
    let base = out.len();
    let result = rle_decode_append(data, raw_len, out, base);
    if result.is_err() {
        out.truncate(base);
    }
    result
}

/// Body of [`rle_decode_into`]; may leave a partial append behind on
/// error (the wrapper truncates).
fn rle_decode_append(
    data: &[u8],
    raw_len: usize,
    out: &mut Vec<u8>,
    base: usize,
) -> Result<(), ArchiveError> {
    out.reserve(raw_len);
    let mut pos = 0;
    while pos < data.len() {
        let v = get_varint(data, &mut pos)?;
        let count = (v >> 1) as usize;
        if out.len() - base + count > raw_len {
            return Err(ArchiveError::Corrupt(format!(
                "RLE stream decodes past expected size {raw_len}"
            )));
        }
        if v & 1 == 0 {
            let &b = data
                .get(pos)
                .ok_or_else(|| ArchiveError::Corrupt("RLE run past end".to_string()))?;
            pos += 1;
            out.resize(out.len() + count, b);
        } else {
            let lit = data
                .get(pos..pos + count)
                .ok_or_else(|| ArchiveError::Corrupt("RLE literal past end".to_string()))?;
            pos += count;
            out.extend_from_slice(lit);
        }
    }
    if out.len() - base != raw_len {
        return Err(ArchiveError::Corrupt(format!(
            "RLE stream decodes to {} bytes, expected {raw_len}",
            out.len() - base
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wavy(n: usize) -> Vec<f64> {
        // Smooth "temperature-like" field: 300 K baseline, gentle waves.
        (0..n)
            .map(|i| 300.0 + 15.0 * (i as f64 * 0.01).sin() + 2.0 * (i as f64 * 0.1).cos())
            .collect()
    }

    #[test]
    fn raw64_roundtrips_exactly() {
        let xs = wavy(1000);
        let enc = Codec::Raw64.encode(&xs);
        assert_eq!(enc.len(), 8000);
        assert_eq!(Codec::Raw64.decode(&enc, 1000).unwrap(), xs);
    }

    #[test]
    fn narrow_codecs_roundtrip_at_their_precision() {
        let xs = wavy(512);
        for codec in [Codec::F32, Codec::F16, Codec::F32Shuffle, Codec::F16Shuffle] {
            let enc = codec.encode(&xs);
            let dec = codec.decode(&enc, xs.len()).unwrap();
            for (a, b) in xs.iter().zip(&dec) {
                assert_eq!(codec.quantize(*a), *b, "{}", codec.label());
            }
            // Quantization is idempotent: re-encoding the decoded values
            // is lossless.
            let enc2 = codec.encode(&dec);
            assert_eq!(codec.decode(&enc2, xs.len()).unwrap(), dec);
        }
    }

    #[test]
    fn f16_slice_conversions_match_the_scalar_half_loop() {
        // Every binary16 pattern (NaN payloads, subnormals, signed zeros,
        // infinities) widened, then narrowed back from f64 with four more
        // values, which leave the last buffer ragged.
        let bytes: Vec<u8> = (0..=u16::MAX).flat_map(u16::to_le_bytes).collect();
        let got = Codec::F16.decode(&bytes, 1 << 16).unwrap();
        for (h, v) in (0..=u16::MAX).zip(&got) {
            assert_eq!(v.to_bits(), Half(h).to_f64().to_bits(), "{h:#06x}");
        }
        let mut xs = got;
        xs.extend([1.0 + 2f64.powi(-11) + 2f64.powi(-40), 1e-300, -1e300, 7.0]);
        let want: Vec<u8> = xs
            .iter()
            .flat_map(|&v| Half::from_f64(v).0.to_le_bytes())
            .collect();
        assert_eq!(Codec::F16.encode(&xs), want);
    }

    #[test]
    fn shuffle_rle_compresses_smooth_fields() {
        let xs = wavy(4096);
        let plain = Codec::F32.encode(&xs).len();
        let packed = Codec::F32Shuffle.encode(&xs).len();
        assert!(
            packed < plain,
            "shuffle+RLE must beat raw f32 on smooth data: {packed} vs {plain}"
        );
    }

    #[test]
    fn rle_handles_pathological_inputs() {
        // Incompressible pseudo-random bytes: bounded overhead, exact
        // round-trip.
        let mut x = 0x12345678u32;
        let noise: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        let enc = rle_encode(&noise);
        assert!(enc.len() < noise.len() + noise.len() / 64 + 16);
        assert_eq!(rle_decode(&enc, noise.len()).unwrap(), noise);
        // All-equal input collapses to a few bytes.
        let flat = vec![7u8; 100_000];
        let enc = rle_encode(&flat);
        assert!(enc.len() < 8, "run encoding: {} bytes", enc.len());
        assert_eq!(rle_decode(&enc, flat.len()).unwrap(), flat);
        // Empty input.
        assert_eq!(rle_decode(&rle_encode(&[]), 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn rle_rejects_wrong_decoded_size() {
        let enc = rle_encode(&[1, 2, 3, 4, 5]);
        assert!(matches!(rle_decode(&enc, 4), Err(ArchiveError::Corrupt(_))));
        assert!(matches!(rle_decode(&enc, 6), Err(ArchiveError::Corrupt(_))));
        assert!(matches!(
            rle_decode(&[0x80], 1),
            Err(ArchiveError::Corrupt(_))
        ));
    }

    /// Reference inverse of [`shuffle`], kept only to pin the plane-gather
    /// decode to the original two-pass definition.
    fn unshuffle(data: &[u8], width: usize) -> Vec<u8> {
        let n = data.len() / width;
        let mut out = vec![0u8; data.len()];
        for i in 0..n {
            for k in 0..width {
                out[i * width + k] = data[k * n + i];
            }
        }
        out
    }

    #[test]
    fn plane_gather_decode_matches_unshuffle_reference() {
        let xs = wavy(777);
        for codec in [Codec::F32Shuffle, Codec::F16Shuffle] {
            let width = codec.value_width();
            let enc = codec.encode(&xs);
            let got = codec.decode(&enc, xs.len()).unwrap();
            // Reference path: RLE-expand, unshuffle, then read values.
            let flat = unshuffle(&rle_decode(&enc, xs.len() * width).unwrap(), width);
            let want: Vec<f64> = match codec {
                Codec::F32Shuffle => flat
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().unwrap()) as f64)
                    .collect(),
                _ => flat
                    .chunks_exact(2)
                    .map(|c| Half(u16::from_le_bytes(c.try_into().unwrap())).to_f64())
                    .collect(),
            };
            assert_eq!(got, want, "{}", codec.label());
        }
    }

    #[test]
    fn decode_into_appends_and_restores_on_error() {
        let blob = b"snapshot payload with runs:    aaaaaaa".to_vec();
        for bc in [ByteCodec::Raw, ByteCodec::Rle] {
            let enc = bc.encode(&blob);
            let mut out = b"prefix".to_vec();
            bc.decode_into(&enc, blob.len(), &mut out).unwrap();
            assert_eq!(&out[..6], b"prefix");
            assert_eq!(&out[6..], &blob[..]);
            // Wrong expected size: error, buffer back to the prefix.
            let mut out = b"prefix".to_vec();
            assert!(bc.decode_into(&enc, blob.len() + 1, &mut out).is_err());
            assert_eq!(out, b"prefix");
        }
    }

    #[test]
    fn byte_codec_roundtrips() {
        let blob = br#"{"config":{"lmax":8},"factor":[0.0,0.0,0.0,0.0]}"#.to_vec();
        for bc in [ByteCodec::Raw, ByteCodec::Rle] {
            let enc = bc.encode(&blob);
            assert_eq!(bc.decode(&enc, blob.len()).unwrap(), blob);
        }
    }

    #[test]
    fn codec_ids_roundtrip() {
        for c in Codec::ALL {
            assert_eq!(Codec::from_id(c.id()).unwrap(), c);
        }
        assert!(matches!(
            Codec::from_id(250),
            Err(ArchiveError::UnknownCodec(250))
        ));
    }

    #[test]
    fn varint_edge_values() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }
}
