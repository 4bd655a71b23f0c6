//! CRC32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`, the checksum
//! gzip and zip use) under every archive chunk, archive directory and wire
//! frame.
//!
//! Two kernels, one result for every input and every incoming state:
//!
//! * the portable **slice-by-8** loop: eight table lookups advance the CRC
//!   over eight bytes at once;
//! * on x86-64 with PCLMULQDQ and SSE4.1, **carry-less-multiply folding**
//!   (Gopal et al., *Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ Instruction*, Intel, 2009): four 128-bit lanes absorb
//!   64 bytes per step, fold into one lane, which absorbs the remaining
//!   16-byte blocks, then reduce 128 → 64 → 32 bits with a final Barrett
//!   step. It takes inputs of at least 128 bytes and hands the last
//!   `< 16` bytes to the slice-by-8 loop.
//!
//! Folding cannot change a bit: a CRC is the remainder of the message
//! polynomial modulo P over GF(2), and each fold replaces a high part of
//! the message by a congruent lower one (a product with `xⁿ mod P`), which
//! keeps the remainder. The constants are recomputed from P by a test.
//!
//! Every `unsafe` block below either calls the `#[target_feature]` kernel,
//! relying on features detected at run time, or is an unaligned 16-byte
//! load, relying on the length of the array it reads. Off x86-64 only the
//! portable loop is compiled.

/// The reflected CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Shortest input the folding kernel takes; shorter ones run slice-by-8.
#[cfg(target_arch = "x86_64")]
const FOLD_MIN_LEN: usize = 128;

/// CRC32 of `bytes` (CRC-32/ISO-HDLC: check value `0xCBF4_3926` for
/// `b"123456789"`).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Streaming form: feed `state` (start from `0xFFFF_FFFF`) through
/// successive buffers, then XOR with `0xFFFF_FFFF` at the end. Splitting
/// the input at any byte boundary yields the same state as one call.
///
/// Runs the PCLMULQDQ folding kernel where the CPU has it and the input is
/// long enough, else slice-by-8; both give the same bits (module doc).
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    update_with(Isa::detected(), state, bytes)
}

/// [`crc32_update`] through the kernel `isa` selects.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn update_with(isa: Isa, state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if isa.pclmul && bytes.len() >= FOLD_MIN_LEN {
        // SAFETY: `isa.pclmul` is set only when PCLMULQDQ and SSE4.1 were
        // detected.
        return unsafe { x86::update_pclmul(state, bytes) };
    }
    slice_by_8(state, bytes)
}

/// Which CRC kernel runs. Its field is private and only `Isa::detected`
/// (and the tests' `Isa::all`) set it, so an `Isa` that selects folding
/// proves PCLMULQDQ and SSE4.1 were detected.
#[derive(Debug, Clone, Copy)]
struct Isa {
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pclmul: bool,
}

impl Isa {
    /// The fastest kernel this CPU runs.
    fn detected() -> Self {
        Self { pclmul: pclmul() }
    }

    /// Every kernel this CPU runs: slice-by-8 always, folding where
    /// detected — so the equality tests cover both on such a machine.
    #[cfg(test)]
    fn all() -> Vec<Self> {
        let mut v = vec![Self { pclmul: false }];
        if pclmul() {
            v.push(Self { pclmul: true });
        }
        v
    }
}

/// PCLMULQDQ and SSE4.1 are usable on this CPU (std caches the answer).
#[cfg(target_arch = "x86_64")]
fn pclmul() -> bool {
    std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
}

#[cfg(not(target_arch = "x86_64"))]
fn pclmul() -> bool {
    false
}

/// The eight lookup tables of the slice-by-8 kernel, built at compile
/// time. `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][i]`
/// extends `TABLES[k-1][i]` by one zero byte, so eight table lookups
/// advance the CRC over eight input bytes at once.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

/// The portable kernel: eight bytes per iteration through [`TABLES`],
/// then the `< 8`-byte remainder one byte at a time.
fn slice_by_8(mut state: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let (words, rest) = bytes.as_chunks::<8>();
    for c in words {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ state;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in rest {
        state = t[0][((state ^ u32::from(b)) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// The folding kernel. Its one `#[target_feature]` function is safe to
/// call from code compiled with those features and needs `unsafe` (and
/// the detection the `SAFETY` comment above cites) from anywhere else.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::slice_by_8;
    use std::arch::x86_64::*;

    // With P = 0x1_04C1_1DB7 the CRC-32 polynomial and `reflect_w` the
    // bit reversal of a `w`-bit value (the data is bit-reflected):
    /// `reflect32(x⁵⁴⁴ mod P) << 1`: folds a lane's low half 512 bits on.
    pub(super) const K1: u64 = 0x1_5444_2BD4;
    /// `reflect32(x⁴⁸⁰ mod P) << 1`: folds a lane's high half 512 bits on.
    pub(super) const K2: u64 = 0x1_C6E4_1596;
    /// `reflect32(x¹⁶⁰ mod P) << 1`: folds a lane's low half 128 bits on.
    pub(super) const K3: u64 = 0x1_7519_97D0;
    /// `reflect32(x⁹⁶ mod P) << 1`: folds a lane's high half 128 bits on,
    /// and the low half of the last lane onto its high half (128 → 96).
    pub(super) const K4: u64 = 0x0_CCAA_009E;
    /// `reflect32(x⁶⁴ mod P) << 1`: the 96 → 64-bit fold.
    pub(super) const K5: u64 = 0x1_63CD_6124;
    /// `reflect33(P)`: the polynomial of the Barrett reduction.
    pub(super) const P_PRIME: u64 = 0x1_DB71_0641;
    /// `reflect33(⌊x⁶⁴ / P⌋)`: the Barrett quotient constant.
    pub(super) const MU_PRIME: u64 = 0x1_F701_1641;

    /// Unaligned load of one 16-byte block.
    #[inline(always)]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 bytes, the width of an unaligned load.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `crc32_update` for `bytes.len() >= 64`, bit-identical to
    /// `slice_by_8`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update_pclmul(state: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let (first, rest) = blocks
            .split_first_chunk::<4>()
            .expect("the caller passes at least 64 bytes");
        // Four lanes hold the first 64 bytes, the incoming state XORed
        // into the first four; each step multiplies every lane's halves
        // 512 bits on and adds the next 64 bytes.
        let mut lanes = first.each_ref().map(load);
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));
        let k1k2 = _mm_set_epi64x(K2 as i64, K1 as i64);
        let (lines, singles) = rest.as_chunks::<4>();
        for line in lines {
            for (lane, block) in lanes.iter_mut().zip(line) {
                let lo = _mm_clmulepi64_si128::<0x00>(*lane, k1k2);
                let hi = _mm_clmulepi64_si128::<0x11>(*lane, k1k2);
                *lane = _mm_xor_si128(_mm_xor_si128(lo, hi), load(block));
            }
        }
        // Fold the lanes into one, then the leftover 16-byte blocks into
        // it, each 128 bits on.
        let k3k4 = _mm_set_epi64x(K4 as i64, K3 as i64);
        let mut acc = lanes[0];
        for next in lanes[1..].iter().copied().chain(singles.iter().map(load)) {
            let lo = _mm_clmulepi64_si128::<0x00>(acc, k3k4);
            let hi = _mm_clmulepi64_si128::<0x11>(acc, k3k4);
            acc = _mm_xor_si128(_mm_xor_si128(lo, hi), next);
        }
        // 128 → 96 bits: the low half times K4 onto the high half.
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(acc, k3k4),
            _mm_srli_si128::<8>(acc),
        );
        // 96 → 64 bits: the low 32 bits times K5 onto the rest.
        let mask32 = _mm_set_epi64x(0, 0xFFFF_FFFF);
        let k5 = _mm_set_epi64x(0, K5 as i64);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, mask32), k5),
            _mm_srli_si128::<4>(acc),
        );
        // Barrett reduction 64 → 32 bits: t = ⌊acc·μ⌋, then acc − t·P;
        // the remainder lands in the second 32-bit word.
        let poly = _mm_set_epi64x(MU_PRIME as i64, P_PRIME as i64);
        let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, mask32), poly);
        let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, mask32), poly);
        let state = _mm_extract_epi32::<1>(_mm_xor_si128(acc, t)) as u32;
        slice_by_8(state, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, one bit at a time: the oracle both kernels are
    /// compared against.
    fn bytewise(mut state: u32, data: &[u8]) -> u32 {
        for &b in data {
            state ^= u32::from(b);
            for _ in 0..8 {
                state = if state & 1 != 0 {
                    POLY ^ (state >> 1)
                } else {
                    state >> 1
                };
            }
        }
        state
    }

    fn noise(n: usize, mut x: u32) -> Vec<u8> {
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect()
    }

    /// Incoming states: the usual start, zero, and one arbitrary word.
    const STATES: [u32; 3] = [0xFFFF_FFFF, 0, 0x5A3C_96E1];

    #[test]
    fn crc32_known_vectors() {
        // Standard check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"exaclim"), crc32(b"exaclim"));
        assert_ne!(crc32(b"exaclim"), crc32(b"exaclin"));
    }

    #[test]
    fn crc32_streams_like_oneshot() {
        let data = b"chunked, compressed, checksummed";
        let mut state = 0xFFFF_FFFFu32;
        for part in data.chunks(7) {
            state = crc32_update(state, part);
        }
        assert_eq!(state ^ 0xFFFF_FFFF, crc32(data));
    }

    /// Every kernel equals the bytewise definition on every length
    /// 0..=1024 (below the folding minimum, at it, every 64-byte fold
    /// remainder and every 16-byte tail), every start offset 0..16,
    /// three incoming states and one bulk-response-sized buffer.
    #[test]
    fn every_kernel_matches_bytewise_reference() {
        let buf = noise(1024 + 16, 0x2545_F491);
        for isa in Isa::all() {
            for state in STATES {
                for n in 0..=1024 {
                    let want = bytewise(state, &buf[..n]);
                    assert_eq!(update_with(isa, state, &buf[..n]), want, "{isa:?} len {n}");
                }
                for off in 0..16 {
                    for n in [0, 100, 127, 128, 129, 191, 200, 255, 256, 1000] {
                        let part = &buf[off..off + n];
                        assert_eq!(
                            update_with(isa, state, part),
                            bytewise(state, part),
                            "{isa:?} offset {off} len {n}"
                        );
                    }
                }
            }
        }
        let bulk = noise(9 << 19, 0x9E37_79B9);
        let want = bytewise(0xFFFF_FFFF, &bulk);
        for isa in Isa::all() {
            assert_eq!(
                update_with(isa, 0xFFFF_FFFF, &bulk),
                want,
                "{isa:?} 4.5 MiB"
            );
        }
    }

    #[test]
    fn every_split_streams_like_one_call() {
        let buf = noise(300, 0xC0FF_EE11);
        let want = bytewise(0xFFFF_FFFF, &buf) ^ 0xFFFF_FFFF;
        assert_eq!(crc32(&buf), want);
        for split in 0..=buf.len() {
            let state = crc32_update(0xFFFF_FFFF, &buf[..split]);
            let state = crc32_update(state, &buf[split..]);
            assert_eq!(state ^ 0xFFFF_FFFF, want, "split {split}");
        }
    }

    /// The folding constants, recomputed by carry-less arithmetic from
    /// P = 0x1_04C1_1DB7.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_constants_are_derived_from_the_polynomial() {
        const P: u64 = 0x1_04C1_1DB7;
        let x_pow_mod_p = |n: u32| {
            let mut r = 1u64;
            for _ in 0..n {
                r <<= 1;
                if r & (1 << 32) != 0 {
                    r ^= P;
                }
            }
            r
        };
        let reflect32 = |v: u64| u64::from((v as u32).reverse_bits());
        let reflect33 = |v: u64| v.reverse_bits() >> (64 - 33);
        let k = |n: u32| reflect32(x_pow_mod_p(n)) << 1;
        assert_eq!(k(544), x86::K1);
        assert_eq!(k(480), x86::K2);
        assert_eq!(k(160), x86::K3);
        assert_eq!(k(96), x86::K4);
        assert_eq!(k(64), x86::K5);
        assert_eq!(reflect33(P), x86::P_PRIME);
        // ⌊x⁶⁴ / P⌋ by long division over GF(2).
        let (mut rem, mut quot) = (1u128 << 64, 0u64);
        for bit in (32..=64).rev() {
            if rem & (1 << bit) != 0 {
                rem ^= u128::from(P) << (bit - 32);
                quot |= 1 << (bit - 32);
            }
        }
        assert_eq!(reflect33(quot), x86::MU_PRIME);
    }
}
