//! IEEE 754 binary16 ("half precision").
//!
//! The offline crate list has no `half`, so the conversion pair is
//! implemented here: `f32 → f16` with round-to-nearest-even (the rounding
//! GPUs use when writing HP tiles) and the exact `f16 → f32` widening.
//! [`f32_to_f16_bits`]/[`f16_bits_to_f32`] are the scalar reference and the
//! single-value path; the slice converters [`widen_into`]/[`narrow_into`]
//! run 8 lanes per F16C instruction where the CPU has it and give the same
//! bits for every input. Every binary16 conversion of a tile, and of an
//! `F16` archive chunk, goes through the slice pair.
//! Arithmetic is *not* implemented on `Half` itself: kernels widen to `f32`,
//! accumulate there, and round once on store — exactly the tensor-core MMA
//! contract the paper's DP/HP variant relies on.

/// An IEEE binary16 value stored as its bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(transparent)]
pub struct Half(pub u16);

impl Half {
    /// Positive zero.
    pub const ZERO: Half = Half(0);
    /// One.
    pub const ONE: Half = Half(0x3C00);
    /// Largest finite value, 65504.
    pub const MAX: Half = Half(0x7BFF);
    /// Positive infinity.
    pub const INFINITY: Half = Half(0x7C00);

    /// Convert from `f32` with round-to-nearest-even.
    #[inline]
    pub fn from_f32(x: f32) -> Half {
        Half(f32_to_f16_bits(x))
    }

    /// Convert from `f64` by rounding twice, `f64 → f32 → f16`, each step
    /// to nearest-even. This is not always the binary16 nearest to `x`: for
    /// `x = 1 + 2⁻¹¹ + 2⁻⁴⁰` the f32 step drops the `2⁻⁴⁰` and leaves a tie
    /// that rounds to `1.0` (`0x3C00`), where direct rounding gives
    /// `1 + 2⁻¹⁰` (`0x3C01`). It is what HP tiles have always stored, and
    /// every HP golden was recorded with it.
    #[inline]
    pub fn from_f64(x: f64) -> Half {
        Half(f32_to_f16_bits(x as f32))
    }

    /// Widen exactly to `f32`.
    #[inline]
    pub fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
    }

    /// Widen exactly to `f64`.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    /// True for NaN payloads.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// Unit roundoff of binary16 (2⁻¹¹ for round-to-nearest).
    pub const UNIT_ROUNDOFF: f64 = 1.0 / 2048.0;
}

/// `f32 → f16` bit conversion with round-to-nearest-even, handling
/// overflow (→ ±∞), subnormals, and NaN propagation.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x007F_FFFF;
    if exp == 0xFF {
        // Inf or NaN; keep a nonzero mantissa bit for NaN.
        return sign | 0x7C00 | if mant != 0 { 0x0200 } else { 0 };
    }
    let he = exp - 127 + 15; // half exponent field value before clamping
    if he >= 0x1F {
        return sign | 0x7C00; // overflow → inf
    }
    if he <= 0 {
        // Subnormal half (or underflow to zero).
        if he < -10 {
            return sign; // underflows past the smallest subnormal
        }
        let m = mant | 0x0080_0000; // restore implicit bit
        let shift = (14 - he) as u32; // 24-bit significand → 10-bit subnormal
        let half = (m >> shift) as u16;
        let rem = m & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let mut h = half;
        if rem > halfway || (rem == halfway && (h & 1) == 1) {
            h += 1;
        }
        return sign | h;
    }
    // Normal half.
    let mut h = ((he as u32) << 10) | (mant >> 13);
    let rem = mant & 0x1FFF;
    if rem > 0x1000 || (rem == 0x1000 && (h & 1) == 1) {
        h += 1; // carry may roll into the exponent — that is correct RNE
    }
    sign | (h as u16)
}

/// Exact `f16 → f32` widening.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = (h >> 10) & 0x1F;
    let mant = (h & 0x03FF) as u32;
    if exp == 0 {
        if mant == 0 {
            return f32::from_bits(sign);
        }
        // Subnormal: mant × 2⁻²⁴.
        let v = mant as f32 * (-24f32).exp2();
        return if sign != 0 { -v } else { v };
    }
    if exp == 0x1F {
        return f32::from_bits(sign | 0x7F80_0000 | (mant << 13));
    }
    f32::from_bits(sign | ((exp as u32 + 112) << 23) | (mant << 13))
}

/// Widen binary16 bit patterns: `dst[i] = f16_bits_to_f32(src[i])`, bit
/// for bit, NaN payloads included.
pub fn widen_into(src: &[u16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "one output per binary16 value");
    crate::isa::widen(src, dst)
}

/// Round to binary16: `dst[i] = f32_to_f16_bits(src[i])`, bit for bit,
/// NaN payloads included.
pub fn narrow_into(src: &[f32], dst: &mut [u16]) {
    assert_eq!(src.len(), dst.len(), "one binary16 value per input");
    crate::isa::narrow(src, dst)
}

/// Elements per stack buffer of the f64 ↔ binary16 helpers below.
const CHUNK: usize = 128;

/// `dst[i] = Half(src[i]).to_f64()`, through an f32 stack buffer.
pub fn widen_f64_into(src: &[u16], dst: &mut [f64]) {
    assert_eq!(src.len(), dst.len(), "one output per binary16 value");
    let mut buf = [0.0f32; CHUNK];
    for (s, d) in src.chunks(CHUNK).zip(dst.chunks_mut(CHUNK)) {
        let w = &mut buf[..s.len()];
        widen_into(s, w);
        for (d, &x) in d.iter_mut().zip(w.iter()) {
            *d = f64::from(x);
        }
    }
}

/// `dst[i] = Half::from_f64(src[i]).0` (`as f32`, then to nearest binary16),
/// through an f32 stack buffer.
pub fn narrow_f64_into(src: &[f64], dst: &mut [u16]) {
    assert_eq!(src.len(), dst.len(), "one binary16 value per input");
    let mut buf = [0.0f32; CHUNK];
    for (s, d) in src.chunks(CHUNK).zip(dst.chunks_mut(CHUNK)) {
        let w = &mut buf[..s.len()];
        for (w, &x) in w.iter_mut().zip(s) {
            *w = x as f32;
        }
        narrow_into(w, d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_constants() {
        assert_eq!(Half::from_f32(0.0).0, 0x0000);
        assert_eq!(Half::from_f32(-0.0).0, 0x8000);
        assert_eq!(Half::from_f32(1.0).0, 0x3C00);
        assert_eq!(Half::from_f32(-2.0).0, 0xC000);
        assert_eq!(Half::from_f32(0.5).0, 0x3800);
        assert_eq!(Half::from_f32(65504.0).0, 0x7BFF);
        assert_eq!(Half::from_f32(f32::INFINITY).0, 0x7C00);
        assert_eq!(Half::from_f32(-f32::INFINITY).0, 0xFC00);
        assert!(Half::from_f32(f32::NAN).is_nan());
    }

    #[test]
    fn widening_known_values() {
        assert_eq!(Half(0x3C00).to_f32(), 1.0);
        assert_eq!(Half(0xC000).to_f32(), -2.0);
        assert_eq!(Half(0x7BFF).to_f32(), 65504.0);
        assert_eq!(Half(0x0001).to_f32(), (-24f32).exp2());
        assert_eq!(Half(0x0400).to_f32(), (-14f32).exp2()); // smallest normal
        assert!(Half(0x7C00).to_f32().is_infinite());
        assert!(Half(0x7E00).to_f32().is_nan());
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert_eq!(Half::from_f32(65520.0).0, 0x7C00); // rounds up past MAX
        assert_eq!(Half::from_f32(1e9).0, 0x7C00);
        assert_eq!(Half::from_f32(-1e9).0, 0xFC00);
        // 65519.996… rounds to 65504 (largest finite).
        assert_eq!(Half::from_f32(65519.0).0, 0x7BFF);
    }

    #[test]
    fn underflow_to_zero_and_subnormals() {
        assert_eq!(Half::from_f32(1e-10).0, 0x0000);
        let tiny = (-24f32).exp2();
        assert_eq!(Half::from_f32(tiny).0, 0x0001);
        // Halfway between 0 and the smallest subnormal → even (zero).
        assert_eq!(Half::from_f32(tiny / 2.0).0, 0x0000);
        // Just above halfway rounds up.
        assert_eq!(Half::from_f32(tiny * 0.51).0, 0x0001);
    }

    #[test]
    fn round_to_nearest_even_at_ties() {
        // 1 + 2^-11 is exactly between 1.0 (even) and 1 + 2^-10 → 1.0.
        let tie = 1.0f32 + (-11f32).exp2();
        assert_eq!(Half::from_f32(tie).0, 0x3C00);
        // 1 + 3·2^-11 is between 1+2^-10 (odd) and 1+2^-9 (even) → round up.
        let tie2 = 1.0f32 + 3.0 * (-11f32).exp2();
        assert_eq!(Half::from_f32(tie2).0, 0x3C02);
    }

    #[test]
    fn relative_error_bounded_by_unit_roundoff() {
        for k in 0..2000 {
            let x = -8.0 + k as f64 * 0.008;
            if x == 0.0 {
                continue;
            }
            let h = Half::from_f64(x).to_f64();
            let rel = ((h - x) / x).abs();
            assert!(rel <= Half::UNIT_ROUNDOFF * 1.0001, "x={x}: rel={rel}");
        }
    }

    #[test]
    fn from_f64_rounds_twice() {
        let x = 1.0 + 2f64.powi(-11) + 2f64.powi(-40);
        // The binary16 nearest to x is 1 + 2⁻¹⁰ …
        let (below, above) = (1.0, 1.0 + 2f64.powi(-10));
        assert!(above - x < x - below);
        assert_eq!(Half(0x3C01).to_f64(), above);
        // … but x as f32 is the tie 1 + 2⁻¹¹, which rounds to even.
        assert_eq!(x as f32, 1.0 + (-11f32).exp2());
        assert_eq!(Half::from_f64(x).0, 0x3C00);
        let (mut h, mut back) = ([0u16], [0.0f64]);
        narrow_f64_into(&[x], &mut h);
        widen_f64_into(&h, &mut back);
        assert_eq!(back, [1.0]);
    }

    #[test]
    fn widen_into_matches_the_scalar_widening_on_every_pattern() {
        let all: Vec<u16> = (0..=u16::MAX).collect();
        let mut out = vec![0.0f32; all.len()];
        widen_into(&all, &mut out);
        for (&h, w) in all.iter().zip(&out) {
            assert_eq!(w.to_bits(), f16_bits_to_f32(h).to_bits(), "{h:#06x}");
        }
    }

    /// Signalling NaNs (quiet bit clear), which F16C would quiet, and f32
    /// NaNs whose payload F16C would partly keep.
    const F16_SNANS: [u16; 3] = [0x7C01, 0xFD55, 0x7DFF];
    const F32_NANS: [u32; 3] = [0x7F80_2001, 0xFFC0_4000, 0x7FBF_FFFF];

    #[test]
    fn nan_lanes_and_ragged_tails_match_the_scalar_converters() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 35] {
            // One NaN among finite values at every third index; none at all
            // when `nan_at == len`.
            for nan_at in (0..=len).step_by(3) {
                let mut h: Vec<u16> = (0..len as u16).map(|i| 0x3C00 + 37 * i).collect();
                if let Some(v) = h.get_mut(nan_at) {
                    *v = F16_SNANS[nan_at % 3];
                }
                let mut w = vec![0.0f32; len];
                widen_into(&h, &mut w);
                for (&h, w) in h.iter().zip(&w) {
                    assert_eq!(w.to_bits(), f16_bits_to_f32(h).to_bits(), "len {len}");
                }
                let mut x: Vec<f32> = (0..len).map(|i| i as f32 * 0.37 - 3.0).collect();
                if let Some(v) = x.get_mut(nan_at) {
                    *v = f32::from_bits(F32_NANS[nan_at % 3]);
                }
                let mut n = vec![0u16; len];
                narrow_into(&x, &mut n);
                for (&x, &n) in x.iter().zip(&n) {
                    assert_eq!(n, f32_to_f16_bits(x), "len {len}");
                }
            }
        }
    }

    /// Every f32 bit pattern through `narrow_into` (≈ 10 s at release):
    /// `cargo test --release -p exaclim-linalg -- --include-ignored`.
    #[test]
    #[ignore = "exhaustive 2³² sweep; CI runs it at release"]
    fn narrow_into_matches_the_scalar_rounding_on_every_pattern() {
        const BLOCK: u32 = 1 << 16;
        let mut x = vec![0.0f32; BLOCK as usize];
        let mut h = vec![0u16; BLOCK as usize];
        for hi in 0..=u32::MAX / BLOCK {
            for (lo, v) in x.iter_mut().enumerate() {
                *v = f32::from_bits(hi * BLOCK + lo as u32);
            }
            narrow_into(&x, &mut h);
            for (&x, &h) in x.iter().zip(&h) {
                assert_eq!(h, f32_to_f16_bits(x), "{:#010x}", x.to_bits());
            }
        }
    }

    proptest! {
        #[test]
        fn roundtrip_f16_f32_f16_is_identity(bits in 0u16..=0xFFFF) {
            let h = Half(bits);
            if !h.is_nan() {
                let back = Half::from_f32(h.to_f32());
                prop_assert_eq!(back.0, bits);
            }
        }

        #[test]
        fn conversion_is_monotone(a in -60000.0f32..60000.0, b in -60000.0f32..60000.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let hl = Half::from_f32(lo).to_f32();
            let hh = Half::from_f32(hi).to_f32();
            prop_assert!(hl <= hh, "monotonicity: {lo}->{hl}, {hi}->{hh}");
        }
    }
}
