//! The workspace's CPU feature token ([`Isa`], re-exported from
//! `exaclim_mathkit::isa`, which detects it) and this crate's two uses of
//! it: the AVX2 compilation of the tile kernel bodies, and the F16C
//! binary16 loops.
//!
//! Nothing here changes a result bit. The kernel bodies run their
//! baseline chains with 256-bit lanes and without `fma`
//! (ARCHITECTURE.md, "Tile kernels"). The F16C loops hand every 8-lane
//! group that holds a NaN to the scalar converters in [`crate::f16`] (the
//! hardware quiets signalling NaNs and keeps f32 NaN payloads; the
//! software does neither), and every other input converts identically —
//! exhaustively tested in both directions.
//!
//! Every `unsafe` block below either calls an F16C loop, relying on
//! [`Isa::f16c`], or is an unaligned load or store inside one, relying on
//! the length of the slice it reads or writes. Off x86-64 everything is
//! the portable code.

pub use exaclim_mathkit::isa::Isa;

use crate::f16::{f16_bits_to_f32, f32_to_f16_bits};
use crate::kernels::{self, NotPositiveDefinite, Real};

exaclim_mathkit::avx2_dispatch! {
    pub(crate) fn gemm[T: Real, const NR: usize]<T, NR>(
        a: &[T], bt: &[T], c: &mut [T], b: usize, lower: bool,
    ) = kernels::gemm_body;
    pub(crate) fn syrk[T: Real, const NR: usize]<T, NR>(a: &[T], c: &mut [T], b: usize)
        = kernels::syrk_body;
    pub(crate) fn trsm[T: Real, const NR: usize]<T, NR>(l: &[T], x: &mut [T], b: usize)
        = kernels::trsm_body;
    pub(crate) fn potrf[T: Real, const NR: usize]<T, NR>(w: &mut [T], b: usize)
        -> Result<(), NotPositiveDefinite> = kernels::potrf_body;
    pub(crate) fn mul_rows(data: &[f64], n: usize, hp: &[f64], out: &mut [f64])
        = kernels::mul_rows_body;
    pub(crate) fn gram_rows(data: &[f64], shape: (usize, usize), p: usize, rows: &mut [f64])
        = kernels::gram_rows_body;
}

/// `dst[i] = f16_bits_to_f32(src[i])`, 8 lanes per F16C instruction where
/// detected. The caller checks that the lengths match.
pub(crate) fn widen(src: &[u16], dst: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if Isa::detected().f16c() {
        // SAFETY: `Isa::f16c` holds only where AVX and F16C were detected.
        return unsafe { x86::widen_f16c(src, dst) };
    }
    widen_scalar(src, dst)
}

/// `dst[i] = f32_to_f16_bits(src[i])`, 8 lanes per F16C instruction where
/// detected. The caller checks that the lengths match.
pub(crate) fn narrow(src: &[f32], dst: &mut [u16]) {
    #[cfg(target_arch = "x86_64")]
    if Isa::detected().f16c() {
        // SAFETY: `Isa::f16c` holds only where AVX and F16C were detected.
        return unsafe { x86::narrow_f16c(src, dst) };
    }
    narrow_scalar(src, dst)
}

fn widen_scalar(src: &[u16], dst: &mut [f32]) {
    for (d, &h) in dst.iter_mut().zip(src) {
        *d = f16_bits_to_f32(h);
    }
}

fn narrow_scalar(src: &[f32], dst: &mut [u16]) {
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = f32_to_f16_bits(x);
    }
}

/// The F16C loops. Each is safe to call from code compiled with its
/// features and needs `unsafe` (and the detection the `SAFETY` comments
/// above cite) from anywhere else.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{narrow_scalar, widen_scalar};
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx,f16c")]
    pub(super) fn widen_f16c(src: &[u16], dst: &mut [f32]) {
        let (magnitude, inf) = (_mm_set1_epi16(0x7FFF), _mm_set1_epi16(0x7C00));
        let mut s8 = src.chunks_exact(8);
        let mut d8 = dst.chunks_exact_mut(8);
        for (s, d) in (&mut s8).zip(&mut d8) {
            // SAFETY: `s` is 8 `u16`s, the 16 bytes an unaligned load reads.
            let h = unsafe { _mm_loadu_si128(s.as_ptr().cast()) };
            // A lane is NaN when its magnitude bits exceed infinity's; both
            // are below 2¹⁵, so the signed compare is exact.
            if _mm_movemask_epi8(_mm_cmpgt_epi16(_mm_and_si128(h, magnitude), inf)) != 0 {
                widen_scalar(s, d);
            } else {
                // SAFETY: `d` is 8 `f32`s, the 32 bytes an unaligned store
                // writes.
                unsafe { _mm256_storeu_ps(d.as_mut_ptr(), _mm256_cvtph_ps(h)) };
            }
        }
        widen_scalar(s8.remainder(), d8.into_remainder());
    }

    #[target_feature(enable = "avx,f16c")]
    pub(super) fn narrow_f16c(src: &[f32], dst: &mut [u16]) {
        let mut s8 = src.chunks_exact(8);
        let mut d8 = dst.chunks_exact_mut(8);
        for (s, d) in (&mut s8).zip(&mut d8) {
            // SAFETY: `s` is 8 `f32`s, the 32 bytes an unaligned load reads.
            let x = unsafe { _mm256_loadu_ps(s.as_ptr()) };
            if _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(x, x)) != 0 {
                narrow_scalar(s, d);
            } else {
                let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(x);
                // SAFETY: `d` is 8 `u16`s, the 16 bytes an unaligned store
                // writes.
                unsafe { _mm_storeu_si128(d.as_mut_ptr().cast(), h) };
            }
        }
        narrow_scalar(s8.remainder(), d8.into_remainder());
    }
}
