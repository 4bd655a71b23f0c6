//! The crate's one `unsafe` boundary: runtime CPU feature detection, the
//! F16C binary16 loops, and the choice between the two compilations of the
//! tile kernel bodies.
//!
//! Nothing here changes a result bit. The F16C loops hand every 8-lane
//! group that holds a NaN to the scalar converters in [`crate::f16`] (the
//! hardware quiets signalling NaNs and keeps f32 NaN payloads; the
//! software does neither), and every other input converts identically —
//! exhaustively tested in both directions. The AVX2 kernels are the
//! baseline bodies compiled again with 256-bit lanes and **without** `fma`:
//! a vector `mul` then `add` rounds exactly as the 128-bit pair does, so
//! each element keeps its chain (ARCHITECTURE.md, "Tile kernels").
//!
//! Every `unsafe` block below either calls a `#[target_feature]` function,
//! relying on a feature detected at run time, or is an unaligned load or
//! store inside one, relying on the length of the slice it reads or
//! writes. Off x86-64 everything is the portable code.

use crate::f16::{f16_bits_to_f32, f32_to_f16_bits};
use crate::kernels::{self, NotPositiveDefinite, Real};

/// AVX2 is usable on this CPU (std caches the answer).
#[cfg(target_arch = "x86_64")]
fn avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2() -> bool {
    false
}

/// AVX and F16C (`vcvtph2ps`/`vcvtps2ph`) are usable on this CPU.
#[cfg(target_arch = "x86_64")]
fn f16c() -> bool {
    std::arch::is_x86_feature_detected!("avx") && std::arch::is_x86_feature_detected!("f16c")
}

/// `dst[i] = f16_bits_to_f32(src[i])`, 8 lanes per F16C instruction where
/// detected. The caller checks that the lengths match.
pub(crate) fn widen(src: &[u16], dst: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if f16c() {
        // SAFETY: AVX and F16C were detected on this CPU.
        return unsafe { x86::widen_f16c(src, dst) };
    }
    widen_scalar(src, dst)
}

/// `dst[i] = f32_to_f16_bits(src[i])`, 8 lanes per F16C instruction where
/// detected. The caller checks that the lengths match.
pub(crate) fn narrow(src: &[f32], dst: &mut [u16]) {
    #[cfg(target_arch = "x86_64")]
    if f16c() {
        // SAFETY: AVX and F16C were detected on this CPU.
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

/// Which compilation of the tile kernel bodies runs. Its field is private
/// and only `Isa::detected` (and the tests' `Isa::all`) set it, so an
/// `Isa` that selects AVX2 proves AVX2 was detected.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Isa {
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    avx2: bool,
}

impl Isa {
    /// The widest compilation this CPU runs.
    pub(crate) fn detected() -> Self {
        Self { avx2: avx2() }
    }

    /// Every compilation this CPU runs: the baseline always, AVX2 where
    /// detected — so the bit-identity tests cover both on an AVX2 machine.
    #[cfg(test)]
    pub(crate) fn all() -> Vec<Self> {
        let mut v = vec![Self { avx2: false }];
        if avx2() {
            v.push(Self { avx2: true });
        }
        v
    }

    pub(crate) fn gemm<T: Real, const NR: usize>(
        self,
        a: &[T],
        bt: &[T],
        c: &mut [T],
        b: usize,
        lower: bool,
    ) {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: `self.avx2` is set only when AVX2 was detected.
            return unsafe { x86::gemm_body::<T, NR>(a, bt, c, b, lower) };
        }
        kernels::gemm_body::<T, NR>(a, bt, c, b, lower)
    }

    pub(crate) fn syrk<T: Real, const NR: usize>(self, a: &[T], c: &mut [T], b: usize) {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: `self.avx2` is set only when AVX2 was detected.
            return unsafe { x86::syrk_body::<T, NR>(a, c, b) };
        }
        kernels::syrk_body::<T, NR>(a, c, b)
    }

    pub(crate) fn trsm<T: Real, const NR: usize>(self, l: &[T], x: &mut [T], b: usize) {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: `self.avx2` is set only when AVX2 was detected.
            return unsafe { x86::trsm_body::<T, NR>(l, x, b) };
        }
        kernels::trsm_body::<T, NR>(l, x, b)
    }

    pub(crate) fn potrf<T: Real, const NR: usize>(
        self,
        w: &mut [T],
        b: usize,
    ) -> Result<(), NotPositiveDefinite> {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: `self.avx2` is set only when AVX2 was detected.
            return unsafe { x86::potrf_body::<T, NR>(w, b) };
        }
        kernels::potrf_body::<T, NR>(w, b)
    }

    pub(crate) fn mul_rows(self, data: &[f64], n: usize, hp: &[f64], out: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: `self.avx2` is set only when AVX2 was detected.
            return unsafe { x86::mul_rows_body(data, n, hp, out) };
        }
        kernels::mul_rows_body(data, n, hp, out)
    }

    pub(crate) fn gram_rows(self, data: &[f64], shape: (usize, usize), p: usize, rows: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: `self.avx2` is set only when AVX2 was detected.
            return unsafe { x86::gram_rows_body(data, shape, p, rows) };
        }
        kernels::gram_rows_body(data, shape, p, rows)
    }
}

/// The `#[target_feature]` functions. Each is safe to call from code
/// compiled with its features and needs `unsafe` (and the detection the
/// `SAFETY` comments above cite) from anywhere else.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{narrow_scalar, widen_scalar};
    use crate::kernels::{self, NotPositiveDefinite, Real};
    use std::arch::x86_64::*;

    // The kernel bodies (and the `#[inline(always)]` block routines inside
    // them) compiled a second time for 256-bit lanes. No `fma`: see the
    // module doc.

    #[target_feature(enable = "avx2")]
    pub(super) fn gemm_body<T: Real, const NR: usize>(
        a: &[T],
        bt: &[T],
        c: &mut [T],
        b: usize,
        lower: bool,
    ) {
        kernels::gemm_body::<T, NR>(a, bt, c, b, lower)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn syrk_body<T: Real, const NR: usize>(a: &[T], c: &mut [T], b: usize) {
        kernels::syrk_body::<T, NR>(a, c, b)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn trsm_body<T: Real, const NR: usize>(l: &[T], x: &mut [T], b: usize) {
        kernels::trsm_body::<T, NR>(l, x, b)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn potrf_body<T: Real, const NR: usize>(
        w: &mut [T],
        b: usize,
    ) -> Result<(), NotPositiveDefinite> {
        kernels::potrf_body::<T, NR>(w, b)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn mul_rows_body(data: &[f64], n: usize, hp: &[f64], out: &mut [f64]) {
        kernels::mul_rows_body(data, n, hp, out)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn gram_rows_body(data: &[f64], shape: (usize, usize), p: usize, rows: &mut [f64]) {
        kernels::gram_rows_body(data, shape, p, rows)
    }

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
