//! The crate's one `unsafe` boundary: runtime CPU feature detection and
//! the choice between the two compilations of the lane executor
//! (`crate::lanes`).
//!
//! Nothing here changes a result bit. The AVX2 bodies are the baseline
//! bodies compiled again with 256-bit lanes and **without** `fma`: a
//! vector `mul` then `add`/`sub` rounds exactly as the scalar or 128-bit
//! pair does, so every lane keeps its chain (ARCHITECTURE.md, "FFT and
//! sampler").
//!
//! Every `unsafe` block below calls a `#[target_feature]` function, relying
//! on a feature detected at run time. Off x86-64 everything is the portable
//! code.

use crate::lanes::{self, Lanes, LANES};
use crate::plan::{Base, Split};

/// AVX2 is usable on this CPU (std caches the answer).
#[cfg(target_arch = "x86_64")]
fn avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2() -> bool {
    false
}

/// Which compilation of the lane executor runs. Its field is private and
/// only `Isa::detected` (and the tests' `Isa::all`) set it, so an `Isa`
/// that selects AVX2 proves AVX2 was detected.
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

    pub(crate) fn rfft_lanes(
        self,
        splits: &[Split],
        base: &Base,
        input: &[[f64; LANES]],
        out: &mut [Lanes],
        work: &mut [Lanes],
        tmp: &mut [Lanes],
    ) {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: `self.avx2` is set only when AVX2 was detected.
            return unsafe { x86::rfft_body(splits, base, input, out, work, tmp) };
        }
        lanes::rfft_body(splits, base, input, out, work, tmp)
    }

    pub(crate) fn irfft_lanes(
        self,
        splits: &[Split],
        base: &Base,
        half: &[Lanes],
        out: &mut [[f64; LANES]],
        bufs: (&mut [Lanes], &mut [Lanes], &mut [Lanes]),
    ) {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: `self.avx2` is set only when AVX2 was detected.
            return unsafe { x86::irfft_body(splits, base, half, out, bufs) };
        }
        lanes::irfft_body(splits, base, half, out, bufs)
    }
}

/// The `#[target_feature]` functions. Each is safe to call from code
/// compiled with its features and needs `unsafe` (and the detection the
/// `SAFETY` comments above cite) from anywhere else.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::lanes::{self, Lanes, LANES};
    use crate::plan::{Base, Split};

    // The lane executor (and the `#[inline(always)]` level routines inside
    // it) compiled a second time for 256-bit lanes. No `fma`: see the
    // module doc.

    #[target_feature(enable = "avx2")]
    pub(super) fn rfft_body(
        splits: &[Split],
        base: &Base,
        input: &[[f64; LANES]],
        out: &mut [Lanes],
        work: &mut [Lanes],
        tmp: &mut [Lanes],
    ) {
        lanes::rfft_body(splits, base, input, out, work, tmp)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn irfft_body(
        splits: &[Split],
        base: &Base,
        half: &[Lanes],
        out: &mut [[f64; LANES]],
        bufs: (&mut [Lanes], &mut [Lanes], &mut [Lanes]),
    ) {
        lanes::irfft_body(splits, base, half, out, bufs)
    }
}
