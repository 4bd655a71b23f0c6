//! The workspace's one CPU feature detection and its one way to run a
//! body as a second, AVX2 compilation.
//!
//! [`Isa`] says which instruction-set extensions a kernel may use. Its
//! fields are private and only detection sets them, so an `Isa` that
//! answers `true` proves the feature was detected on this CPU — the
//! invariant every `unsafe` call into a `#[target_feature]` function
//! rests on. [`avx2_dispatch!`](crate::avx2_dispatch) writes that call
//! once for every kernel body the workspace compiles twice; the
//! hand-written intrinsic kernels (linalg's F16C loops, store's
//! PCLMULQDQ CRC) check [`Isa::f16c`] and [`Isa::pclmul`] themselves.
//!
//! Nothing chosen here changes a result bit: the AVX2 compilation runs
//! the baseline body's chains with 256-bit lanes and **without** `fma`
//! (a vector `mul` then `add` rounds exactly as the scalar or 128-bit
//! pair does; a fused one does not), and each intrinsic kernel is
//! bit-equal to its portable twin by its own tests, which sweep
//! [`Isa::all`]. Off x86-64 every query answers `false`.

use std::sync::OnceLock;

/// The instruction-set extensions kernels may use on this CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Isa {
    avx2: bool,
    f16c: bool,
    pclmul: bool,
}

impl Isa {
    /// Every extension this CPU has (detected once per process).
    pub fn detected() -> Self {
        static DETECTED: OnceLock<Isa> = OnceLock::new();
        *DETECTED.get_or_init(detect)
    }

    /// No extension: the portable code everywhere.
    pub const fn baseline() -> Self {
        Self {
            avx2: false,
            f16c: false,
            pclmul: false,
        }
    }

    /// Every `Isa` this CPU runs: the baseline, then the detected one if
    /// it differs — so a bit-identity test that sweeps it covers both
    /// compilations of every kernel on a machine that has the features.
    pub fn all() -> Vec<Self> {
        let (baseline, detected) = (Self::baseline(), Self::detected());
        let mut all = vec![baseline];
        if detected != baseline {
            all.push(detected);
        }
        all
    }

    /// AVX2 (256-bit integer and float lanes).
    pub fn avx2(self) -> bool {
        self.avx2
    }

    /// AVX and F16C (`vcvtph2ps`/`vcvtps2ph`).
    pub fn f16c(self) -> bool {
        self.f16c
    }

    /// PCLMULQDQ and SSE4.1 (carry-less multiply, `pextrd`).
    pub fn pclmul(self) -> bool {
        self.pclmul
    }
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Isa {
    Isa {
        avx2: is_x86_feature_detected!("avx2"),
        f16c: is_x86_feature_detected!("avx") && is_x86_feature_detected!("f16c"),
        pclmul: is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1"),
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Isa {
    Isa::baseline()
}

/// Compiles each listed body a second time with AVX2 and emits the
/// function that picks a compilation from an [`Isa`](crate::isa::Isa):
///
/// ```text
/// exaclim_mathkit::avx2_dispatch! {
///     /// `gemm_body` on the compilation `isa` selects.
///     pub(crate) fn gemm[T: Real, const NR: usize]<T, NR>(
///         a: &[T], bt: &[T], c: &mut [T], b: usize, lower: bool,
///     ) = crate::kernels::gemm_body;
/// }
/// // gemm::<f64, 4>(isa, a, bt, c, b, false)
/// ```
///
/// `[…]` declares the generic parameters and `<…>` passes them on to the
/// body (both optional, together); the emitted function takes the `Isa`
/// first, then the listed parameters. The AVX2 copy is a nested
/// `#[target_feature(enable = "avx2")] fn avx2` (objdump names it
/// `…::gemm::avx2`) into which the body, `#[inline(always)]` with its
/// helpers, inlines whole. `fma` is never enabled, so both compilations
/// round every operation alike.
#[macro_export]
macro_rules! avx2_dispatch {
    ($(
        $(#[$attr:meta])*
        $vis:vis fn $name:ident $([$($gen:tt)*] <$($arg:ident),*>)?
            ($($param:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
            = $($body:ident)::+;
    )*) => {$(
        $(#[$attr])*
        $vis fn $name $(<$($gen)*>)? (
            isa: $crate::isa::Isa,
            $($param: $ty),*
        ) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if isa.avx2() {
                #[target_feature(enable = "avx2")]
                fn avx2 $(<$($gen)*>)? ($($param: $ty),*) $(-> $ret)? {
                    $($body)::+ $(::<$($arg),*>)? ($($param),*)
                }
                // SAFETY: `avx2` needs only AVX2, and `Isa::avx2` holds
                // only where AVX2 was detected on this CPU.
                return unsafe { avx2 $(::<$($arg),*>)? ($($param),*) };
            }
            $($body)::+ $(::<$($arg),*>)? ($($param),*)
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_starts_at_the_baseline_and_holds_the_detected_isa_once() {
        let all = Isa::all();
        assert_eq!(all[0], Isa::baseline());
        assert_eq!(all.iter().filter(|&&i| i == Isa::detected()).count(), 1);
        for (k, a) in all.iter().enumerate() {
            assert!(!all[k + 1..].contains(a), "{a:?} twice in {all:?}");
        }
        let b = Isa::baseline();
        assert!(!b.avx2() && !b.f16c() && !b.pclmul());
    }

    fn twice<const K: usize>(x: &[f64]) -> [f64; K] {
        std::array::from_fn(|i| 2.0 * x[i])
    }

    crate::avx2_dispatch! {
        fn twice_with[const K: usize]<K>(x: &[f64]) -> [f64; K] = twice;
    }

    #[test]
    fn every_compilation_runs_the_body() {
        for isa in Isa::all() {
            assert_eq!(twice_with::<3>(isa, &[1.0, -0.5, 3.0]), [2.0, -1.0, 6.0]);
        }
    }
}
