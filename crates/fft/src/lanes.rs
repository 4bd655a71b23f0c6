//! Lane groups: one plan run on [`LANES`] signals of the same length at
//! once, for callers that transform many of them (the SHT's rings across a
//! block of time slices).
//!
//! A lane group stores its signals structure-of-arrays: element `k` of
//! every signal is one [`Lanes`] value, so each complex operation of the
//! plan becomes one operation on `LANES` packed values. The executor walks
//! the plan's own `Split`/`Base` tables as a loop over levels — base cases
//! first, then the combines from the innermost split out — rather than
//! recursing, so the whole transform inlines into one body that
//! `exaclim_mathkit::avx2_dispatch!` compiles twice (baseline and AVX2,
//! never FMA).
//!
//! **Contract.** Every lane runs exactly the chain the scalar plan runs for
//! its signal — same operands, same order, each element's sum starting at
//! `+0.0` — so a lane's output equals [`crate::rfft_into`] or
//! [`crate::irfft_into`] on that signal, bit for bit. Independent chains are
//! only interleaved differently. Two shortcuts skip work whose result is
//! known exactly:
//!
//! * **Real input** ([`rfft_lanes`]): every input imaginary part is `+0.0`,
//!   so in the base case each product `x·w` loses its `x.im·w` terms. Those
//!   terms are `±0`; subtracting or adding one leaves any nonzero or NaN
//!   value unchanged and can at most flip the sign of a zero product. The
//!   product is then added to an accumulator that starts at `+0.0`, and a
//!   round-to-nearest sum is `−0` only when both of its operands are `−0`,
//!   so no accumulator is ever `−0` and `acc + (+0) = acc + (−0)` bit for
//!   bit. ±∞ and NaN inputs meet only finite twiddles and propagate as
//!   before. The outermost combine also computes only the bins the caller
//!   keeps.
//! * **Real output** ([`irfft_lanes`]): the outermost combine runs only the
//!   real chain of each element; the imaginary one is discarded anyway.
//!
//! A NaN stays a NaN wherever the scalar code has one, but where two NaNs
//! meet in one sum, which of them propagates depends on operand order, and
//! the compiler may commute either implementation's additions: NaN
//! payloads are not part of the contract.
//!
//! Bluestein lengths (a prime factor above the direct radices) and the
//! trivial lengths 0 and 1 run the scalar code lane by lane.

use crate::plan::{Base, Fft, Kind, Split};
use exaclim_mathkit::isa::Isa;
use exaclim_mathkit::Complex64;

/// Signals per lane group: four f64 lanes fill one 256-bit register.
pub const LANES: usize = 4;

/// One complex element of every signal in a lane group.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Lanes {
    /// Real parts, one per lane.
    pub re: [f64; LANES],
    /// Imaginary parts, one per lane.
    pub im: [f64; LANES],
}

impl Lanes {
    /// `+0.0` in every lane, real and imaginary.
    pub const ZERO: Self = Self {
        re: [0.0; LANES],
        im: [0.0; LANES],
    };

    /// The element of lane `lane`.
    #[inline(always)]
    pub fn get(&self, lane: usize) -> Complex64 {
        Complex64::new(self.re[lane], self.im[lane])
    }

    /// Overwrite the element of lane `lane`.
    #[inline(always)]
    pub fn set(&mut self, lane: usize, z: Complex64) {
        self.re[lane] = z.re;
        self.im[lane] = z.im;
    }

    /// `z.scale(s)` in every lane.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        let mut out = self;
        for l in 0..LANES {
            out.re[l] = self.re[l] * s;
            out.im[l] = self.im[l] * s;
        }
        out
    }
}

/// `acc += x · w` in every lane, as `Complex64`'s `+=` and `*` compute it;
/// `REAL_IN` drops the `x.im` terms and `RE_OUT` the imaginary chain (the
/// two shortcuts of the module doc).
#[inline(always)]
fn acc_mul<const REAL_IN: bool, const RE_OUT: bool>(acc: &mut Lanes, x: &Lanes, w: Complex64) {
    for l in 0..LANES {
        acc.re[l] = if REAL_IN {
            acc.re[l] + x.re[l] * w.re
        } else {
            acc.re[l] + (x.re[l] * w.re - x.im[l] * w.im)
        };
        if !RE_OUT {
            acc.im[l] = if REAL_IN {
                acc.im[l] + x.re[l] * w.im
            } else {
                acc.im[l] + (x.re[l] * w.im + x.im[l] * w.re)
            };
        }
    }
}

/// `x · w` in every lane (`Complex64`'s `*`).
#[inline(always)]
fn mul(x: Lanes, w: Complex64) -> Lanes {
    let mut out = x;
    for l in 0..LANES {
        out.re[l] = x.re[l] * w.re - x.im[l] * w.im;
        out.im[l] = x.re[l] * w.im + x.im[l] * w.re;
    }
    out
}

/// Where the base cases read their input: complex lane groups, or real
/// ones whose imaginary parts are `+0.0` (what `Complex64::real` builds).
pub(crate) trait Source {
    fn load(&self, j: usize) -> Lanes;
}

impl Source for [Lanes] {
    #[inline(always)]
    fn load(&self, j: usize) -> Lanes {
        self[j]
    }
}

impl Source for [[f64; LANES]] {
    #[inline(always)]
    fn load(&self, j: usize) -> Lanes {
        Lanes {
            re: self[j],
            im: [0.0; LANES],
        }
    }
}

/// One base case: `leaf[k] = 0 + Σ_j src[off + j·stride] · table[j·p + k]`
/// in ascending `j`, for the `leaf.len() ≤ p` bins asked for.
#[inline(always)]
fn leaf_dft<S: Source + ?Sized, const REAL_IN: bool, const RE_OUT: bool>(
    base: &Base,
    src: &S,
    (off, stride): (usize, usize),
    leaf: &mut [Lanes],
) {
    let p = base.p;
    for (k, out) in leaf.iter_mut().enumerate() {
        let mut acc = Lanes::ZERO;
        for j in 0..p {
            let x = src.load(off + j * stride);
            acc_mul::<REAL_IN, RE_OUT>(&mut acc, &x, base.table[j * p + k]);
        }
        *out = acc;
    }
}

/// Every base case of the recursion, into `dst` (length `n`) leaf after
/// leaf: leaf `q` transforms the subsequence the recursion hands it,
/// `src[off], src[off + stride], …` with `stride = n/p` and `off` the
/// split indices of `q·p` read in mixed radix.
#[inline(always)]
fn base_level<S: Source + ?Sized, const REAL_IN: bool>(
    splits: &[Split],
    base: &Base,
    src: &S,
    dst: &mut [Lanes],
) {
    for (q, leaf) in dst.chunks_exact_mut(base.p).enumerate() {
        let (mut rem, mut off, mut stride) = (q * base.p, 0, 1);
        for s in splits {
            off += rem / s.m * stride;
            rem %= s.m;
            stride *= s.r;
        }
        leaf_dft::<S, REAL_IN, false>(base, src, (off, stride), leaf);
    }
}

/// One radix-`r` combine of the `r` children held back to back in `d`
/// (`Split::combine`'s chains): pre-twiddle in place, then
/// `out[k1 + m·k2] = 0 + Σ_i t_i[k1] · butterfly[k2][i]` in ascending `i`
/// for the first `out.len() ≤ r·m` bins only.
#[inline(always)]
fn combine<const RE_OUT: bool>(split: &Split, d: &mut [Lanes], out: &mut [Lanes]) {
    let (r, m) = (split.r, split.m);
    // Bins past `k1_end` feed no output asked for.
    let k1_end = m.min(out.len());
    for (t_i, pre_i) in d.chunks_exact_mut(m).zip(split.pre.chunks_exact(m)) {
        for (t, w) in t_i[..k1_end].iter_mut().zip(pre_i) {
            *t = mul(*t, *w);
        }
    }
    for (out_k2, bf) in out.chunks_mut(m).zip(split.butterfly.chunks_exact(r)) {
        for (k1, o) in out_k2.iter_mut().enumerate() {
            let mut acc = Lanes::ZERO;
            for (i, w) in bf.iter().enumerate() {
                acc_mul::<false, RE_OUT>(&mut acc, &d[i * m + k1], *w);
            }
            *o = acc;
        }
    }
}

/// The base cases and every combine but the outermost one (`splits[0]`),
/// leaving its input in `work`; `tmp` is combine scratch. Both are `n`
/// long.
#[inline(always)]
fn inner_levels<S: Source + ?Sized, const REAL_IN: bool>(
    splits: &[Split],
    base: &Base,
    src: &S,
    work: &mut [Lanes],
    tmp: &mut [Lanes],
) {
    base_level::<S, REAL_IN>(splits, base, src, work);
    for split in splits[1..].iter().rev() {
        let len = split.r * split.m;
        let out = &mut tmp[..len];
        for chunk in work.chunks_exact_mut(len) {
            combine::<false>(split, chunk, out);
            chunk.copy_from_slice(out);
        }
    }
}

/// The first `out.len()` bins of the real signals `input` (length `n`).
#[inline(always)]
fn rfft_body(
    splits: &[Split],
    base: &Base,
    input: &[[f64; LANES]],
    out: &mut [Lanes],
    work: &mut [Lanes],
    tmp: &mut [Lanes],
) {
    match splits.first() {
        None => leaf_dft::<[[f64; LANES]], true, false>(base, input, (0, 1), out),
        Some(outer) => {
            inner_levels::<[[f64; LANES]], true>(splits, base, input, work, tmp);
            combine::<false>(outer, work, out);
        }
    }
}

/// The real signals (length `n`) whose `n/2 + 1` bins are `half`; `spec`,
/// `work` and `tmp` are `n` long.
#[inline(always)]
fn irfft_body(
    splits: &[Split],
    base: &Base,
    half: &[Lanes],
    out: &mut [[f64; LANES]],
    (spec, work, tmp): (&mut [Lanes], &mut [Lanes], &mut [Lanes]),
) {
    let n = out.len();
    // `irfft_into`'s mirrored buffer after `inverse_with_scratch`'s first
    // conjugation: `conj(half[k])` below the mirror, `conj(conj(half[k]))
    // = half[k]` (two sign flips, exact) above it.
    for (s, h) in spec.iter_mut().zip(half) {
        *s = *h;
        for l in 0..LANES {
            s.im[l] = -h.im[l];
        }
    }
    for k in 1..n.div_ceil(2) {
        spec[n - k] = half[k];
    }
    // Only the real parts survive `conj(z).scale(1/n).re = z.re · (1/n)`.
    let fwd: &[Lanes] = match splits.first() {
        None => {
            leaf_dft::<[Lanes], false, true>(base, &*spec, (0, 1), work);
            work
        }
        Some(outer) => {
            inner_levels::<[Lanes], false>(splits, base, &*spec, work, tmp);
            combine::<true>(outer, work, spec);
            spec
        }
    };
    let s = 1.0 / n as f64;
    for (o, z) in out.iter_mut().zip(fwd) {
        for l in 0..LANES {
            o[l] = z.re[l] * s;
        }
    }
}

// The two bodies on the compilation `isa` selects (baseline or AVX2).
exaclim_mathkit::avx2_dispatch! {
    fn rfft_mixed(
        splits: &[Split],
        base: &Base,
        input: &[[f64; LANES]],
        out: &mut [Lanes],
        work: &mut [Lanes],
        tmp: &mut [Lanes],
    ) = rfft_body;
    fn irfft_mixed(
        splits: &[Split],
        base: &Base,
        half: &[Lanes],
        out: &mut [[f64; LANES]],
        bufs: (&mut [Lanes], &mut [Lanes], &mut [Lanes]),
    ) = irfft_body;
}

/// Caller-owned working memory of the lane transforms on one plan
/// ([`Fft::lane_scratch`]).
#[derive(Debug, Clone)]
pub struct LaneScratch {
    /// Mixed-radix plans: three lane buffers of length `n`.
    lanes: Vec<Lanes>,
    /// Scalar-fallback plans: one signal plus the plan's scratch.
    scalar: Vec<Complex64>,
}

impl LaneScratch {
    fn three(&mut self, n: usize) -> (&mut [Lanes], &mut [Lanes], &mut [Lanes]) {
        let (a, rest) = self.lanes[..3 * n].split_at_mut(n);
        let (b, c) = rest.split_at_mut(n);
        (a, b, c)
    }
}

impl Fft {
    /// Working memory for this plan's lane transforms.
    pub fn lane_scratch(&self) -> LaneScratch {
        match &self.kind {
            Kind::MixedRadix { .. } => LaneScratch {
                lanes: vec![Lanes::ZERO; 3 * self.len()],
                scalar: Vec::new(),
            },
            _ => LaneScratch {
                lanes: Vec::new(),
                scalar: vec![Complex64::ZERO; self.len() + self.scratch_len()],
            },
        }
    }
}

/// [`crate::rfft_into`] on every lane: the first `out.len() ≤ n/2 + 1` bins
/// of the real signals `input` (length `n`).
pub fn rfft_lanes(
    plan: &Fft,
    input: &[[f64; LANES]],
    out: &mut [Lanes],
    scratch: &mut LaneScratch,
) {
    rfft_lanes_with(Isa::detected(), plan, input, out, scratch)
}

/// [`crate::irfft_into`] on every lane: the real signals (length `n`, into
/// `out`) whose `n/2 + 1` non-redundant bins are `half`.
pub fn irfft_lanes(
    plan: &Fft,
    half: &[Lanes],
    out: &mut [[f64; LANES]],
    scratch: &mut LaneScratch,
) {
    irfft_lanes_with(Isa::detected(), plan, half, out, scratch)
}

pub(crate) fn rfft_lanes_with(
    isa: Isa,
    plan: &Fft,
    input: &[[f64; LANES]],
    out: &mut [Lanes],
    scratch: &mut LaneScratch,
) {
    let n = plan.len();
    assert_eq!(input.len(), n);
    assert!(out.len() <= n / 2 + 1, "a real signal has n/2+1 bins");
    match &plan.kind {
        Kind::MixedRadix { splits, base } => {
            let (_, work, tmp) = scratch.three(n);
            rfft_mixed(isa, splits, base, input, out, work, tmp);
        }
        _ => {
            // `rfft_into`, lane by lane.
            let (buf, rest) = scratch.scalar.split_at_mut(n);
            for l in 0..LANES {
                for (b, x) in buf.iter_mut().zip(input) {
                    *b = Complex64::real(x[l]);
                }
                plan.forward_with_scratch(buf, rest);
                for (o, b) in out.iter_mut().zip(buf.iter()) {
                    o.set(l, *b);
                }
            }
        }
    }
}

pub(crate) fn irfft_lanes_with(
    isa: Isa,
    plan: &Fft,
    half: &[Lanes],
    out: &mut [[f64; LANES]],
    scratch: &mut LaneScratch,
) {
    let n = plan.len();
    assert_eq!(half.len(), n / 2 + 1, "need n/2+1 bins for length {n}");
    assert_eq!(out.len(), n);
    match &plan.kind {
        Kind::MixedRadix { splits, base } => {
            irfft_mixed(isa, splits, base, half, out, scratch.three(n));
        }
        _ => {
            // `irfft_into`, lane by lane.
            let (buf, rest) = scratch.scalar.split_at_mut(n);
            for l in 0..LANES {
                for (b, h) in buf.iter_mut().zip(half) {
                    *b = h.get(l);
                }
                for k in 1..n.div_ceil(2) {
                    buf[n - k] = half[k].get(l).conj();
                }
                plan.inverse_with_scratch(buf, rest);
                for (o, b) in out.iter_mut().zip(buf.iter()) {
                    o[l] = b.re;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::real::{irfft_into, real_scratch_len, rfft_into};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The lengths of `plan`'s oracle sweep: every split shape up to three
    /// levels, every direct prime, Bluestein from 41 on, and the SHT grid
    /// and Bluestein sizes above 130.
    fn lengths() -> impl Iterator<Item = usize> {
        (1..=130).chain([144, 256, 360, 1009, 1440])
    }

    /// One signal of `len` values, by `kind`: one of the four all-zero
    /// signals whose every product is a signed zero; ordinary values salted
    /// with ±0 and subnormals; that with one +∞, NaN or −∞ among them; or
    /// salted with all of those.
    fn signal(rng: &mut StdRng, len: usize, kind: usize) -> Vec<f64> {
        const SPECIAL: [f64; 9] = [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            1.1e-308,
            -3e-310,
            f64::INFINITY,
            f64::NAN,
            f64::NEG_INFINITY,
        ];
        let finite = if kind == 8 { SPECIAL.len() } else { 6 };
        let mut v: Vec<f64> = (0..len)
            .map(|j| match kind {
                0 => 0.0,
                1 => -0.0,
                2 => [0.0, -0.0][j % 2],
                3 => [0.0, -0.0][rng.gen_range(0..2usize)],
                _ => match rng.gen_range(0..4u32) {
                    0 => SPECIAL[rng.gen_range(0..finite)],
                    _ => rng.gen_range(-1.0..1.0),
                },
            })
            .collect();
        if (5..=7).contains(&kind) && len > 0 {
            let at = rng.gen_range(0..len);
            v[at] = SPECIAL[kind + 1];
        }
        v
    }

    /// Bits, except that every NaN is one key: a NaN stays a NaN in every
    /// lane, but which NaN propagates when two meet in a sum (a mirrored
    /// bin and its conjugate, `∞ − ∞` and an input NaN) depends on operand
    /// order, which the compiler may commute in either implementation.
    fn key(x: f64) -> u64 {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    /// `count` signals of `per` values each, laid out in lane groups of
    /// `LANES` (`per` elements per group); lanes past `count` hold junk
    /// that no used lane may see.
    fn groups(signals: &[Vec<f64>], per: usize) -> Vec<Vec<[f64; LANES]>> {
        signals
            .chunks(LANES)
            .map(|g| {
                (0..per)
                    .map(|k| std::array::from_fn(|l| g.get(l).map_or(f64::NAN, |s| s[k])))
                    .collect()
            })
            .collect()
    }

    fn complex_groups(signals: &[Vec<f64>], per: usize) -> Vec<Vec<Lanes>> {
        groups(signals, 2 * per)
            .into_iter()
            .map(|g| {
                g.chunks_exact(2)
                    .map(|c| Lanes { re: c[0], im: c[1] })
                    .collect()
            })
            .collect()
    }

    fn same(got: Complex64, want: Complex64) -> bool {
        key(got.re) == key(want.re) && key(got.im) == key(want.im)
    }

    /// `LANES + 1 ..= 2·LANES` signals, so across the lengths the last
    /// lane group holds every size from one to `LANES`; their kinds
    /// rotate with `n` through all of [`signal`]'s.
    fn batch(rng: &mut StdRng, n: usize, len: usize) -> Vec<Vec<f64>> {
        (0..LANES + 1 + n % LANES)
            .map(|s| signal(rng, len, (s + n) % 9))
            .collect()
    }

    #[test]
    fn real_lanes_reproduce_rfft_into_and_irfft_into_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(33);
        for n in lengths() {
            let plan = Fft::new(n);
            let bins = n / 2 + 1;
            let mut scalar = vec![Complex64::new(-3.0, 3.0); real_scratch_len(&plan)];
            let signals = batch(&mut rng, n, n);
            let spectra = batch(&mut rng, n, 2 * bins);
            for isa in Isa::all() {
                // Dirty scratch: no result may depend on what it held.
                let mut scratch = plan.lane_scratch();
                scratch.lanes.fill(Lanes {
                    re: [9.0; LANES],
                    im: [-9.0; LANES],
                });
                // The full half-spectrum and a truncated one (the SHT keeps
                // only the bins below its band-limit).
                for keep in [bins, bins.div_ceil(2)] {
                    for (gi, group) in groups(&signals, n).into_iter().enumerate() {
                        let mut got = vec![Lanes::ZERO; keep];
                        rfft_lanes_with(isa, &plan, &group, &mut got, &mut scratch);
                        for (l, x) in signals[gi * LANES..].iter().take(LANES).enumerate() {
                            let mut want = vec![Complex64::ZERO; keep];
                            rfft_into(&plan, x, &mut want, &mut scalar);
                            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                                assert!(
                                    same(g.get(l), *w),
                                    "rfft n={n} keep {keep} {isa:?} lane {l} bin {k}: {:?} vs {w:?}",
                                    g.get(l)
                                );
                            }
                        }
                    }
                }
                for (gi, half) in complex_groups(&spectra, bins).into_iter().enumerate() {
                    let mut got = vec![[f64::NAN; LANES]; n];
                    irfft_lanes_with(isa, &plan, &half, &mut got, &mut scratch);
                    for l in 0..LANES.min(spectra.len() - gi * LANES) {
                        let h: Vec<Complex64> = half.iter().map(|z| z.get(l)).collect();
                        let mut want = vec![0.0; n];
                        irfft_into(&plan, &h, &mut want, &mut scalar);
                        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                            assert_eq!(
                                key(g[l]),
                                key(*w),
                                "irfft n={n} {isa:?} lane {l} sample {k}: {} vs {w}",
                                g[l]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_real_input_shortcut_keeps_signed_zero_products_exact() {
        // n = 3: the base case multiplies x = −0 and +0 by twiddles whose
        // imaginary parts are negative (w¹ = e^{−2πi/3}). The dropped
        // `x.im·w` terms would have turned a `−0` product into `+0`; the
        // accumulator's `+0.0` start makes that invisible.
        let plan = Fft::new(3);
        let mut scalar = vec![Complex64::ZERO; real_scratch_len(&plan)];
        let mut scratch = plan.lane_scratch();
        let cases = [
            [-0.0, -0.0, -0.0],
            [0.0, -0.0, 0.0],
            [-0.0, 0.0, 5e-324],
            [-0.0, -0.0, -1.0],
        ];
        let input: Vec<[f64; LANES]> = (0..3)
            .map(|j| std::array::from_fn(|l| cases[l][j]))
            .collect();
        for isa in Isa::all() {
            let mut got = vec![Lanes::ZERO; 2];
            rfft_lanes_with(isa, &plan, &input, &mut got, &mut scratch);
            for (l, x) in cases.iter().enumerate() {
                let mut want = vec![Complex64::ZERO; 2];
                rfft_into(&plan, x, &mut want, &mut scalar);
                for k in 0..2 {
                    assert!(same(got[k].get(l), want[k]), "{isa:?} case {l} bin {k}");
                }
            }
        }
    }
}
