//! FFT plans: factorization, twiddle precomputation, and execution.
//!
//! The mixed-radix path is a decimation-in-time recursion whose shape
//! depends on `n` alone, so [`Fft::new`] lays it out once as a chain of
//! levels — one per prime factor, outermost first, the largest prime last
//! — and gathers every twiddle each level multiplies by into its own
//! table. Execution is then table walks with no index arithmetic: it runs
//! the multiplications and additions of the reference recursion
//! (`reference::rec_fft`, the previous implementation, kept under test),
//! with the same operands in the same order, so its output is the same to
//! the bit. ARCHITECTURE.md ("FFT execution contract") states the rule.

use exaclim_mathkit::Complex64;

/// Largest prime factor handled by the mixed-radix path; anything bigger
/// falls back to Bluestein (O(p²) base cases would dominate otherwise).
const MAX_DIRECT_PRIME: usize = 37;

/// A reusable FFT plan for a fixed length. Construction precomputes all
/// twiddle factors; execution allocates a scratch buffer per call (callers
/// with tight loops can reuse via [`Fft::forward_with_scratch`] and
/// [`Fft::inverse_with_scratch`]).
#[derive(Debug, Clone)]
pub struct Fft {
    n: usize,
    pub(crate) kind: Kind,
}

#[derive(Debug, Clone)]
pub(crate) enum Kind {
    /// n ∈ {0, 1}: nothing to do.
    Trivial,
    /// Recursive mixed-radix Cooley–Tukey: one split level per prime factor
    /// but the last, which is the naive-DFT base case.
    MixedRadix { splits: Vec<Split>, base: Base },
    /// Bluestein chirp-z: convolution through a power-of-two inner FFT.
    Bluestein {
        /// `chirp[k] = exp(-iπ k² / n)`.
        chirp: Vec<Complex64>,
        /// Forward inner-FFT of the (Hermitian-extended) conjugate chirp.
        chirp_spectrum: Vec<Complex64>,
        inner: Box<Fft>,
        m: usize,
    },
}

/// One split level of length `n = r·m`: `r` child transforms of length `m`
/// on the `r` decimated subsequences, then the radix-`r` combine. With
/// `w = exp(-2πi/N)` the master root and `ts = N/n` the level's twiddle
/// stride, the tables hold
///
/// * `pre[i·m + k1] = w^(ts·i·k1 mod N)` — the pre-twiddle of child `i`'s
///   bin `k1`,
/// * `butterfly[k2·r + i] = w^((ts·m mod N)·(i·k2 mod r) mod N)`,
///
/// read from the master table at exactly the indices the reference
/// recursion computes (`r·m + r²` values; ≤ 2N over all levels).
#[derive(Debug, Clone)]
pub(crate) struct Split {
    pub(crate) r: usize,
    pub(crate) m: usize,
    pub(crate) pre: Vec<Complex64>,
    pub(crate) butterfly: Vec<Complex64>,
}

/// The prime base case of length `p` at twiddle stride `ts = N/p`: the DFT
/// matrix gathered transposed, `table[j·p + k] = w^((j·k mod p)·ts mod N)`
/// (`p²` values).
#[derive(Debug, Clone)]
pub(crate) struct Base {
    pub(crate) p: usize,
    pub(crate) table: Vec<Complex64>,
}

impl Kind {
    /// Lay out the recursion for `n` (prime factors all ≤
    /// [`MAX_DIRECT_PRIME`]) and gather each level's twiddles.
    fn mixed_radix(n: usize) -> Self {
        let tw: Vec<Complex64> = (0..n)
            .map(|k| Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        let mut splits = Vec::new();
        let (mut len, mut ts) = (n, 1);
        loop {
            let r = smallest_prime_factor(len);
            if r == len {
                let table = (0..r * r)
                    .map(|jk| tw[(jk / r * (jk % r) % r) * ts % n])
                    .collect();
                return Kind::MixedRadix {
                    splits,
                    base: Base { p: r, table },
                };
            }
            let m = len / r;
            let pre = (0..r * m)
                .map(|ik| tw[ts * (ik / m) * (ik % m) % n])
                .collect();
            let butterfly = (0..r * r)
                .map(|ki| tw[ts * m % n * (ki % r * (ki / r) % r) % n])
                .collect();
            splits.push(Split {
                r,
                m,
                pre,
                butterfly,
            });
            (len, ts) = (m, ts * r);
        }
    }
}

impl Fft {
    /// Plan an FFT of length `n`.
    pub fn new(n: usize) -> Self {
        if n <= 1 {
            return Self {
                n,
                kind: Kind::Trivial,
            };
        }
        let factors = factorize(n);
        let max_prime = *factors.last().expect("n > 1 has factors");
        if max_prime <= MAX_DIRECT_PRIME {
            Self {
                n,
                kind: Kind::mixed_radix(n),
            }
        } else {
            // Bluestein: inner power-of-two length m >= 2n - 1.
            let m = (2 * n - 1).next_power_of_two();
            let chirp: Vec<Complex64> = (0..n)
                .map(|k| {
                    // k² mod 2n keeps the angle argument small and accurate.
                    let k2 = (k as u128 * k as u128 % (2 * n as u128)) as f64;
                    Complex64::cis(-std::f64::consts::PI * k2 / n as f64)
                })
                .collect();
            let inner = Box::new(Fft::new(m));
            let mut b = vec![Complex64::ZERO; m];
            b[0] = chirp[0].conj();
            for k in 1..n {
                b[k] = chirp[k].conj();
                b[m - k] = chirp[k].conj();
            }
            inner.forward(&mut b);
            Self {
                n,
                kind: Kind::Bluestein {
                    chirp,
                    chirp_spectrum: b,
                    inner,
                    m,
                },
            }
        }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate zero-length plan.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// True when the length has a prime factor above the mixed-radix
    /// path's largest, so the plan runs Bluestein's chirp-z convolution.
    pub fn is_bluestein(&self) -> bool {
        matches!(self.kind, Kind::Bluestein { .. })
    }

    /// Forward transform in place (no scaling).
    pub fn forward(&self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.n, "data length must match the plan");
        let mut scratch = vec![Complex64::ZERO; self.scratch_len()];
        self.forward_with_scratch(data, &mut scratch);
    }

    /// Inverse transform in place, scaled by `1/n`.
    pub fn inverse(&self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.n, "data length must match the plan");
        let mut scratch = vec![Complex64::ZERO; self.scratch_len()];
        self.inverse_with_scratch(data, &mut scratch);
    }

    /// Inverse transform using caller-provided scratch (len ≥
    /// [`Fft::scratch_len`]), scaled by `1/n`.
    pub fn inverse_with_scratch(&self, data: &mut [Complex64], scratch: &mut [Complex64]) {
        // inverse(x) = conj(forward(conj(x))) / n
        for z in data.iter_mut() {
            *z = z.conj();
        }
        self.forward_with_scratch(data, scratch);
        let s = 1.0 / self.n as f64;
        for z in data.iter_mut() {
            *z = z.conj().scale(s);
        }
    }

    /// Scratch length needed by [`Fft::forward_with_scratch`].
    pub fn scratch_len(&self) -> usize {
        match &self.kind {
            Kind::Trivial => 0,
            Kind::MixedRadix { .. } => 2 * self.n,
            Kind::Bluestein { m, inner, .. } => 2 * m + inner.scratch_len(),
        }
    }

    /// Forward transform using caller-provided scratch (len ≥
    /// [`Fft::scratch_len`]); hot loops avoid per-call allocation this way.
    pub fn forward_with_scratch(&self, data: &mut [Complex64], scratch: &mut [Complex64]) {
        assert_eq!(data.len(), self.n);
        assert!(scratch.len() >= self.scratch_len(), "scratch too small");
        match &self.kind {
            Kind::Trivial => {}
            Kind::MixedRadix { splits, base } => {
                let (work, rest) = scratch.split_at_mut(self.n);
                work.copy_from_slice(data);
                run_levels(splits, base, work, 1, data, rest);
            }
            Kind::Bluestein {
                chirp,
                chirp_spectrum,
                inner,
                m,
            } => {
                let (a, rest) = scratch.split_at_mut(*m);
                let (inner_scratch, _) = rest.split_at_mut(inner.scratch_len().max(*m));
                for z in a.iter_mut() {
                    *z = Complex64::ZERO;
                }
                for k in 0..self.n {
                    a[k] = data[k] * chirp[k];
                }
                inner.forward_with_scratch(a, inner_scratch);
                for (z, b) in a.iter_mut().zip(chirp_spectrum) {
                    *z *= *b;
                }
                // Inverse inner FFT via the conjugation identity.
                for z in a.iter_mut() {
                    *z = z.conj();
                }
                inner.forward_with_scratch(a, inner_scratch);
                let s = 1.0 / *m as f64;
                for k in 0..self.n {
                    data[k] = a[k].conj().scale(s) * chirp[k];
                }
            }
        }
    }
}

/// Prime factorization in ascending order (with multiplicity).
pub fn factorize(mut n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut p = 2usize;
    while p * p <= n {
        while n.is_multiple_of(p) {
            out.push(p);
            n /= p;
        }
        p += if p == 2 { 1 } else { 2 };
    }
    if n > 1 {
        out.push(n);
    }
    out
}

/// Execute the recursion from `splits[0]` down: `dst` (len = the level's
/// `n`) receives the DFT of `src[0], src[stride], …`. Every value is
/// computed by the operations `reference::rec_fft` uses for it, with every
/// twiddle read from the level's table instead of the master table; only
/// the interleaving of independent chains differs.
fn run_levels(
    splits: &[Split],
    base: &Base,
    src: &[Complex64],
    stride: usize,
    dst: &mut [Complex64],
    scratch: &mut [Complex64],
) {
    let Some((split, rest)) = splits.split_first() else {
        base.apply(src, stride, dst);
        return;
    };
    let (r, m) = (split.r, split.m);
    // Children: F_i = FFT_m of the i-th decimated subsequence.
    for (i, sub_dst) in dst.chunks_exact_mut(m).enumerate() {
        run_levels(rest, base, &src[i * stride..], stride * r, sub_dst, scratch);
    }
    let out = &mut scratch[..r * m];
    split.combine(dst, out);
    dst.copy_from_slice(out);
}

impl Split {
    /// Combine: `out[k1 + m·k2] = 0 + Σ_i (F_i[k1]·pre[i][k1]) · butterfly[k2][i]`
    /// in ascending `i`, where `dst` holds the children `F_i` back to back.
    /// The pre-twiddled `F_i[k1]` overwrite `F_i` in place; each output
    /// element then accumulates its own chain, vectorized over `k1`.
    fn combine(&self, dst: &mut [Complex64], out: &mut [Complex64]) {
        let (r, m) = (self.r, self.m);
        for (d, w) in dst.iter_mut().zip(&self.pre) {
            *d *= *w;
        }
        for (out_k2, bf) in out.chunks_exact_mut(m).zip(self.butterfly.chunks_exact(r)) {
            out_k2.fill(Complex64::ZERO);
            for (t_i, w) in dst.chunks_exact(m).zip(bf) {
                for (acc, t) in out_k2.iter_mut().zip(t_i) {
                    *acc += *t * *w;
                }
            }
        }
    }
}

impl Base {
    /// `dst[k] = 0 + Σ_j src[j·stride] · w^(j·k)` in ascending `j`, the
    /// `p` chains side by side.
    fn apply(&self, src: &[Complex64], stride: usize, dst: &mut [Complex64]) {
        dst.fill(Complex64::ZERO);
        for (j, row) in self.table.chunks_exact(self.p).enumerate() {
            let x = src[j * stride];
            for (acc, w) in dst.iter_mut().zip(row) {
                *acc += x * *w;
            }
        }
    }
}

#[inline]
fn smallest_prime_factor(n: usize) -> usize {
    if n.is_multiple_of(2) {
        return 2;
    }
    let mut p = 3;
    while p * p <= n {
        if n.is_multiple_of(p) {
            return p;
        }
        p += 2;
    }
    n
}

/// The recursion as it ran before its twiddles were gathered at plan time:
/// the oracle the plan's execution must match bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::{factorize, smallest_prime_factor, MAX_DIRECT_PRIME};
    use exaclim_mathkit::Complex64;

    /// The previous `Fft::forward` for every `n`: `rec_fft` on the master
    /// table, or Bluestein around a reference inner transform.
    pub(crate) fn forward(data: &mut [Complex64]) {
        let n = data.len();
        if n <= 1 {
            return;
        }
        if *factorize(n).last().unwrap() <= MAX_DIRECT_PRIME {
            let tw: Vec<Complex64> = (0..n)
                .map(|k| Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
                .collect();
            let work = data.to_vec();
            let mut scratch = vec![Complex64::ZERO; n];
            rec_fft(&work, 1, data, n, 1, n, &tw, &mut scratch);
            return;
        }
        let m = (2 * n - 1).next_power_of_two();
        let chirp: Vec<Complex64> = (0..n)
            .map(|k| {
                let k2 = (k as u128 * k as u128 % (2 * n as u128)) as f64;
                Complex64::cis(-std::f64::consts::PI * k2 / n as f64)
            })
            .collect();
        let mut b = vec![Complex64::ZERO; m];
        b[0] = chirp[0].conj();
        for k in 1..n {
            b[k] = chirp[k].conj();
            b[m - k] = chirp[k].conj();
        }
        forward(&mut b);
        let mut a = vec![Complex64::ZERO; m];
        for k in 0..n {
            a[k] = data[k] * chirp[k];
        }
        forward(&mut a);
        for (z, b) in a.iter_mut().zip(&b) {
            *z *= *b;
        }
        for z in a.iter_mut() {
            *z = z.conj();
        }
        forward(&mut a);
        let s = 1.0 / m as f64;
        for k in 0..n {
            data[k] = a[k].conj().scale(s) * chirp[k];
        }
    }

    /// The previous `Fft::inverse`: conjugate, forward, conjugate and scale.
    pub(crate) fn inverse(data: &mut [Complex64]) {
        for z in data.iter_mut() {
            *z = z.conj();
        }
        forward(data);
        let s = 1.0 / data.len() as f64;
        for z in data.iter_mut() {
            *z = z.conj().scale(s);
        }
    }

    /// Recursive decimation-in-time mixed-radix step.
    ///
    /// Computes `dst[k] = Σ_{j<n} src[j·stride] · w^{j·k·ts}` where `w` is the
    /// master root `exp(-2πi/N)` stored in `tw` and `ts = N/n` is the twiddle
    /// stride of this recursion level.
    #[allow(clippy::too_many_arguments)]
    fn rec_fft(
        src: &[Complex64],
        stride: usize,
        dst: &mut [Complex64],
        n: usize,
        ts: usize,
        master_n: usize,
        tw: &[Complex64],
        scratch: &mut [Complex64],
    ) {
        debug_assert_eq!(dst.len(), n);
        if n == 1 {
            dst[0] = src[0];
            return;
        }
        let r = smallest_prime_factor(n);
        if r == n {
            // Prime base case: naive DFT via the master table.
            for (k, d) in dst.iter_mut().enumerate() {
                let mut acc = Complex64::ZERO;
                for j in 0..n {
                    let idx = (j * k % n) * ts % master_n;
                    acc += src[j * stride] * tw[idx];
                }
                *d = acc;
            }
            return;
        }
        let m = n / r;
        // Children: F_i = FFT_m of the i-th decimated subsequence.
        for i in 0..r {
            let (sub_dst, _) = dst[i * m..].split_at_mut(m);
            rec_fft(
                &src[i * stride..],
                stride * r,
                sub_dst,
                m,
                ts * r,
                master_n,
                tw,
                scratch,
            );
        }
        // Combine: X[k1 + m k2] = Σ_i (F_i[k1]·w^{ts·i·k1}) · w^{ts·m·i·k2}.
        let mut t = [Complex64::ZERO; MAX_DIRECT_PRIME + 1];
        let (out, _) = scratch.split_at_mut(n);
        for k1 in 0..m {
            for (i, ti) in t[..r].iter_mut().enumerate() {
                let idx = ts * i * k1 % master_n;
                *ti = dst[i * m + k1] * tw[idx];
            }
            for k2 in 0..r {
                let mut acc = Complex64::ZERO;
                for (i, ti) in t[..r].iter().enumerate() {
                    let idx = ts * m % master_n * (i * k2 % r) % master_n;
                    acc += *ti * tw[idx];
                }
                out[k1 + m * k2] = acc;
            }
        }
        dst.copy_from_slice(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorize_basics() {
        assert_eq!(factorize(1), Vec::<usize>::new());
        assert_eq!(factorize(2), vec![2]);
        assert_eq!(factorize(12), vec![2, 2, 3]);
        assert_eq!(factorize(97), vec![97]);
        assert_eq!(factorize(1440), vec![2, 2, 2, 2, 2, 3, 3, 5]);
    }

    #[test]
    fn smallest_prime_factor_basics() {
        assert_eq!(smallest_prime_factor(2), 2);
        assert_eq!(smallest_prime_factor(9), 3);
        assert_eq!(smallest_prime_factor(35), 5);
        assert_eq!(smallest_prime_factor(101), 101);
    }

    #[test]
    fn bluestein_is_selected_for_large_primes() {
        let plan = Fft::new(1009); // prime > MAX_DIRECT_PRIME
        assert!(matches!(plan.kind, Kind::Bluestein { .. }) && plan.is_bluestein());
        let plan = Fft::new(1024);
        assert!(matches!(plan.kind, Kind::MixedRadix { .. }) && !plan.is_bluestein());
        // The SHT's longitude lengths 2L + 1: L = 62 direct, L = 64 not.
        assert!(!Fft::new(125).is_bluestein() && Fft::new(129).is_bluestein());
    }

    /// Every length the oracle test covers: all of 1..=130 (every split
    /// shape up to three levels, every direct prime, Bluestein from 41 on)
    /// and the SHT grid and Bluestein sizes above it.
    fn oracle_lengths() -> impl Iterator<Item = usize> {
        (1..=130).chain([144, 256, 360, 1009, 1440])
    }

    /// Ordinary values with ±0.0 and subnormals mixed in.
    fn awkward(rng: &mut rand::rngs::StdRng, len: usize) -> Vec<f64> {
        use rand::Rng;
        const SPECIAL: [f64; 6] = [0.0, -0.0, 5e-324, -5e-324, 1.1e-308, -3e-310];
        (0..len)
            .map(|_| match rng.gen_range(0..4u32) {
                0 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
                _ => rng.gen_range(-1.0..1.0),
            })
            .collect()
    }

    fn complex(v: &[f64]) -> Vec<Complex64> {
        v.chunks_exact(2)
            .map(|c| Complex64::new(c[0], c[1]))
            .collect()
    }

    fn assert_same_bits(got: &[Complex64], want: &[Complex64], what: &str, n: usize) {
        assert_eq!(got.len(), want.len());
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
                "{what}, n = {n}, bin {k}: {g:?} vs reference {w:?}"
            );
        }
    }

    #[test]
    fn gathered_twiddles_reproduce_the_reference_recursion_bit_for_bit() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        for n in oracle_lengths() {
            let plan = Fft::new(n);
            // Dirty scratch: no result may depend on what it held before.
            let mut scratch = vec![Complex64::new(7.0, -7.0); plan.scratch_len()];
            let x = complex(&awkward(&mut rng, 2 * n));

            let mut got = x.clone();
            plan.forward_with_scratch(&mut got, &mut scratch);
            let mut want = x.clone();
            reference::forward(&mut want);
            assert_same_bits(&got, &want, "forward", n);

            let mut got = x.clone();
            plan.inverse_with_scratch(&mut got, &mut scratch);
            let mut want = x;
            reference::inverse(&mut want);
            assert_same_bits(&got, &want, "inverse", n);
        }
    }

    #[test]
    fn real_transforms_reproduce_the_reference_bit_for_bit() {
        use crate::real::{irfft_into, real_scratch_len, rfft_into};
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(22);
        for n in oracle_lengths() {
            let plan = Fft::new(n);
            let bins = n / 2 + 1;
            let mut scratch = vec![Complex64::new(-3.0, 3.0); real_scratch_len(&plan)];

            let signal = awkward(&mut rng, n);
            let mut want: Vec<Complex64> = signal.iter().map(|&v| Complex64::real(v)).collect();
            reference::forward(&mut want);
            // The full half-spectrum and a truncated one (the SHT keeps
            // only the bins below its band-limit).
            for keep in [bins, bins.div_ceil(2)] {
                let mut got = vec![Complex64::ZERO; keep];
                rfft_into(&plan, &signal, &mut got, &mut scratch);
                assert_same_bits(&got, &want[..keep], "rfft_into", n);
            }

            let half = complex(&awkward(&mut rng, 2 * bins));
            let mut full = vec![Complex64::ZERO; n];
            full[..bins].copy_from_slice(&half);
            for k in 1..n.div_ceil(2) {
                full[n - k] = half[k].conj();
            }
            reference::inverse(&mut full);
            let mut got = vec![0.0; n];
            irfft_into(&plan, &half, &mut got, &mut scratch);
            for (k, (g, w)) in got.iter().zip(&full).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.re.to_bits(),
                    "irfft_into, n = {n}, sample {k}"
                );
            }
        }
    }

    #[test]
    fn twiddle_tables_stay_linear_in_n() {
        // Σ over levels of r·m + r² plus p² for the base: at most ~2N + p².
        for n in [33usize, 64, 360, 1440, 4096] {
            let Kind::MixedRadix { splits, base } = Fft::new(n).kind else {
                panic!("{n} is smooth");
            };
            let stored: usize = splits
                .iter()
                .map(|s| s.pre.len() + s.butterfly.len())
                .sum::<usize>()
                + base.table.len();
            assert!(
                stored <= 2 * n + 2 * MAX_DIRECT_PRIME.pow(2),
                "n = {n}: {stored}"
            );
        }
    }

    #[test]
    fn scratch_reuse_matches_allocating_path() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        for &n in &[64usize, 120, 1009] {
            let plan = Fft::new(n);
            let x: Vec<Complex64> = (0..n)
                .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let mut a = x.clone();
            let mut b = x.clone();
            plan.forward(&mut a);
            let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
            plan.forward_with_scratch(&mut b, &mut scratch);
            for (u, v) in a.iter().zip(&b) {
                assert!((*u - *v).abs() < 1e-12);
            }
        }
    }
}
