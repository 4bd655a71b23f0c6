//! FFT plans: factorization, twiddle precomputation, and execution.

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
    kind: Kind,
}

#[derive(Debug, Clone)]
enum Kind {
    /// n ∈ {0, 1}: nothing to do.
    Trivial,
    /// Recursive mixed-radix Cooley–Tukey over the given prime factors with
    /// a master twiddle table `w^k = exp(-2πik/n)`.
    MixedRadix { twiddles: Vec<Complex64> },
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
            let twiddles = (0..n)
                .map(|k| Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
                .collect();
            Self {
                n,
                kind: Kind::MixedRadix { twiddles },
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
            Kind::MixedRadix { twiddles } => {
                let (work, rest) = scratch.split_at_mut(self.n);
                work.copy_from_slice(data);
                rec_fft(work, 1, data, self.n, 1, self.n, twiddles, rest);
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
        assert!(matches!(plan.kind, Kind::Bluestein { .. }));
        let plan = Fft::new(1024);
        assert!(matches!(plan.kind, Kind::MixedRadix { .. }));
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
