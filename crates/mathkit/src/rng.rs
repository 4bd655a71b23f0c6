//! Random-variate generation built on the `rand` core traits.
//!
//! `rand_distr` is not on the sanctioned crate list, so the Gaussian sampler
//! (polar Box–Muller with a cached second variate) and the correlated
//! multivariate-normal sampler (lower-triangular factor times i.i.d. normals)
//! live here.

use rand::Rng;

/// Standard normal sampler using the polar (Marsaglia) Box–Muller method.
///
/// Each acceptance produces two independent N(0,1) variates; the second is
/// cached so the amortized cost is one log/sqrt per variate.
///
/// [`StandardNormal::sample`] runs the method one variate at a time. Bulk
/// draws ([`StandardNormal::fill`], [`StandardNormal::scan`]) split it in
/// two phases that give the same bits: a sequential, branch-free acceptance
/// scan that records each accepted `(u, v, s)` in stream order, and an
/// independent per-pair transform `f = √(−2·ln s / s)` → `u·f, v·f` that
/// may run anywhere, in any order.
#[derive(Debug, Clone, Default)]
pub struct StandardNormal {
    cache: Option<f64>,
}

/// One accepted candidate of the polar method: `u, v` uniform on
/// `[−1, 1)` with `0 < s = u² + v² < 1`.
#[derive(Debug, Clone, Copy, Default)]
struct PolarPair {
    u: f64,
    v: f64,
    s: f64,
}

impl PolarPair {
    /// The pair's two normal variates, `u·f` and `v·f` with
    /// `f = √(−2·ln s / s)`: the first is what [`StandardNormal::sample`]
    /// returns on this acceptance, the second what it caches.
    #[inline]
    fn variates(self) -> [f64; 2] {
        let f = (-2.0 * self.s.ln() / self.s).sqrt();
        [self.u * f, self.v * f]
    }
}

/// Phase one: fill `pairs` with the next accepted candidates, in stream
/// order. Every candidate draws `u` then `v` as `sample` does and is
/// written unconditionally; only an accepted one advances the slot, so the
/// scan has no data-dependent branch but its loop test.
fn accept_pairs<R: Rng + ?Sized>(rng: &mut R, pairs: &mut [PolarPair]) {
    let mut n = 0;
    while n < pairs.len() {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        pairs[n] = PolarPair { u, v, s };
        n += usize::from((s > 0.0) & (s < 1.0));
    }
}

/// Phase two: write variates `start..start + out.len()` of the stream the
/// pairs make (variate `j` is half `j mod 2` of pair `j / 2`).
fn transform_pairs(pairs: &[PolarPair], start: usize, out: &mut [f64]) {
    // A range that starts on a pair's second half takes that half first.
    let (head, body) = out.split_at_mut((start % 2).min(out.len()));
    if let [h] = head {
        *h = pairs[start / 2].variates()[1];
    }
    let first = start.div_ceil(2);
    let full = body.len() / 2;
    let mut chunks = body.chunks_exact_mut(2);
    for (o, p) in (&mut chunks).zip(&pairs[first..first + full]) {
        o.copy_from_slice(&p.variates());
    }
    if let [last] = chunks.into_remainder() {
        *last = pairs[first + full].variates()[0];
    }
}

/// `n` variates of a [`StandardNormal`] stream with the acceptance scan
/// done ([`StandardNormal::scan`]) and the transform still to run:
/// [`ScannedNormals::transform_into`] writes any range of them, from any
/// thread, with the bits `n` calls of `sample` return.
#[derive(Debug, Clone, Default)]
pub struct ScannedNormals {
    /// The sampler's cached variate, which leads the range.
    lead: Option<f64>,
    pairs: Vec<PolarPair>,
    len: usize,
}

impl ScannedNormals {
    /// Write variates `start..start + out.len()` of the scanned range.
    pub fn transform_into(&self, start: usize, out: &mut [f64]) {
        assert!(
            start + out.len() <= self.len,
            "range past the scanned variates"
        );
        if out.is_empty() {
            return;
        }
        match self.lead {
            None => transform_pairs(&self.pairs, start, out),
            Some(lead) if start == 0 => {
                out[0] = lead;
                transform_pairs(&self.pairs, 0, &mut out[1..]);
            }
            Some(_) => transform_pairs(&self.pairs, start - 1, out),
        }
    }
}

impl StandardNormal {
    /// Create a sampler with an empty cache.
    pub fn new() -> Self {
        Self { cache: None }
    }

    /// Draw one standard normal variate.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(v) = self.cache.take() {
            return v;
        }
        loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let f = (-2.0 * s.ln() / s).sqrt();
                self.cache = Some(v * f);
                return u * f;
            }
        }
    }

    /// Fill a slice with i.i.d. standard normal variates: the bits of
    /// `out.len()` calls to [`StandardNormal::sample`], the RNG and the
    /// cache left as they leave them. Both phases run on the caller.
    pub fn fill<R: Rng + ?Sized>(&mut self, rng: &mut R, out: &mut [f64]) {
        let mut block = ScannedNormals::default();
        self.scan(rng, out.len(), &mut block);
        block.transform_into(0, out);
    }

    /// Phase one of `n` calls to [`StandardNormal::sample`]: run the
    /// acceptance scan into `block` (reusing its storage), which then
    /// transforms any range of the `n` variates. The sampler is left as
    /// those calls leave it — the cached variate, if any, leads the block,
    /// and an odd tail's spare variate becomes the new cache.
    pub fn scan<R: Rng + ?Sized>(&mut self, rng: &mut R, n: usize, block: &mut ScannedNormals) {
        block.len = n;
        block.lead = if n > 0 { self.cache.take() } else { None };
        let paired = n - usize::from(block.lead.is_some());
        block.pairs.clear();
        block.pairs.resize(paired.div_ceil(2), PolarPair::default());
        accept_pairs(rng, &mut block.pairs);
        if paired % 2 == 1 {
            self.cache = Some(block.pairs[block.pairs.len() - 1].variates()[1]);
        }
    }

    /// Draw `n` variates into a fresh vector.
    pub fn sample_vec<R: Rng + ?Sized>(&mut self, rng: &mut R, n: usize) -> Vec<f64> {
        let mut v = vec![0.0; n];
        self.fill(rng, &mut v);
        v
    }
}

/// Sampler for `N(mean, Σ)` given a lower-triangular factor `V` with
/// `Σ = V Vᵀ` (e.g. a Cholesky factor), stored row-major packed.
#[derive(Debug, Clone)]
pub struct MultivariateNormal {
    dim: usize,
    mean: Vec<f64>,
    /// Row-major lower-triangular factor, row `i` occupies `i+1` entries.
    factor_packed: Vec<f64>,
    normal: StandardNormal,
}

impl MultivariateNormal {
    /// Build from a dense row-major `dim × dim` lower-triangular factor;
    /// entries above the diagonal are ignored.
    pub fn from_lower_factor(mean: Vec<f64>, factor: &[f64], dim: usize) -> Self {
        assert_eq!(mean.len(), dim);
        assert_eq!(factor.len(), dim * dim);
        let mut packed = Vec::with_capacity(dim * (dim + 1) / 2);
        for i in 0..dim {
            packed.extend_from_slice(&factor[i * dim..i * dim + i + 1]);
        }
        Self {
            dim,
            mean,
            factor_packed: packed,
            normal: StandardNormal::new(),
        }
    }

    /// Dimension of the distribution.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Draw one sample: `mean + V η`, `η ~ N(0, I)`.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<f64> {
        let eta = self.normal.sample_vec(rng, self.dim);
        let mut out = self.mean.clone();
        let mut row_start = 0usize;
        for i in 0..self.dim {
            let row = &self.factor_packed[row_start..row_start + i + 1];
            let mut acc = 0.0;
            for (l, e) in row.iter().zip(&eta[..=i]) {
                acc += l * e;
            }
            out[i] += acc;
            row_start += i + 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{mean, variance};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut sn = StandardNormal::new();
        let xs = sn.sample_vec(&mut rng, 200_000);
        let (m, v) = (mean(&xs), variance(&xs));
        assert!(m.abs() < 0.01, "mean {m}");
        assert!((v - 1.0).abs() < 0.02, "var {v}");
        // Skewness near zero, kurtosis near 3.
        let skew: f64 = xs.iter().map(|x| x.powi(3)).sum::<f64>() / xs.len() as f64;
        let kurt: f64 = xs.iter().map(|x| x.powi(4)).sum::<f64>() / xs.len() as f64;
        assert!(skew.abs() < 0.03, "skew {skew}");
        assert!((kurt - 3.0).abs() < 0.1, "kurt {kurt}");
    }

    #[test]
    fn normal_tail_fraction() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sn = StandardNormal::new();
        let n = 100_000;
        let beyond = (0..n).filter(|_| sn.sample(&mut rng).abs() > 1.96).count();
        let frac = beyond as f64 / n as f64;
        assert!((frac - 0.05).abs() < 0.005, "two-sided 5% tail: {frac}");
    }

    #[test]
    fn mvn_reproduces_covariance() {
        // Σ = V Vᵀ with V = [[2,0],[1,1]] → Σ = [[4,2],[2,2]].
        let factor = vec![2.0, 0.0, 1.0, 1.0];
        let mut mvn = MultivariateNormal::from_lower_factor(vec![10.0, -5.0], &factor, 2);
        let mut rng = StdRng::seed_from_u64(1234);
        let n = 100_000;
        let (mut s0, mut s1, mut s00, mut s11, mut s01) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for _ in 0..n {
            let x = mvn.sample(&mut rng);
            s0 += x[0];
            s1 += x[1];
            s00 += x[0] * x[0];
            s11 += x[1] * x[1];
            s01 += x[0] * x[1];
        }
        let nf = n as f64;
        let (m0, m1) = (s0 / nf, s1 / nf);
        assert!((m0 - 10.0).abs() < 0.05, "m0={m0}");
        assert!((m1 + 5.0).abs() < 0.05, "m1={m1}");
        let c00 = s00 / nf - m0 * m0;
        let c11 = s11 / nf - m1 * m1;
        let c01 = s01 / nf - m0 * m1;
        assert!((c00 - 4.0).abs() < 0.1, "c00={c00}");
        assert!((c11 - 2.0).abs() < 0.06, "c11={c11}");
        assert!((c01 - 2.0).abs() < 0.07, "c01={c01}");
    }

    #[test]
    fn mvn_dim_one_degenerates_to_normal() {
        let mut mvn = MultivariateNormal::from_lower_factor(vec![0.0], &[3.0], 1);
        let mut rng = StdRng::seed_from_u64(99);
        let xs: Vec<f64> = (0..50_000).map(|_| mvn.sample(&mut rng)[0]).collect();
        let (m, v) = (mean(&xs), variance(&xs));
        assert!(m.abs() < 0.05);
        assert!((v - 9.0).abs() < 0.2);
    }

    /// `n` calls of `sample`: the oracle of the two-phase draws.
    fn sampled(sn: &mut StandardNormal, rng: &mut StdRng, n: usize) -> Vec<u64> {
        (0..n).map(|_| sn.sample(rng).to_bits()).collect()
    }

    /// A sampler and RNG at `seed`, its cache primed by one `sample` or
    /// left empty.
    fn sampler_at(seed: u64, primed: bool) -> (StandardNormal, StdRng) {
        let mut sn = StandardNormal::new();
        let mut rng = StdRng::seed_from_u64(seed);
        if primed {
            sn.sample(&mut rng);
            assert!(sn.cache.is_some());
        }
        (sn, rng)
    }

    /// The RNG's next word and the cached variate, as bits.
    fn state_after(sn: &StandardNormal, rng: &mut StdRng) -> (u64, Option<u64>) {
        (rng.next_u64(), sn.cache.map(f64::to_bits))
    }

    const LENGTHS: [usize; 7] = [0, 1, 2, 3, 127, 128, 4097];

    #[test]
    fn fill_is_sample_bit_for_bit() {
        for primed in [false, true] {
            for (i, n) in LENGTHS.into_iter().enumerate() {
                let seed = 100 + i as u64;
                let (mut a, mut ra) = sampler_at(seed, primed);
                let (mut b, mut rb) = sampler_at(seed, primed);
                let mut out = vec![f64::NAN; n];
                a.fill(&mut ra, &mut out);
                let got: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, sampled(&mut b, &mut rb, n), "primed={primed}, n={n}");
                assert_eq!(
                    state_after(&a, &mut ra),
                    state_after(&b, &mut rb),
                    "primed={primed}, n={n}: state after the draw"
                );
            }
        }
    }

    #[test]
    fn scanned_ranges_are_sample_bit_for_bit() {
        let mut block = ScannedNormals::default();
        for primed in [false, true] {
            for (i, n) in LENGTHS.into_iter().enumerate() {
                let seed = 200 + i as u64;
                let (mut a, mut ra) = sampler_at(seed, primed);
                let (mut b, mut rb) = sampler_at(seed, primed);
                a.scan(&mut ra, n, &mut block);
                assert_eq!(block.len, n);
                let want = sampled(&mut b, &mut rb, n);
                assert_eq!(
                    state_after(&a, &mut ra),
                    state_after(&b, &mut rb),
                    "primed={primed}, n={n}: the scan leaves what the calls leave"
                );
                // Every range that starts and ends on either half of a
                // pair, and the whole block in one piece.
                for start in 0..n.min(5) {
                    for len in 0..(n - start).min(5) {
                        let mut out = vec![f64::NAN; len];
                        block.transform_into(start, &mut out);
                        let got: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
                        assert_eq!(got, want[start..start + len], "n={n} {start}+{len}");
                    }
                }
                let mut out = vec![f64::NAN; n];
                for piece in [1, 7, 64] {
                    for s in (0..n).step_by(piece) {
                        let e = (s + piece).min(n);
                        block.transform_into(s, &mut out[s..e]);
                    }
                    let got: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, want, "primed={primed}, n={n}, pieces of {piece}");
                }
            }
        }
    }

    #[test]
    fn consecutive_scans_carry_the_odd_variate() {
        let (mut a, mut ra) = sampler_at(300, false);
        let (mut b, mut rb) = sampler_at(300, false);
        let mut block = ScannedNormals::default();
        for n in [3, 0, 5, 2, 1, 1, 9, 4] {
            a.scan(&mut ra, n, &mut block);
            let mut out = vec![f64::NAN; n];
            block.transform_into(0, &mut out);
            let got: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, sampled(&mut b, &mut rb, n), "n={n}");
        }
        assert_eq!(state_after(&a, &mut ra), state_after(&b, &mut rb));
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = StandardNormal::new();
        let mut b = StandardNormal::new();
        let mut ra = StdRng::seed_from_u64(5);
        let mut rb = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(a.sample(&mut ra), b.sample(&mut rb));
        }
    }
}
