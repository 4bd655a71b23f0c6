//! Streaming and batch summary statistics used by the consistency checks
//! that compare emulated fields against training simulations.

/// Numerically stable streaming mean/variance (Welford) with min/max.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Feed one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Feed a slice of observations.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Merge another accumulator (parallel reduction).
    pub fn merge(&mut self, other: &Self) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let d = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += d * n2 / n;
        self.m2 += other.m2 + d * d * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Count of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (n-1 denominator); 0 when fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum seen (∞ if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum seen (−∞ if empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Batch mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Batch sample variance (n-1 denominator).
pub fn variance(xs: &[f64]) -> f64 {
    variance_streamed(|| xs.iter().copied(), xs.len())
}

/// [`variance`] of the `len` values `values()` yields, without holding
/// them: every call must yield the same values in the same order. Two
/// passes sum them, then their squared deviations, in that order — the
/// sums [`variance`] of the collected values forms, so the same bits.
pub fn variance_streamed<I>(values: impl Fn() -> I, len: usize) -> f64
where
    I: Iterator<Item = f64>,
{
    if len < 2 {
        return 0.0;
    }
    let m = values().sum::<f64>() / len as f64;
    values().map(|x| (x - m) * (x - m)).sum::<f64>() / (len - 1) as f64
}

/// Sample autocorrelation function up to `max_lag` (inclusive); `acf[0] = 1`.
pub fn acf(xs: &[f64], max_lag: usize) -> Vec<f64> {
    let n = xs.len();
    assert!(max_lag < n, "lag {max_lag} needs more than {n} samples");
    let m = mean(xs);
    let denom: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    if denom == 0.0 {
        let mut out = vec![0.0; max_lag + 1];
        out[0] = 1.0;
        return out;
    }
    (0..=max_lag)
        .map(|lag| {
            let num: f64 = (0..n - lag).map(|t| (xs[t] - m) * (xs[t + lag] - m)).sum();
            num / denom
        })
        .collect()
}

/// Pearson correlation between two equal-length slices.
pub fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

/// Quantiles of `xs`, one per entry of `qs` (each in `[0,1]`), by linear
/// interpolation between the two nearest order statistics: for quantile
/// `q` of `n` values, `pos = q·(n−1)`, and the result is the order
/// statistic at `pos` when it is whole, else `x₍lo₎·(1−w) + x₍hi₎·w` with
/// `lo, hi` = `⌊pos⌋, ⌈pos⌉` and `w = pos − lo`.
///
/// Order is the IEEE total order ([`f64::total_cmp`]): negative NaNs,
/// `−∞`, the finite values (`−0.0` before `+0.0`), `+∞`, positive NaNs.
/// Non-finite input is not rejected: an infinity is an ordinary extreme
/// value and a NaN is an end of the order, so a result is non-finite
/// exactly when an order statistic it interpolates is. Never panics on
/// any value.
///
/// Only the order statistics the quantiles interpolate are found, by a
/// radix select on the total-order bits; `xs` may be left permuted. Read
/// every quantile of one sample through one call.
pub fn quantiles(xs: &mut [f64], qs: &[f64]) -> Vec<f64> {
    let spans = QuantileSpans::new(xs.len(), qs);
    let mut found = Vec::with_capacity(spans.ranks.len());
    select_ranks(xs, &spans.ranks, 0, &mut found);
    spans.interpolate(&found)
}

/// [`quantiles`] of the values `values()` yields, without holding them:
/// every call must yield the same values in the same order. Two passes
/// read them — one histograms their top radix digit, one copies out only
/// the buckets that hold a wanted rank — and the select finishes inside
/// those buckets. The bits are [`quantiles`]' on the collected values.
pub fn quantiles_streamed<I>(values: impl Fn() -> I, qs: &[f64]) -> Vec<f64>
where
    I: Iterator<Item = f64>,
{
    let (counts, len) = histogram(values(), 0);
    let spans = QuantileSpans::new(len, qs);
    let mut found = Vec::with_capacity(spans.ranks.len());
    gather_and_select(values(), counts, &spans.ranks, 0, &mut found);
    spans.interpolate(&found)
}

/// One quantile of a sample ([`quantiles`] of a copy, `q ∈ [0,1]`).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    quantiles(&mut xs.to_vec(), &[q])[0]
}

/// Where each quantile of an `n`-value sample sits among its order
/// statistics, and the distinct ranks they interpolate, ascending.
struct QuantileSpans {
    /// Per quantile: `(lo, hi, w)`.
    spans: Vec<(usize, usize, f64)>,
    ranks: Vec<usize>,
}

impl QuantileSpans {
    fn new(n: usize, qs: &[f64]) -> Self {
        assert!(n > 0, "quantiles of an empty sample");
        let last = (n - 1) as f64;
        let spans: Vec<(usize, usize, f64)> = qs
            .iter()
            .map(|&q| {
                assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
                let pos = q * last;
                let lo = pos.floor() as usize;
                (lo, pos.ceil() as usize, pos - lo as f64)
            })
            .collect();
        let mut ranks: Vec<usize> = spans.iter().flat_map(|&(lo, hi, _)| [lo, hi]).collect();
        ranks.sort_unstable();
        ranks.dedup();
        Self { spans, ranks }
    }

    /// The quantiles, given the order statistic of each rank in `ranks`.
    fn interpolate(&self, found: &[f64]) -> Vec<f64> {
        let at = |r: usize| found[self.ranks.binary_search(&r).expect("rank was selected")];
        self.spans
            .iter()
            .map(|&(lo, hi, w)| {
                if lo == hi {
                    at(lo)
                } else {
                    at(lo) * (1.0 - w) + at(hi) * w
                }
            })
            .collect()
    }
}

/// Bits of the radix digit one selection pass buckets by.
const BUCKET_BITS: u32 = 16;

/// Up to this many values are selected from directly, one wanted rank
/// after another ([`slice::select_nth_unstable_by`]): cheaper than
/// clearing and scanning another `2^BUCKET_BITS`-bucket histogram.
const SELECT_DIRECT_MAX: usize = 1 << 14;

/// [`f64::total_cmp`]'s key with its sign bit flipped: ascending as an
/// unsigned integer exactly when the values ascend in the total order, and
/// equal exactly when the bits are.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) >> 1) ^ (1 << 63)
}

/// The radix digit of `x` below the top `level` ones (`level < 4`).
#[inline]
fn digit(x: f64, level: u32) -> usize {
    ((total_order_key(x) << (level * BUCKET_BITS)) >> (64 - BUCKET_BITS)) as usize
}

/// Per digit at `level`, how many of `values` have it; and how many
/// values there are.
fn histogram(values: impl Iterator<Item = f64>, level: u32) -> (Vec<u32>, usize) {
    let mut counts = vec![0u32; 1 << BUCKET_BITS];
    let mut len = 0usize;
    values.for_each(|x| {
        counts[digit(x, level)] += 1;
        len += 1;
    });
    u32::try_from(len).expect("sample too long for 32-bit bucket counts");
    (counts, len)
}

/// Append to `out` the values of rank `ranks[i]` (ascending, distinct,
/// each `< xs.len()`) in `xs` under [`f64::total_cmp`]. That order tells
/// values apart by their bits, so each is the very element a total-order
/// sort puts at that index. `xs` may be left permuted.
///
/// A most-significant-digit radix select over [`total_order_key`], whose
/// top `level` digits every value in `xs` shares: one pass counts the
/// values per digit, and [`gather_and_select`] goes on from the counts.
/// A sample short enough, or past the last digit, is selected from
/// directly: each rank in the values above the previous one.
fn select_ranks(xs: &mut [f64], ranks: &[usize], level: u32, out: &mut Vec<f64>) {
    if ranks.is_empty() {
        return;
    }
    // Below the last digit every value in `xs` has the same bits.
    if xs.len() <= SELECT_DIRECT_MAX || level * BUCKET_BITS == 64 {
        let mut from = 0;
        for &r in ranks {
            let (_, v, _) = xs[from..].select_nth_unstable_by(r - from, f64::total_cmp);
            out.push(*v);
            from = r + 1;
        }
        return;
    }
    let (counts, _) = histogram(xs.iter().copied(), level);
    gather_and_select(xs.iter().copied(), counts, ranks, level, out);
}

/// The rest of one [`select_ranks`] level, given `counts`, the histogram
/// of `values` at `level`. The running counts name the buckets that hold
/// a wanted rank (at most `ranks.len()` of them); one pass copies their
/// members out, each bucket into its own range, in the order met; and each
/// wanted bucket is selected from alone, by the next digit.
fn gather_and_select(
    values: impl Iterator<Item = f64>,
    mut counts: Vec<u32>,
    ranks: &[usize],
    level: u32,
    out: &mut Vec<f64>,
) {
    // Per wanted bucket: (digit, rank of its first member, size).
    let mut wanted: Vec<(usize, usize, usize)> = Vec::with_capacity(ranks.len());
    let mut next = ranks.iter().peekable();
    let mut first = 0usize;
    for (d, &c) in counts.iter().enumerate() {
        let end = first + c as usize;
        while next.next_if(|&&r| r < end).is_some() {
            if wanted.last().is_none_or(|w| w.0 != d) {
                wanted.push((d, first, c as usize));
            }
        }
        if next.peek().is_none() {
            break;
        }
        first = end;
    }
    // `counts` becomes each digit's group: 1 + its index in `wanted`, or 0.
    counts.fill(0);
    for (j, &(d, _, _)) in wanted.iter().enumerate() {
        counts[d] = j as u32 + 1;
    }
    // `heads[j]` is where wanted bucket `j`'s next member goes.
    let mut heads: Vec<usize> = wanted
        .iter()
        .scan(0, |start, w| {
            let head = *start;
            *start += w.2;
            Some(head)
        })
        .collect();
    let mut buf = vec![0.0f64; wanted.iter().map(|w| w.2).sum()];
    values.for_each(|x| {
        // Most values are in no wanted bucket: a predicted branch is
        // cheaper than a store for each of them.
        let g = counts[digit(x, level)] as usize;
        if g != 0 {
            buf[heads[g - 1]] = x;
            heads[g - 1] += 1;
        }
    });
    drop(counts);
    let mut rest = ranks;
    for (&(_, first, size), &end) in wanted.iter().zip(&heads) {
        let inside = rest.iter().take_while(|&&r| r < first + size).count();
        let local: Vec<usize> = rest[..inside].iter().map(|r| r - first).collect();
        select_ranks(&mut buf[end - size..end], &local, level + 1, out);
        rest = &rest[inside..];
    }
}

/// Root-mean-square error between two slices.
pub fn rmse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    if a.is_empty() {
        return 0.0;
    }
    let s: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (s / a.len() as f64).sqrt()
}

/// Maximum absolute difference between two slices.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_batch() {
        let xs = [1.0, 2.0, 4.0, 8.0, 16.0, -3.0, 0.5];
        let mut o = OnlineStats::new();
        o.extend(&xs);
        assert!((o.mean() - mean(&xs)).abs() < 1e-12);
        assert!((o.variance() - variance(&xs)).abs() < 1e-12);
        assert_eq!(o.count(), xs.len() as u64);
        assert_eq!(o.min(), -3.0);
        assert_eq!(o.max(), 16.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64 * 0.7).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        whole.extend(&xs);
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        a.extend(&xs[..37]);
        b.extend(&xs[37..]);
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
        assert_eq!(a.count(), whole.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.extend(&[1.0, 2.0, 3.0]);
        let before = (a.mean(), a.variance(), a.count());
        a.merge(&OnlineStats::new());
        assert_eq!(before, (a.mean(), a.variance(), a.count()));
        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e.count(), 3);
        assert!((e.mean() - 2.0).abs() < 1e-12);
    }

    /// Deterministic uniform noise in [0,1) from a 64-bit LCG (MMIX constants).
    fn lcg_noise(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    #[test]
    fn acf_of_white_noise_decays() {
        let xs: Vec<f64> = lcg_noise(4000, 9).iter().map(|u| u - 0.5).collect();
        let r = acf(&xs, 5);
        assert!((r[0] - 1.0).abs() < 1e-12);
        for &rk in &r[1..] {
            assert!(rk.abs() < 0.06, "white-noise acf too large: {rk}");
        }
    }

    #[test]
    fn acf_of_ar1_matches_phi() {
        let phi = 0.8;
        let mut x = 0.0;
        let xs: Vec<f64> = lcg_noise(20000, 77)
            .iter()
            .map(|u| {
                x = phi * x + (u - 0.5);
                x
            })
            .collect();
        let r = acf(&xs, 3);
        assert!((r[1] - phi).abs() < 0.05, "lag-1 {}", r[1]);
        assert!((r[2] - phi * phi).abs() < 0.07, "lag-2 {}", r[2]);
    }

    #[test]
    fn correlation_limits() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        assert!((correlation(&xs, &ys) - 1.0).abs() < 1e-12);
        let zs: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((correlation(&xs, &zs) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [3.0, 1.0, 2.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    /// The definition [`quantiles`] must reproduce bit for bit: a full
    /// total-order sort, then one interpolation per quantile.
    fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
        assert!(!sorted.is_empty());
        assert!((0.0..=1.0).contains(&q));
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let w = pos - lo as f64;
            sorted[lo] * (1.0 - w) + sorted[hi] * w
        }
    }

    fn sort_for_quantiles(xs: &mut [f64]) {
        xs.sort_unstable_by(f64::total_cmp);
    }

    const QS: [f64; 9] = [0.0, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0];

    /// `quantiles(xs, QS)`, and `quantiles_streamed` over `xs` in rows of
    /// 7, against the sort oracle, bit for bit; and the permuted `xs`
    /// still holds the same multiset of bit patterns.
    fn assert_selection_matches_sort(xs: &[f64], what: &str) {
        let mut sorted = xs.to_vec();
        sort_for_quantiles(&mut sorted);
        let mut work = xs.to_vec();
        let got = quantiles(&mut work, &QS);
        let streamed = quantiles_streamed(|| xs.chunks(7).flat_map(|r| r.iter().copied()), &QS);
        for ((q, g), s) in QS.iter().zip(&got).zip(&streamed) {
            let want = quantile_sorted(&sorted, *q);
            // Rust leaves unspecified which payload an operation on two
            // NaNs returns (the compiler may commute the operands), so
            // where arithmetic meets NaNs only NaN-ness is the contract.
            let pos = q * (xs.len() - 1) as f64;
            for (g, form) in [(g, "in place"), (s, "streamed")] {
                if pos.fract() != 0.0 && g.is_nan() && want.is_nan() {
                    continue;
                }
                assert_eq!(
                    g.to_bits(),
                    want.to_bits(),
                    "{what} (n = {}, {form}), q = {q}: {g} vs {want}",
                    xs.len()
                );
            }
        }
        sort_for_quantiles(&mut work);
        assert!(
            work.iter()
                .zip(&sorted)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{what}: selection lost or changed a value"
        );
    }

    /// Values drawn from a pool that holds ±0, NaNs of both signs (and a
    /// payload), ±∞, subnormals and ordinary finite values.
    fn hostile(n: usize, seed: u64) -> Vec<f64> {
        let specials = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0123),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            f64::MAX,
            f64::MIN,
        ];
        lcg_noise(2 * n, seed)
            .chunks_exact(2)
            .map(|u| {
                if u[0] < 0.2 {
                    specials[(u[1] * specials.len() as f64) as usize]
                } else {
                    (u[1] - 0.5) * 1e3
                }
            })
            .collect()
    }

    #[test]
    fn selection_matches_sort_on_non_finite_and_signed_zero_input() {
        for (n, seed) in [(57, 1), (16_384, 2), (16_385, 3), (20_000, 4), (70_001, 5)] {
            assert_selection_matches_sort(&hostile(n, seed), "hostile");
        }
    }

    #[test]
    fn selection_matches_sort_on_heavy_duplicates() {
        for n in [100, 5000, 50_000] {
            // Three distinct values, and one value alone: every wanted rank
            // falls in one or two crowded buckets.
            let few: Vec<f64> = lcg_noise(n, 11)
                .iter()
                .map(|u| [-1.5, 0.0, 2.25][(u * 3.0) as usize])
                .collect();
            assert_selection_matches_sort(&few, "three values");
            assert_selection_matches_sort(&vec![7.0; n], "constant");
            assert_selection_matches_sort(&vec![-0.0; n], "all −0");
        }
    }

    #[test]
    fn selection_matches_sort_on_the_shortest_samples() {
        for xs in [
            vec![3.0],
            vec![f64::NAN],
            vec![-0.0, 0.0],
            vec![0.0, -0.0],
            vec![2.0, 1.0],
            vec![f64::INFINITY, f64::NEG_INFINITY],
            vec![1.0, f64::NAN, -1.0],
            vec![-0.0, 5.0, 0.0],
        ] {
            assert_selection_matches_sort(&xs, "short");
        }
    }

    #[test]
    fn streamed_selection_matches_sort() {
        // ±0, subnormals of both signs, ±∞ and NaNs of both signs (and a
        // payload), alone and in every pair: n = 1 and 2.
        let specials = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0xfff0_0000_0000_0042),
            1.5,
        ];
        for &a in &specials {
            assert_selection_matches_sort(&[a], "one value");
            for &b in &specials {
                assert_selection_matches_sort(&[a, b], "two values");
            }
        }
        // Past the length selected from directly: ties that span the two
        // ranks one quantile interpolates — one value on both sides, −0
        // below and +0 above, a NaN of each sign — in a shuffled order.
        let n = 20_002;
        let order = lcg_noise(n, 51);
        for (below, above) in [
            (2.0, 2.0),
            (-0.0, 0.0),
            (f64::MIN_POSITIVE / 2.0, f64::MIN_POSITIVE / 2.0),
            (-f64::NAN, f64::NAN),
        ] {
            // Ranks ≤ 5 000 hold `below`, the rest `above`: q = 0.25
            // (pos 5 000.25) interpolates rank 5 000 with rank 5 001, across
            // the boundary, and every other quantile two ties on one side.
            let mut ranked: Vec<(f64, f64)> = (0..n)
                .map(|i| (order[i], if i <= 5_000 { below } else { above }))
                .collect();
            ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
            let xs: Vec<f64> = ranked.iter().map(|&(_, v)| v).collect();
            assert_selection_matches_sort(&xs, "ties at a rank boundary");
        }
        // One bucket holds everything, at every digit.
        for v in [7.0, -0.0, f64::NAN, -f64::NAN, f64::NEG_INFINITY] {
            assert_selection_matches_sort(&vec![v; 20_000], "all equal");
        }
        // A mixed sample past the length selected from directly.
        assert_selection_matches_sort(&hostile(19_999, 52), "hostile");
    }

    #[test]
    fn streamed_variance_matches_the_slice_formula() {
        for xs in [
            hostile(1_000, 61),
            lcg_noise(1_000, 62),
            vec![-0.0; 9],
            vec![3.0],
        ] {
            let want = if xs.len() < 2 {
                0.0
            } else {
                let m = mean(&xs);
                xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
            };
            let rows = || xs.chunks(7).flat_map(|r| r.iter().copied());
            for got in [variance(&xs), variance_streamed(rows, xs.len())] {
                assert!(got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()));
            }
        }
    }

    #[test]
    fn selection_matches_sort_on_bucket_edges() {
        // Neighbours in the total order that straddle radix buckets: the
        // last and first patterns of adjacent buckets at the first digit
        // (±0 and ±∞ among them) and, inside one first-digit bucket, at
        // the second and third.
        let mut edges = Vec::new();
        for b in [
            0x3ff0_u64, 0x3ff1, 0x4000, 0x7ff0, 0x0000, 0x8000, 0xbff0, 0xfff0,
        ] {
            let base = b << (64 - BUCKET_BITS);
            for bits in [base, base + 1, base.wrapping_sub(1), base + (1 << 47)] {
                edges.push(f64::from_bits(bits));
            }
        }
        for shift in [32, 16] {
            for d in [0x1234_u64, 0x1235, 0x8000] {
                let base = (0x4071_u64 << 48) | (d << shift);
                for bits in [base, base + 1, base - 1] {
                    edges.push(f64::from_bits(bits));
                    edges.push(-f64::from_bits(bits));
                }
            }
        }
        let mut xs = Vec::new();
        for (i, u) in lcg_noise(30_000, 21).iter().enumerate() {
            xs.push(edges[(u * edges.len() as f64) as usize]);
            if i % 5 == 0 {
                xs.push(u - 0.5);
            }
        }
        assert_selection_matches_sort(&xs, "bucket edges");
        assert_selection_matches_sort(&edges, "bucket edges alone");
    }

    #[test]
    fn selection_matches_sort_on_concentrated_samples() {
        // Kelvin temperatures share their first digit; a narrower spread
        // shares the second too, and a spread of a few ulps the third:
        // the wanted buckets are selected from again, digit by digit.
        for (spread, seed) in [(40.0, 41), (1e-9, 42), (1e-12, 43)] {
            let xs: Vec<f64> = lcg_noise(50_000, seed)
                .iter()
                .map(|u| 280.0 + spread * (u - 0.5))
                .collect();
            assert_selection_matches_sort(&xs, "concentrated");
        }
    }

    #[test]
    fn selection_matches_sort_on_a_pooled_anomaly_sized_sample() {
        // The size of one pooled anomaly vector of the design benchmark:
        // 594 locations × 730 days of standard-normal values.
        let mut xs = lcg_noise(433_620, 31);
        let mut rest = lcg_noise(433_620, 32).into_iter();
        for u in xs.iter_mut() {
            let v = rest.next().expect("same length");
            let r = (-2.0 * (1.0 - *u).ln()).sqrt();
            *u = r * (2.0 * std::f64::consts::PI * v).cos();
        }
        assert_selection_matches_sort(&xs, "normal");
    }

    #[test]
    fn quantiles_come_back_in_the_order_asked() {
        let xs: Vec<f64> = lcg_noise(10_001, 5).iter().map(|u| u - 0.3).collect();
        let qs = [0.9, 0.1, 0.5, 0.1, 1.0, 0.0];
        let got = quantiles(&mut xs.clone(), &qs);
        for (q, g) in qs.iter().zip(&got) {
            assert_eq!(g.to_bits(), quantile(&xs, *q).to_bits());
        }
        assert!(quantiles(&mut xs.clone(), &[]).is_empty());
    }

    #[test]
    fn quantile_of_non_finite_input_does_not_panic() {
        // NaN sorts above +∞: only quantiles that touch the top see it.
        let xs = [2.0, f64::NAN, 1.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert!(quantile(&xs, 1.0).is_nan());
        assert!(quantile(&xs, 0.9).is_nan());
        // Infinities are ordinary extremes.
        let ys = [f64::NEG_INFINITY, 0.0, 1.0, f64::INFINITY];
        assert_eq!(quantile(&ys, 0.0), f64::NEG_INFINITY);
        assert_eq!(quantile(&ys, 0.5), 0.5);
        assert_eq!(quantile(&ys, 0.9), f64::INFINITY);
        assert!(quantile(&[f64::NEG_INFINITY, f64::INFINITY], 0.5).is_nan());
    }

    #[test]
    fn sorted_quantiles_equal_one_shot_quantiles() {
        // Below and above the length selected from directly.
        for n in [1001, 20_001] {
            let xs: Vec<f64> = lcg_noise(n, 5).iter().map(|u| u - 0.3).collect();
            let mut s = xs.clone();
            sort_for_quantiles(&mut s);
            for q in [0.0, 0.01, 0.05, 0.25, 0.37, 0.5, 0.75, 0.95, 0.99, 1.0] {
                assert_eq!(quantile_sorted(&s, q).to_bits(), quantile(&xs, q).to_bits());
            }
        }
    }

    #[test]
    fn rmse_and_maxdiff() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 2.0, 7.0];
        assert!((rmse(&a, &b) - (16.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(max_abs_diff(&a, &b), 4.0);
    }
}
