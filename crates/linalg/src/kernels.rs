//! The four tile kernels of the Cholesky DAG: POTRF, TRSM, SYRK, GEMM.
//!
//! Each kernel computes in the precision of the tile it **updates** (the
//! paper's convention: incoming tiles are reshaped/converted to the
//! successor's precision). Half-precision updates follow tensor-core MMA
//! semantics: operands quantized to binary16, products and sums accumulated
//! in f32, one rounding on store.
//!
//! The kernels are register-blocked — an `MR × NR` block of accumulators,
//! operands read from [`PackedTile`]s — but every output element still runs
//! its own chain of the same operations in ascending `k`, so a result does
//! not depend on the block shape: the one-accumulator loops these replaced
//! are kept as the `#[cfg(test)]` reference and must agree bit for bit.
//! ARCHITECTURE.md ("Tile kernels") states the contract.
//!
//! The bodies are compiled twice: for the baseline target and, where
//! `Isa::avx2` holds, for 256-bit lanes without FMA (`crate::isa`). Both
//! run the same chains, so both give the same bits.

use crate::f16::{narrow_f64_into, narrow_into, widen_f64_into, widen_into};
use crate::isa::{self, Isa};
use crate::precision::Precision;
use crate::tile::{Tile, TileData};

/// Error raised when a diagonal tile is not positive definite.
#[derive(Debug, Clone, PartialEq)]
pub struct NotPositiveDefinite {
    /// Index (within the tile) of the failing pivot.
    pub pivot: usize,
    /// The non-positive pivot value encountered.
    pub value: f64,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix not positive definite at pivot {} ({})",
            self.pivot, self.value
        )
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// Internal scalar abstraction so the f64 and f32 kernel bodies are written
/// once. Half tiles run the f32 body on quantized operands. The methods are
/// the exact expressions of the summation-order contract: nothing here may
/// fuse, reassociate or drop the `0 +` that normalizes a `−0` product.
pub(crate) trait Real: Copy + PartialOrd {
    const ZERO: Self;
    fn to_f64(self) -> f64;
    fn sqrt(self) -> Self;
    fn mul_add_acc(self, a: Self, b: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn div(self, o: Self) -> Self;
}

impl Real for f64 {
    const ZERO: f64 = 0.0;
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn sqrt(self) -> f64 {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn mul_add_acc(self, a: f64, b: f64) -> f64 {
        self + a * b
    }
    #[inline(always)]
    fn sub(self, o: f64) -> f64 {
        self - o
    }
    #[inline(always)]
    fn div(self, o: f64) -> f64 {
        self / o
    }
}

impl Real for f32 {
    const ZERO: f32 = 0.0;
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn sqrt(self) -> f32 {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn mul_add_acc(self, a: f32, b: f32) -> f32 {
        self + a * b
    }
    #[inline(always)]
    fn sub(self, o: f32) -> f32 {
        self - o
    }
    #[inline(always)]
    fn div(self, o: f32) -> f32 {
        self / o
    }
}

/// Rows of the register block every micro-kernel accumulates at once.
const MR: usize = 4;
/// Columns of the f64 register block: `MR × NR64` accumulators are eight
/// 128-bit registers, half of what the SSE2 baseline has (four of the
/// sixteen 256-bit registers under AVX2).
const NR64: usize = 4;
/// Columns of the f32 register block (the same registers).
const NR32: usize = 8;

/// A finished tile converted **once** to the compute precision of the tiles
/// that consume it and repacked `k`-major — the paper's "reshape on the
/// sender's edge". A consumer tile of precision
///
/// * `Double` reads the source widened to f64 (exact),
/// * `Single` reads it as f32 (rounds a DP source, widens an HP one),
/// * `Half` reads it quantized to binary16 and widened to f32 — tensor-core
///   operands, quantized here instead of in every GEMM that reads them.
///
/// Layout: the source's rows are cut into panels of `NR` (the register
/// block width of the compute type); panel `p` holds
/// `data[(p·b + k)·NR + c] = src[p·NR + c][k]`, zero past row `b`. A
/// micro-kernel therefore streams one contiguous `NR`-vector per `k` for
/// either operand and never sees a partial block.
#[derive(Debug, Clone)]
pub struct PackedTile {
    b: usize,
    consumer: Precision,
    data: PackData,
}

#[derive(Debug, Clone)]
enum PackData {
    F64(Vec<f64>),
    F32(Vec<f32>),
}

/// Pack the rows of length `b` in `src` (`b` of them for a tile) into
/// `k`-major panels of `nr` rows, zero past the last row; `conv` converts
/// each source row into one reused row buffer.
fn pack<S, T: Real>(
    src: &[S],
    b: usize,
    nr: usize,
    mut conv: impl FnMut(&[S], &mut [T]),
) -> Vec<T> {
    let mut out = vec![T::ZERO; (src.len() / b).div_ceil(nr) * b * nr];
    let mut row = vec![T::ZERO; b];
    for (r, s) in src.chunks_exact(b).enumerate() {
        conv(s, &mut row);
        let panel = &mut out[(r / nr) * b * nr..][..b * nr];
        for (lane, &v) in panel[r % nr..].iter_mut().step_by(nr).zip(&row) {
            *lane = v;
        }
    }
    out
}

/// A row converter for [`pack`] that applies `f` to each element.
fn each<S: Copy, T>(f: impl Fn(S) -> T) -> impl FnMut(&[S], &mut [T]) {
    move |src, dst| {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = f(s);
        }
    }
}

impl PackedTile {
    /// Convert and pack `src` for consumer tiles of precision `consumer`.
    pub fn new(src: &Tile, consumer: Precision) -> Self {
        let b = src.b();
        let data = match consumer {
            Precision::Double => PackData::F64(match src.data() {
                TileData::F64(v) => pack(v, b, NR64, each(|x| x)),
                TileData::F32(v) => pack(v, b, NR64, each(f64::from)),
                TileData::F16(v) => pack(v, b, NR64, widen_f64_into),
            }),
            Precision::Single => PackData::F32(match src.data() {
                TileData::F64(v) => pack(v, b, NR32, each(|x| x as f32)),
                TileData::F32(v) => pack(v, b, NR32, each(|x| x)),
                TileData::F16(v) => pack(v, b, NR32, widen_into),
            }),
            // Round to binary16 and widen back: `Half::from_f64(x).to_f32()`
            // and `Half::from_f32(x).to_f32()`, a row at a time.
            Precision::Half => {
                let mut h = vec![0u16; b];
                PackData::F32(match src.data() {
                    TileData::F64(v) => pack(v, b, NR32, |s, d| {
                        narrow_f64_into(s, &mut h);
                        widen_into(&h, d);
                    }),
                    TileData::F32(v) => pack(v, b, NR32, |s, d| {
                        narrow_into(s, &mut h);
                        widen_into(&h, d);
                    }),
                    TileData::F16(v) => pack(v, b, NR32, widen_into),
                })
            }
        };
        Self { b, consumer, data }
    }

    fn check(&self, c: &Tile) {
        assert_eq!(self.b, c.b(), "tile sizes must match");
        assert_eq!(
            self.consumer,
            c.precision(),
            "operand was packed for tiles of another precision"
        );
    }

    fn f64s(&self) -> &[f64] {
        match &self.data {
            PackData::F64(v) => v,
            PackData::F32(_) => unreachable!("a Double consumer's pack holds f64"),
        }
    }

    fn f32s(&self) -> &[f32] {
        match &self.data {
            PackData::F32(v) => v,
            PackData::F64(_) => unreachable!("a Single or Half consumer's pack holds f32"),
        }
    }
}

/// Run a kernel body on `c`'s payload: in place for F64 and F32 storage; an
/// F16 tile is widened to an f32 scratch (exact) and rounded once on store.
fn update<R>(
    c: &mut Tile,
    dp: impl FnOnce(&mut [f64]) -> R,
    sp: impl FnOnce(&mut [f32]) -> R,
) -> R {
    match c.data_mut() {
        TileData::F64(v) => dp(v),
        TileData::F32(v) => sp(v),
        TileData::F16(h) => {
            let mut w = vec![0.0f32; h.len()];
            widen_into(h, &mut w);
            let r = sp(&mut w);
            narrow_into(&w, h);
            r
        }
    }
}

/// `acc[i][j] = Σ_k a[off+i][k] · b[j][k]` over one panel of each operand:
/// `MR × NR` independent accumulators, each summing its own element in
/// ascending `k` as `acc + a·b`. Fixed-size operands and a row-by-row update
/// are what make each row one full-width vector op (ARCHITECTURE.md, "Tile
/// kernels"); [`subtract_steps`] keeps the same shape.
#[inline(always)]
fn dot_block<T: Real, const NR: usize>(ap: &[T], off: usize, bp: &[T]) -> [[T; NR]; MR] {
    assert!(off + MR <= NR);
    let mut acc = [[T::ZERO; NR]; MR];
    for (ak, bk) in ap.as_chunks::<NR>().0.iter().zip(bp.as_chunks::<NR>().0) {
        let ak: &[T; MR] = ak[off..off + MR].try_into().unwrap();
        for (row, &a) in acc.iter_mut().zip(ak) {
            for (v, &b) in row.iter_mut().zip(bk) {
                *v = v.mul_add_acc(a, b);
            }
        }
    }
    acc
}

/// `C := C − A · Bᵀ`, one register block at a time; with `lower`, only the
/// elements `j ≤ i` (blocks that straddle the diagonal are computed whole
/// and stored clipped).
#[inline(always)]
pub(crate) fn gemm_body<T: Real, const NR: usize>(
    a: &[T],
    bt: &[T],
    c: &mut [T],
    b: usize,
    lower: bool,
) {
    for (jp, bp) in bt.chunks_exact(b * NR).enumerate() {
        let j0 = jp * NR;
        // `MR` divides `NR`, so `j0` starts a row block.
        let first = if lower { j0 } else { 0 };
        for i0 in (first..b).step_by(MR) {
            let ap = &a[(i0 / NR) * b * NR..][..b * NR];
            let acc = dot_block::<T, NR>(ap, i0 % NR, bp);
            for (i, acc_row) in acc.iter().enumerate().take(b - i0) {
                let end = if lower { i0 + i + 1 } else { b };
                let crow = &mut c[(i0 + i) * b + j0..][..NR.min(end - j0)];
                for (cv, &s) in crow.iter_mut().zip(acc_row) {
                    *cv = cv.sub(s);
                }
            }
        }
    }
}

/// GEMM: `C := C − A · Bᵀ`, computed in `c`'s precision.
pub fn gemm(a: &PackedTile, bt: &PackedTile, c: &mut Tile) {
    gemm_with(Isa::detected(), a, bt, c)
}

fn gemm_with(isa: Isa, a: &PackedTile, bt: &PackedTile, c: &mut Tile) {
    a.check(c);
    bt.check(c);
    let b = c.b();
    update(
        c,
        |cw| isa::gemm::<f64, NR64>(isa, a.f64s(), bt.f64s(), cw, b, false),
        |cw| isa::gemm::<f32, NR32>(isa, a.f32s(), bt.f32s(), cw, b, false),
    );
}

#[inline(always)]
pub(crate) fn syrk_body<T: Real, const NR: usize>(a: &[T], c: &mut [T], b: usize) {
    // C := C − A Aᵀ on the lower triangle, then mirrored (C stays
    // symmetric) in 8 × 8 blocks, so that the strided writes stay within a
    // few cache lines: mirrored a column at a time, they took a fifth of an
    // f64 SYRK at b = 128.
    gemm_body::<T, NR>(a, a, c, b, true);
    for i0 in (0..b).step_by(8) {
        for j0 in (0..=i0).step_by(8) {
            for i in i0..(i0 + 8).min(b) {
                for j in j0..(j0 + 8).min(i) {
                    c[j * b + i] = c[i * b + j];
                }
            }
        }
    }
}

/// SYRK: `C := C − A · Aᵀ` on a diagonal tile, in `c`'s precision.
pub fn syrk(a: &PackedTile, c: &mut Tile) {
    syrk_with(Isa::detected(), a, c)
}

fn syrk_with(isa: Isa, a: &PackedTile, c: &mut Tile) {
    a.check(c);
    let b = c.b();
    update(
        c,
        |cw| isa::syrk::<f64, NR64>(isa, a.f64s(), cw, b),
        |cw| isa::syrk::<f32, NR32>(isa, a.f32s(), cw, b),
    );
}

/// `s[i][j] := s[i][j] − (0 + x_k[i] · l_k[j])` for every `k`-step in
/// ascending `k`: `xs` holds a row block's finished columns `k`-major (`MR`
/// lanes a step), `lp` the rows of `L` they meet (`NR` lanes a step).
#[inline(always)]
fn subtract_steps<T: Real, const NR: usize>(
    mut s: [[T; NR]; MR],
    xs: &[T],
    lp: &[T],
) -> [[T; NR]; MR] {
    for (xk, lk) in xs.as_chunks::<MR>().0.iter().zip(lp.as_chunks::<NR>().0) {
        for (row, &xv) in s.iter_mut().zip(xk) {
            for (v, &l) in row.iter_mut().zip(lk) {
                *v = v.sub(T::ZERO.mul_add_acc(xv, l));
            }
        }
    }
    s
}

/// The shared step of TRSM and POTRF on rows `r0..r0+mr`, columns
/// `j0..j0+nr` of `x` (row-major, side `b`). `xs` holds the row block's
/// finished columns `k < j0` `k`-major, `MR` lanes a step, and `lp` is the
/// `k`-major panel of rows `j0..` of `L`: every element runs its own chain
/// `s := s − (0 + x[r][k]·l[j][k])` in ascending `k` over the finished
/// columns; with `solve` the chain continues through the block's own columns
/// and ends in `/ l[j][j]`, and the solved columns are appended to `xs`.
#[inline(always)]
fn chain_block<T: Real, const NR: usize>(
    x: &mut [T],
    b: usize,
    (r0, mr): (usize, usize),
    (j0, nr): (usize, usize),
    xs: &mut [T],
    lp: &[T],
    solve: bool,
) {
    // The same code twice: a whole block's sizes are the constants `MR` and
    // `NR`, so its accumulators stay in registers through the in-block
    // solve; only an edge block indexes them at run time.
    if (mr, nr) == (MR, NR) {
        chain_block_sized::<T, NR>(x, b, (r0, MR), (j0, NR), xs, lp, solve)
    } else {
        chain_block_sized::<T, NR>(x, b, (r0, mr), (j0, nr), xs, lp, solve)
    }
}

#[inline(always)]
fn chain_block_sized<T: Real, const NR: usize>(
    x: &mut [T],
    b: usize,
    (r0, mr): (usize, usize),
    (j0, nr): (usize, usize),
    xs: &mut [T],
    lp: &[T],
    solve: bool,
) {
    // Rows past `mr` start at zero; their lanes are never stored.
    let mut s = [[T::ZERO; NR]; MR];
    for (i, row) in s.iter_mut().enumerate().take(mr) {
        row[..nr].copy_from_slice(&x[(r0 + i) * b + j0..][..nr]);
    }
    s = subtract_steps(s, &xs[..j0 * MR], lp);
    if solve {
        for j in 0..nr {
            for k in 0..j {
                let l = lp[(j0 + k) * NR + j];
                for row in s.iter_mut() {
                    row[j] = row[j].sub(T::ZERO.mul_add_acc(row[k], l));
                }
            }
            let d = lp[(j0 + j) * NR + j];
            for row in s.iter_mut() {
                row[j] = row[j].div(d);
            }
        }
        for (j, xk) in xs[j0 * MR..].chunks_exact_mut(MR).take(nr).enumerate() {
            for (v, row) in xk.iter_mut().zip(&s) {
                *v = row[j];
            }
        }
    }
    for (i, row) in s.iter().enumerate().take(mr) {
        x[(r0 + i) * b + j0..][..nr].copy_from_slice(&row[..nr]);
    }
}

#[inline(always)]
pub(crate) fn trsm_body<T: Real, const NR: usize>(l: &[T], x: &mut [T], b: usize) {
    // Solve X Lᵀ = B: row blocks independent, column blocks in order; `xs`
    // keeps the current row block's solved columns `k`-major.
    let mut xs = vec![T::ZERO; b * MR];
    for r0 in (0..b).step_by(MR) {
        let rows = (r0, MR.min(b - r0));
        for (jp, lp) in l.chunks_exact(b * NR).enumerate() {
            let cols = (jp * NR, NR.min(b - jp * NR));
            chain_block::<T, NR>(x, b, rows, cols, &mut xs, lp, true);
        }
    }
}

/// TRSM: `B := B · L^{-T}` with `L` the lower factor of the panel's
/// diagonal tile, packed for `bt`'s precision. Updates `bt` in place.
pub fn trsm(l: &PackedTile, bt: &mut Tile) {
    trsm_with(Isa::detected(), l, bt)
}

fn trsm_with(isa: Isa, l: &PackedTile, bt: &mut Tile) {
    l.check(bt);
    let b = bt.b();
    update(
        bt,
        |x| isa::trsm::<f64, NR64>(isa, l.f64s(), x, b),
        |x| isa::trsm::<f32, NR32>(isa, l.f32s(), x, b),
    );
}

/// In-place lower Cholesky of a `b × b` buffer, blocked by `NR` columns;
/// the strict upper triangle is zeroed so the result is exactly `L`.
/// Left-looking, so every element sees its products in ascending `k`
/// exactly as an unblocked column sweep would.
#[inline(always)]
pub(crate) fn potrf_body<T: Real, const NR: usize>(
    w: &mut [T],
    b: usize,
) -> Result<(), NotPositiveDefinite> {
    // `k`-major copy of the current block's rows (one panel of a pack).
    let mut lp = vec![T::ZERO; b * NR];
    // Each row block's finished columns, `k`-major: block `p` holds
    // `xt[(p·b + k)·MR + i] = w[p·MR + i][k]`.
    let mut xt = vec![T::ZERO; b.div_ceil(MR) * b * MR];
    for j0 in (0..b).step_by(NR) {
        let nr = NR.min(b - j0);
        if nr < NR {
            lp.fill(T::ZERO);
        }
        for j in 0..nr {
            let row = &w[(j0 + j) * b..][..j0];
            for (lane, &v) in lp[j..].iter_mut().step_by(NR).zip(row) {
                *lane = v;
            }
        }
        // Diagonal block: apply the finished columns, then factor it.
        for r0 in (j0..j0 + nr).step_by(MR) {
            let rows = (r0, MR.min(j0 + nr - r0));
            let xs = &mut xt[(r0 / MR) * b * MR..][..b * MR];
            chain_block::<T, NR>(w, b, rows, (j0, nr), xs, &lp, false);
        }
        for r in j0..j0 + nr {
            for j in j0..=r {
                let mut s = w[r * b + j];
                for k in j0..j {
                    s = s.sub(T::ZERO.mul_add_acc(w[r * b + k], w[j * b + k]));
                }
                if j < r {
                    w[r * b + j] = s.div(w[j * b + j]);
                } else {
                    let d = s.to_f64();
                    if d <= 0.0 || !d.is_finite() {
                        return Err(NotPositiveDefinite { pivot: r, value: d });
                    }
                    w[r * b + r] = s.sqrt();
                }
            }
            w[r * b + r + 1..(r + 1) * b].fill(T::ZERO);
        }
        // Rows below finish their chains against the factored block.
        for j in 0..nr {
            for k in 0..=j {
                lp[(j0 + k) * NR + j] = w[(j0 + j) * b + j0 + k];
            }
        }
        for r0 in (j0 + nr..b).step_by(MR) {
            let xs = &mut xt[(r0 / MR) * b * MR..][..b * MR];
            chain_block::<T, NR>(w, b, (r0, MR.min(b - r0)), (j0, nr), xs, &lp, true);
        }
    }
    Ok(())
}

/// POTRF: factor a diagonal tile in place, `A = L Lᵀ`, storing `L`.
/// Computation runs in the tile's own precision (half tiles use f32
/// arithmetic on quantized values, rounded on store). On error the tile is
/// left partially factored.
pub fn potrf(a: &mut Tile) -> Result<(), NotPositiveDefinite> {
    potrf_with(Isa::detected(), a)
}

fn potrf_with(isa: Isa, a: &mut Tile) -> Result<(), NotPositiveDefinite> {
    let b = a.b();
    update(
        a,
        |w| isa::potrf::<f64, NR64>(isa, w, b),
        |w| isa::potrf::<f32, NR32>(isa, w, b),
    )
}

/// A dense lower-triangular f64 factor `L` (`n × n`) packed once for
/// [`PackedLower::mul_rows`]: row panels of `MR`, `k`-major, each panel
/// only as long as its last row's support.
#[derive(Debug, Clone)]
pub struct PackedLower {
    n: usize,
    /// Panel `p` (rows `MR·p..`) starts at `MR·NR64·p(p+1)/2` and holds
    /// `data[.. + k·NR64 + i] = L[MR·p + i][k]` for `k < min(MR·(p+1), n)`,
    /// zero past the diagonal and past row `n`.
    data: Vec<f64>,
}

impl PackedLower {
    /// Pack the lower triangle of the row-major `n × n` matrix `l`; entries
    /// above the diagonal are never read.
    pub fn new(l: &[f64], n: usize) -> Self {
        assert_eq!(l.len(), n * n, "factor must be n²");
        let mut data = Vec::with_capacity(n.div_ceil(MR) * (n + MR) * NR64 / 2);
        for i0 in (0..n).step_by(MR) {
            for k in 0..(i0 + MR).min(n) {
                data.extend(
                    (i0..i0 + MR).map(|i| if k <= i && i < n { l[i * n + k] } else { 0.0 }),
                );
            }
        }
        Self { n, data }
    }

    /// Rows of `h` that [`PackedLower::mul_rows`] multiplies at a time:
    /// splitting `h` at multiples of this leaves no padded row in any part
    /// but the last.
    pub const ROW_BLOCK: usize = NR64;

    /// Side `n` of the factor.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// `out[s] = L · h[s]` for every length-`n` row `s` of `h` (both
    /// row-major, `h.len() / n` rows): each element is
    /// `0 + Σ_{k ≤ i} L[i][k] · h[s][k]` summed in ascending `k` — the
    /// chain of the one-accumulator loop, with no terms past the diagonal —
    /// computed `MR` rows of `L` by `NR64` rows of `h` at a time.
    pub fn mul_rows(&self, h: &[f64], out: &mut [f64]) {
        self.mul_rows_with(Isa::detected(), h, out)
    }

    fn mul_rows_with(&self, isa: Isa, h: &[f64], out: &mut [f64]) {
        let n = self.n;
        assert_eq!(h.len(), out.len(), "one output row per input row");
        if n == 0 {
            return;
        }
        assert_eq!(h.len() % n, 0, "rows of length n");
        let hp = pack(h, n, NR64, each(|x| x));
        isa::mul_rows(isa, &self.data, n, &hp, out);
    }
}

/// [`PackedLower::mul_rows`] on the packed factor `data` (side `n`) and the
/// rows of `h` packed `k`-major in panels of `NR64` (`hp`).
#[inline(always)]
pub(crate) fn mul_rows_body(data: &[f64], n: usize, hp: &[f64], out: &mut [f64]) {
    for (p, i0) in (0..n).step_by(MR).enumerate() {
        let k_end = (i0 + MR).min(n);
        let ap = &data[MR * NR64 * p * (p + 1) / 2..][..k_end * NR64];
        for (sp, bp) in hp.chunks_exact(n * NR64).enumerate() {
            // Columns `k ≤ i0` belong to every row of the block …
            let mut acc = dot_block::<f64, NR64>(&ap[..(i0 + 1) * NR64], 0, bp);
            // … the rest of the panel only to the rows at or below them.
            for k in i0 + 1..k_end {
                let (ak, bk) = (&ap[k * NR64..][..NR64], &bp[k * NR64..][..NR64]);
                for i in k - i0..MR {
                    for j in 0..NR64 {
                        acc[i][j] = acc[i][j].mul_add_acc(ak[i], bk[j]);
                    }
                }
            }
            let s0 = sp * NR64;
            for (j, o) in out[s0 * n..].chunks_mut(n).take(NR64).enumerate() {
                for (i, v) in o[i0..k_end].iter_mut().enumerate() {
                    *v = acc[i][j];
                }
            }
        }
    }
}

/// Vectors of one length `dim` packed once for their Gram matrix
/// `G = Σ_s v_s v_sᵀ`: panel `p` holds coordinates `MR·p ..` of every
/// vector, `k`-major in the vectors' order —
/// `data[(p·count + s)·MR + c] = v_s[MR·p + c]`, zero past `dim`.
#[derive(Debug, Clone)]
pub struct GramPanels {
    dim: usize,
    count: usize,
    data: Vec<f64>,
}

impl GramPanels {
    /// Rows of `G` each [`GramPanels::lower_rows`] call produces.
    pub const PANEL_ROWS: usize = MR;

    /// Pack `vectors` (all of one length).
    pub fn new(vectors: &[Vec<f64>]) -> Self {
        let dim = vectors.first().map_or(0, Vec::len);
        assert!(vectors.iter().all(|v| v.len() == dim), "ragged vectors");
        let (count, panels) = (vectors.len(), dim.div_ceil(MR));
        let mut data = vec![0.0; panels * count * MR];
        for (s, v) in vectors.iter().enumerate() {
            for (p, chunk) in v.chunks(MR).enumerate() {
                data[(p * count + s) * MR..][..chunk.len()].copy_from_slice(chunk);
            }
        }
        Self { dim, count, data }
    }

    /// Row panels of `G`: `dim / PANEL_ROWS`, rounded up.
    pub fn panels(&self) -> usize {
        self.dim.div_ceil(MR)
    }

    /// The lower triangle of `G`'s rows `PANEL_ROWS·p ..` into `rows`
    /// (row-major, `dim` wide, one row per row of the panel that exists):
    /// element `(i, j ≤ i)` is `0 + Σ_s v_s[i] · v_s[j]` summed in the
    /// vectors' order, one `MR × NR64` block per `dot_block`. Entries right
    /// of the diagonal are left as they were.
    pub fn lower_rows(&self, p: usize, rows: &mut [f64]) {
        self.lower_rows_with(Isa::detected(), p, rows)
    }

    fn lower_rows_with(&self, isa: Isa, p: usize, rows: &mut [f64]) {
        assert!(p < self.panels(), "panel {p} of {}", self.panels());
        let height = MR.min(self.dim - MR * p);
        assert_eq!(rows.len(), height * self.dim, "one row per panel row");
        isa::gram_rows(isa, &self.data, (self.count, self.dim), p, rows);
    }
}

/// [`GramPanels::lower_rows`] on the packed `data` of `count` vectors of
/// length `dim`.
#[inline(always)]
pub(crate) fn gram_rows_body(
    data: &[f64],
    (count, dim): (usize, usize),
    p: usize,
    rows: &mut [f64],
) {
    let panel = count * MR;
    let ap = &data[p * panel..][..panel];
    for (jp, bp) in data.chunks_exact(panel).take(p + 1).enumerate() {
        let acc = dot_block::<f64, NR64>(ap, 0, bp);
        let j0 = jp * NR64;
        for (i, (row, acc_row)) in rows.chunks_exact_mut(dim).zip(&acc).enumerate() {
            // Columns up to the diagonal, and none past `dim`.
            let end = (MR * p + i + 1).min(j0 + NR64);
            row[j0..end].copy_from_slice(&acc_row[..end - j0]);
        }
    }
}

/// Flop counts of the four kernels for a tile side `b` (standard LAPACK
/// accounting, used by benches and the cluster simulator).
pub mod flops {
    /// POTRF on a `b×b` tile.
    pub fn potrf(b: usize) -> f64 {
        let b = b as f64;
        b * b * b / 3.0
    }
    /// TRSM on a `b×b` tile.
    pub fn trsm(b: usize) -> f64 {
        let b = b as f64;
        b * b * b
    }
    /// SYRK on a `b×b` tile.
    pub fn syrk(b: usize) -> f64 {
        let b = b as f64;
        b * b * b
    }
    /// GEMM on a `b×b` tile.
    pub fn gemm(b: usize) -> f64 {
        let b = b as f64;
        2.0 * b * b * b
    }
    /// Total Cholesky flops for matrix size `n` (n³/3 to leading order).
    pub fn cholesky(n: f64) -> f64 {
        n * n * n / 3.0
    }
}

/// The kernels this module replaced, kept as the bit-exact oracle: one
/// accumulator per element, operands cloned and converted on every call.
#[cfg(test)]
mod reference {
    use super::{NotPositiveDefinite, Real};
    use crate::precision::Precision;
    use crate::tile::Tile;

    fn potrf_buf<T: Real>(w: &mut [T], b: usize) -> Result<(), NotPositiveDefinite> {
        for k in 0..b {
            let mut d = w[k * b + k];
            for p in 0..k {
                let l = w[k * b + p];
                d = d.sub(T::ZERO.mul_add_acc(l, l));
            }
            if d.to_f64() <= 0.0 || !d.to_f64().is_finite() {
                return Err(NotPositiveDefinite {
                    pivot: k,
                    value: d.to_f64(),
                });
            }
            let dk = d.sqrt();
            w[k * b + k] = dk;
            for i in k + 1..b {
                let mut s = w[i * b + k];
                for p in 0..k {
                    s = s.sub(T::ZERO.mul_add_acc(w[i * b + p], w[k * b + p]));
                }
                w[i * b + k] = s.div(dk);
            }
            for j in k + 1..b {
                w[k * b + j] = T::ZERO;
            }
        }
        Ok(())
    }

    pub fn potrf(a: &mut Tile) -> Result<(), NotPositiveDefinite> {
        let b = a.b();
        match a.precision() {
            Precision::Double => {
                let mut w = a.to_f64();
                potrf_buf(&mut w, b)?;
                a.store_f64(&w);
            }
            Precision::Single | Precision::Half => {
                let mut w = a.to_f32();
                potrf_buf(&mut w, b)?;
                a.store_f32(&w);
            }
        }
        Ok(())
    }

    fn trsm_body<T: Real>(l: &[T], x: &mut [T], b: usize) {
        for r in 0..b {
            let row = &mut x[r * b..(r + 1) * b];
            for j in 0..b {
                let mut s = row[j];
                for k in 0..j {
                    s = s.sub(T::ZERO.mul_add_acc(row[k], l[j * b + k]));
                }
                row[j] = s.div(l[j * b + j]);
            }
        }
    }

    pub fn trsm(l: &Tile, bt: &mut Tile) {
        let b = bt.b();
        match bt.precision() {
            Precision::Double => {
                let mut x = bt.to_f64();
                trsm_body(&l.to_f64(), &mut x, b);
                bt.store_f64(&x);
            }
            Precision::Single => {
                let mut x = bt.to_f32();
                trsm_body(&l.to_f32(), &mut x, b);
                bt.store_f32(&x);
            }
            Precision::Half => {
                let mut x = bt.to_f32();
                trsm_body(&l.convert(Precision::Half).to_f32(), &mut x, b);
                bt.store_f32(&x);
            }
        }
    }

    fn gemm_body<T: Real>(a: &[T], bt: &[T], c: &mut [T], b: usize) {
        for i in 0..b {
            let arow = &a[i * b..(i + 1) * b];
            for j in 0..b {
                let brow = &bt[j * b..(j + 1) * b];
                let mut acc = T::ZERO;
                for k in 0..b {
                    acc = acc.mul_add_acc(arow[k], brow[k]);
                }
                c[i * b + j] = c[i * b + j].sub(acc);
            }
        }
    }

    pub fn gemm(a: &Tile, bt: &Tile, c: &mut Tile) {
        let b = c.b();
        match c.precision() {
            Precision::Double => {
                let mut cw = c.to_f64();
                gemm_body(&a.to_f64(), &bt.to_f64(), &mut cw, b);
                c.store_f64(&cw);
            }
            Precision::Single => {
                let mut cw = c.to_f32();
                gemm_body(&a.to_f32(), &bt.to_f32(), &mut cw, b);
                c.store_f32(&cw);
            }
            Precision::Half => {
                let aw = a.convert(Precision::Half).to_f32();
                let bw = bt.convert(Precision::Half).to_f32();
                let mut cw = c.to_f32();
                gemm_body(&aw, &bw, &mut cw, b);
                c.store_f32(&cw);
            }
        }
    }

    fn syrk_body<T: Real>(a: &[T], c: &mut [T], b: usize) {
        for i in 0..b {
            let arow_i = &a[i * b..(i + 1) * b];
            for j in 0..=i {
                let arow_j = &a[j * b..(j + 1) * b];
                let mut acc = T::ZERO;
                for k in 0..b {
                    acc = acc.mul_add_acc(arow_i[k], arow_j[k]);
                }
                c[i * b + j] = c[i * b + j].sub(acc);
                if i != j {
                    c[j * b + i] = c[i * b + j];
                }
            }
        }
    }

    pub fn syrk(a: &Tile, c: &mut Tile) {
        let b = c.b();
        match c.precision() {
            Precision::Double => {
                let mut cw = c.to_f64();
                syrk_body(&a.to_f64(), &mut cw, b);
                c.store_f64(&cw);
            }
            Precision::Single => {
                let mut cw = c.to_f32();
                syrk_body(&a.to_f32(), &mut cw, b);
                c.store_f32(&cw);
            }
            Precision::Half => {
                let mut cw = c.to_f32();
                syrk_body(&a.convert(Precision::Half).to_f32(), &mut cw, b);
                c.store_f32(&cw);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn spd_tile(b: usize, seed: u64, p: Precision) -> (Tile, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g: Vec<f64> = (0..b * b).map(|_| rng.gen_range(-1.0..1.0)).collect();
        // A = G Gᵀ + b·I is SPD.
        let mut a = vec![0.0; b * b];
        for i in 0..b {
            for j in 0..b {
                let mut s = 0.0;
                for k in 0..b {
                    s += g[i * b + k] * g[j * b + k];
                }
                a[i * b + j] = s + if i == j { b as f64 } else { 0.0 };
            }
        }
        (Tile::from_f64(b, &a, p), a)
    }

    fn reconstruct_llt(l: &Tile) -> Vec<f64> {
        let b = l.b();
        let lw = l.to_f64();
        let mut out = vec![0.0; b * b];
        for i in 0..b {
            for j in 0..b {
                let mut s = 0.0;
                for k in 0..b {
                    s += lw[i * b + k] * lw[j * b + k];
                }
                out[i * b + j] = s;
            }
        }
        out
    }

    #[test]
    fn packed_lower_mul_rows_matches_the_one_accumulator_loop_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(17);
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 17, 33, 64, 66] {
            // ±0 entries, an all-zero row, and NaN above the diagonal, which
            // must never be read.
            let mut l = vec![f64::NAN; n * n];
            for i in 0..n {
                for k in 0..=i {
                    l[i * n + k] = match rng.gen_range(0..6u32) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.gen_range(-1.0..1.0),
                    };
                }
            }
            l[(n / 2) * n..(n / 2) * n + n / 2 + 1].fill(0.0);
            let packed = PackedLower::new(&l, n);
            for rows in [1usize, 3, 4, 5, 9] {
                let h: Vec<f64> = (0..rows * n)
                    .map(|_| match rng.gen_range(0..5u32) {
                        0 => -0.0,
                        1 => 5e-324,
                        _ => rng.gen_range(-3.0..3.0),
                    })
                    .collect();
                for isa in Isa::all() {
                    let mut out = vec![f64::NAN; rows * n];
                    packed.mul_rows_with(isa, &h, &mut out);
                    for s in 0..rows {
                        for i in 0..n {
                            let mut acc = 0.0;
                            for k in 0..=i {
                                acc += l[i * n + k] * h[s * n + k];
                            }
                            assert_eq!(
                                out[s * n + i].to_bits(),
                                acc.to_bits(),
                                "n={n} row {s} i={i} {isa:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gram_rows_match_the_one_accumulator_loop_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x6772);
        for (dim, count) in [
            (1usize, 1usize),
            (3, 5),
            (4, 4),
            (5, 9),
            (9, 2),
            (9, 17),
            (17, 33),
            (17, 9),
            (33, 9),
            (64, 70),
        ] {
            // ±0 and subnormal coordinates, an all-zero vector and a
            // coordinate that is zero in every vector.
            let mut vectors: Vec<Vec<f64>> = (0..count)
                .map(|_| {
                    (0..dim)
                        .map(|_| match rng.gen_range(0..6u32) {
                            0 => 0.0,
                            1 => -0.0,
                            2 => -5e-324,
                            _ => rng.gen_range(-3.0..3.0),
                        })
                        .collect()
                })
                .collect();
            vectors[count / 2].fill(0.0);
            for v in vectors.iter_mut() {
                v[dim / 2] = -0.0;
            }
            let packed = GramPanels::new(&vectors);
            assert_eq!(packed.panels(), dim.div_ceil(GramPanels::PANEL_ROWS));
            for isa in Isa::all() {
                for p in 0..packed.panels() {
                    let r0 = p * GramPanels::PANEL_ROWS;
                    let height = GramPanels::PANEL_ROWS.min(dim - r0);
                    let mut rows = vec![f64::NAN; height * dim];
                    packed.lower_rows_with(isa, p, &mut rows);
                    for (k, row) in rows.chunks_exact(dim).enumerate() {
                        let i = r0 + k;
                        for (j, got) in row.iter().enumerate() {
                            if j > i {
                                assert!(got.is_nan(), "dim {dim}: ({i}, {j}) was written");
                                continue;
                            }
                            let mut acc = 0.0;
                            for v in &vectors {
                                acc += v[i] * v[j];
                            }
                            assert_eq!(
                                got.to_bits(),
                                acc.to_bits(),
                                "dim {dim}, count {count}: ({i}, {j}) {isa:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn potrf_dp_reconstructs() {
        let (mut t, a) = spd_tile(8, 1, Precision::Double);
        potrf(&mut t).unwrap();
        let r = reconstruct_llt(&t);
        for (x, y) in r.iter().zip(&a) {
            assert!((x - y).abs() < 1e-10, "{x} vs {y}");
        }
        // Strict upper triangle must be zero.
        for i in 0..8 {
            for j in i + 1..8 {
                assert_eq!(t.get(i, j), 0.0);
            }
        }
    }

    #[test]
    fn potrf_sp_error_scales_with_roundoff() {
        let (mut t, a) = spd_tile(8, 2, Precision::Single);
        potrf(&mut t).unwrap();
        let r = reconstruct_llt(&t);
        let norm: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
        let err: f64 = r
            .iter()
            .zip(&a)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        let rel = err / norm;
        assert!(rel < 50.0 * Precision::Single.unit_roundoff(), "rel={rel}");
        assert!(
            rel > 0.01 * Precision::Double.unit_roundoff(),
            "suspiciously exact"
        );
    }

    #[test]
    fn potrf_rejects_indefinite() {
        let mut t = Tile::from_f64(2, &[1.0, 2.0, 2.0, 1.0], Precision::Double);
        let e = potrf(&mut t).unwrap_err();
        assert_eq!(e.pivot, 1);
        assert!(e.value <= 0.0);
    }

    #[test]
    fn trsm_solves_against_reference() {
        let b = 6;
        let (mut l, _) = spd_tile(b, 3, Precision::Double);
        potrf(&mut l).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let bv: Vec<f64> = (0..b * b).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut x = Tile::from_f64(b, &bv, Precision::Double);
        trsm(&PackedTile::new(&l, Precision::Double), &mut x);
        // Check X · Lᵀ == B.
        let xw = x.to_f64();
        let lw = l.to_f64();
        for i in 0..b {
            for j in 0..b {
                let mut s = 0.0;
                for k in 0..b {
                    s += xw[i * b + k] * lw[j * b + k];
                }
                assert!((s - bv[i * b + j]).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn gemm_matches_reference_in_dp() {
        let b = 5;
        let mut rng = StdRng::seed_from_u64(5);
        let av: Vec<f64> = (0..b * b).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let bv: Vec<f64> = (0..b * b).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let cv: Vec<f64> = (0..b * b).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let a = Tile::from_f64(b, &av, Precision::Double);
        let bt = Tile::from_f64(b, &bv, Precision::Double);
        let mut c = Tile::from_f64(b, &cv, Precision::Double);
        let pack = |t| PackedTile::new(t, Precision::Double);
        gemm(&pack(&a), &pack(&bt), &mut c);
        for i in 0..b {
            for j in 0..b {
                let mut s = cv[i * b + j];
                for k in 0..b {
                    s -= av[i * b + k] * bv[j * b + k];
                }
                assert!((c.get(i, j) - s).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn hp_gemm_quantizes_operands_but_accumulates_in_f32() {
        let b = 4;
        // Operand value that is NOT representable in binary16.
        let v = 1.0 + 1.0 / 4096.0;
        let av = vec![v; b * b];
        let bv = vec![1.0; b * b];
        let a = Tile::from_f64(b, &av, Precision::Double);
        let bt = Tile::from_f64(b, &bv, Precision::Double);
        let mut c = Tile::zeros(b, Precision::Half);
        let pack = |t| PackedTile::new(t, Precision::Half);
        gemm(&pack(&a), &pack(&bt), &mut c);
        // Quantized operand is exactly 1.0 in f16, so C = −b·1·1 = −4 exactly:
        // f32 accumulation of 4 identical products has no extra error here.
        for i in 0..b {
            for j in 0..b {
                assert_eq!(c.get(i, j), -(b as f64));
            }
        }
    }

    #[test]
    fn syrk_keeps_symmetry() {
        let b = 6;
        let mut rng = StdRng::seed_from_u64(7);
        let av: Vec<f64> = (0..b * b).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (mut c, _) = spd_tile(b, 8, Precision::Double);
        let a = Tile::from_f64(b, &av, Precision::Double);
        syrk(&PackedTile::new(&a, Precision::Double), &mut c);
        for i in 0..b {
            for j in 0..b {
                assert_eq!(c.get(i, j), c.get(j, i), "symmetry at ({i},{j})");
            }
        }
    }

    #[test]
    fn syrk_matches_gemm_with_self() {
        let b = 5;
        let mut rng = StdRng::seed_from_u64(9);
        let av: Vec<f64> = (0..b * b).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let cv: Vec<f64> = {
            // symmetric start
            let mut m = vec![0.0; b * b];
            for i in 0..b {
                for j in 0..=i {
                    let x = rng.gen_range(-1.0..1.0);
                    m[i * b + j] = x;
                    m[j * b + i] = x;
                }
            }
            m
        };
        let a = Tile::from_f64(b, &av, Precision::Double);
        let mut c1 = Tile::from_f64(b, &cv, Precision::Double);
        let mut c2 = Tile::from_f64(b, &cv, Precision::Double);
        let a = PackedTile::new(&a, Precision::Double);
        syrk(&a, &mut c1);
        gemm(&a, &a, &mut c2);
        for i in 0..b {
            for j in 0..b {
                assert!((c1.get(i, j) - c2.get(i, j)).abs() < 1e-12);
            }
        }
    }

    const PRECISIONS: [Precision; 3] = [Precision::Double, Precision::Single, Precision::Half];
    /// Tile sides of the bit-identity sweep: mostly not multiples of the
    /// register block. 9, 17 and 33 leave a one-lane tail panel at either
    /// pack width (`NR64` = 4, `NR32` = 8).
    const SIDES: [usize; 11] = [1, 2, 3, 5, 8, 9, 13, 17, 32, 33, 128];

    /// Random values in (−1, 1) salted with both signed zeros and an
    /// operand binary16 cannot represent.
    fn salted(rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| match rng.gen_range(0..12) {
                0 => 0.0,
                1 => -0.0,
                2 => 1.0 + 1.0 / 4096.0,
                _ => rng.gen_range(-1.0..1.0),
            })
            .collect()
    }

    fn bits(t: &Tile) -> Vec<u64> {
        t.to_f64().iter().map(|x| x.to_bits()).collect()
    }

    // The three sweeps below run every compilation of the kernel bodies
    // this CPU has (`Isa::all`): the baseline always, AVX2 where detected.

    #[test]
    fn gemm_and_syrk_equal_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(0x6e44);
        for b in SIDES {
            for pc in PRECISIONS {
                for pa in PRECISIONS {
                    for pb in PRECISIONS {
                        let a = Tile::from_f64(b, &salted(&mut rng, b * b), pa);
                        let bt = Tile::from_f64(b, &salted(&mut rng, b * b), pb);
                        let c0 = Tile::from_f64(b, &salted(&mut rng, b * b), pc);
                        let (ap, bp) = (PackedTile::new(&a, pc), PackedTile::new(&bt, pc));
                        let mut want = c0.clone();
                        reference::gemm(&a, &bt, &mut want);
                        // SYRK on a start that is not even symmetric.
                        let mut want_syrk = c0.clone();
                        reference::syrk(&a, &mut want_syrk);
                        for isa in Isa::all() {
                            let mut got = c0.clone();
                            gemm_with(isa, &ap, &bp, &mut got);
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "gemm b={b} {pc:?}←{pa:?}·{pb:?} {isa:?}"
                            );
                            let mut got = c0.clone();
                            syrk_with(isa, &ap, &mut got);
                            assert_eq!(
                                bits(&got),
                                bits(&want_syrk),
                                "syrk b={b} {pc:?}←{pa:?} {isa:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn trsm_equals_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(0x7253);
        for b in SIDES {
            for px in PRECISIONS {
                for pl in PRECISIONS {
                    // Unit-scale diagonal, zeros sprinkled below it, junk
                    // above it (which neither implementation may read).
                    let mut lv = salted(&mut rng, b * b);
                    for i in 0..b {
                        lv[i * b + i] = rng.gen_range(1.0..2.0);
                        for j in 0..i {
                            lv[i * b + j] /= b as f64;
                        }
                    }
                    let l = Tile::from_f64(b, &lv, pl);
                    let x0 = Tile::from_f64(b, &salted(&mut rng, b * b), px);
                    let mut want = x0.clone();
                    reference::trsm(&l, &mut want);
                    let lp = PackedTile::new(&l, px);
                    for isa in Isa::all() {
                        let mut got = x0.clone();
                        trsm_with(isa, &lp, &mut got);
                        assert_eq!(bits(&got), bits(&want), "trsm b={b} {px:?}←{pl:?} {isa:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn potrf_equals_reference_bitwise() {
        for b in SIDES {
            for p in PRECISIONS {
                let (t0, _) = spd_tile(b, 40 + b as u64, p);
                let mut want = t0.clone();
                reference::potrf(&mut want).unwrap();
                for isa in Isa::all() {
                    let mut got = t0.clone();
                    potrf_with(isa, &mut got).unwrap();
                    assert_eq!(bits(&got), bits(&want), "potrf b={b} {p:?} {isa:?}");
                }
            }
        }
        // The first bad pivot is reported with the same value, wherever in
        // a column block it falls.
        for bad in [0usize, 3, 4, 9, 12] {
            let b = 13;
            let (_, mut a) = spd_tile(b, 60, Precision::Double);
            a[bad * b + bad] = -1.0;
            for p in PRECISIONS {
                let t = Tile::from_f64(b, &a, p);
                let want = reference::potrf(&mut t.clone()).unwrap_err();
                for isa in Isa::all() {
                    let got = potrf_with(isa, &mut t.clone()).unwrap_err();
                    assert_eq!(got.pivot, want.pivot, "bad={bad} {p:?} {isa:?}");
                    assert_eq!(
                        got.value.to_bits(),
                        want.value.to_bits(),
                        "bad={bad} {p:?} {isa:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "another precision")]
    fn pack_for_the_wrong_precision_is_rejected() {
        let a = Tile::zeros(4, Precision::Double);
        let mut c = Tile::zeros(4, Precision::Single);
        syrk(&PackedTile::new(&a, Precision::Double), &mut c);
    }

    #[test]
    fn flop_formulas() {
        assert_eq!(flops::gemm(10), 2000.0);
        assert_eq!(flops::trsm(10), 1000.0);
        assert_eq!(flops::syrk(10), 1000.0);
        assert!((flops::potrf(10) - 1000.0 / 3.0).abs() < 1e-12);
        assert!((flops::cholesky(30.0) - 9000.0).abs() < 1e-9);
    }
}
