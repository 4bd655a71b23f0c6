//! Mixed-precision tile Cholesky: its task bodies, the sequential driver,
//! and its quality metrics.
//!
//! The right-looking tile algorithm of §II.C — `POTRF(k,k)`; `TRSM(i,k)`
//! down the panel; `SYRK(i,i)`/`GEMM(i,j)` on the trailing submatrix —
//! where every update runs in the precision of the tile it touches.
//! [`TileTasks`] is the one implementation of those four tasks;
//! [`tile_cholesky`] calls them in loop order and the task-parallel version
//! in `exaclim-runtime` in DAG order, so the two factor bit-identically.

use crate::kernels::{self, NotPositiveDefinite, PackedTile};
use crate::precision::Precision;
use crate::tile::Tile;
use crate::tiled::TiledMatrix;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Execution statistics of one tile Cholesky.
#[derive(Debug, Clone, PartialEq)]
pub struct CholeskyStats {
    /// Matrix dimension.
    pub n: usize,
    /// Tile side.
    pub b: usize,
    /// Kernel invocation counts `(potrf, trsm, syrk, gemm)`.
    pub kernel_counts: (usize, usize, usize, usize),
    /// Flops executed per precision `[half, single, double]`.
    pub flops_by_precision: [f64; 3],
    /// Wall-clock seconds.
    pub seconds: f64,
}

impl CholeskyStats {
    /// Kernel counts and per-precision flops of factoring `a` (each kernel
    /// is charged to the precision of the tile it updates, which a
    /// factorization never changes), with the measured wall time.
    pub fn for_matrix(a: &TiledMatrix, seconds: f64) -> Self {
        let (nt, b) = (a.nt(), a.b());
        let mut counts = (0usize, 0usize, 0usize, 0usize);
        let mut flops = [0.0f64; 3];
        for k in 0..nt {
            counts.0 += 1;
            flops[bucket(a.tile(k, k).precision())] += kernels::flops::potrf(b);
            for i in k + 1..nt {
                counts.1 += 1;
                flops[bucket(a.tile(i, k).precision())] += kernels::flops::trsm(b);
                counts.2 += 1;
                flops[bucket(a.tile(i, i).precision())] += kernels::flops::syrk(b);
                for j in k + 1..i {
                    counts.3 += 1;
                    flops[bucket(a.tile(i, j).precision())] += kernels::flops::gemm(b);
                }
            }
        }
        Self {
            n: a.n(),
            b,
            kernel_counts: counts,
            flops_by_precision: flops,
            seconds: seconds.max(1e-12),
        }
    }

    /// Total flops across precisions.
    pub fn total_flops(&self) -> f64 {
        self.flops_by_precision.iter().sum()
    }

    /// Achieved flop rate in GFlop/s.
    pub fn gflops(&self) -> f64 {
        self.total_flops() / self.seconds / 1e9
    }
}

fn bucket(p: Precision) -> usize {
    match p {
        Precision::Half => 0,
        Precision::Single => 1,
        Precision::Double => 2,
    }
}

/// The four task bodies of the tile Cholesky over one matrix — the single
/// code path behind both the sequential loop below and the DAG executor in
/// `exaclim-runtime`.
///
/// Tiles sit in lock cells so tasks on different tiles run concurrently
/// through `&self`; the caller supplies the ordering (the loop nest, or the
/// dependence edges of `cholesky_graph`): a task may run once every earlier
/// update of its tile and the `POTRF`/`TRSM` that finish its operands have.
/// A finished tile is converted and packed once per consumer precision
/// ([`PackedTile`]), shared by every `TRSM`/`SYRK`/`GEMM` that reads it, and
/// the packs are freed by the last of them — at most a couple of panels'
/// worth are alive at any time.
pub struct TileTasks<'a> {
    nt: usize,
    /// Lower triangle, packed like [`TiledMatrix`]'s tiles.
    cells: Vec<Mutex<&'a mut Tile>>,
    operands: Vec<Operand>,
}

/// Packs of one finished tile and the count of tasks still to read it.
struct Operand {
    /// One pack per consumer precision `[half, single, double]`, built by
    /// the first task that asks.
    packs: Mutex<[Option<Arc<PackedTile>>; 3]>,
    readers_left: AtomicUsize,
}

impl<'a> TileTasks<'a> {
    /// Borrow the tiles of `a` for one factorization.
    pub fn new(a: &'a mut TiledMatrix) -> Self {
        let nt = a.nt();
        // Tile `(i, k)` is read by `SYRK(i,k)` and the `GEMM`s of row and
        // column `i` of panel `k`, tile `(k, k)` by the panel's `TRSM`s:
        // `nt − k − 1` readers either way.
        let operands = (0..nt)
            .flat_map(|i| (0..=i).map(move |k| nt - k - 1))
            .map(|readers| Operand {
                packs: Mutex::default(),
                readers_left: AtomicUsize::new(readers),
            })
            .collect();
        Self {
            nt,
            cells: a.tiles_mut().iter_mut().map(Mutex::new).collect(),
            operands,
        }
    }

    fn idx(&self, i: usize, j: usize) -> usize {
        assert!(
            j <= i && i < self.nt,
            "tile ({i},{j}) outside the lower triangle"
        );
        i * (i + 1) / 2 + j
    }

    fn tile(&self, i: usize, j: usize) -> MutexGuard<'_, &'a mut Tile> {
        self.cells[self.idx(i, j)]
            .lock()
            .expect("a kernel panicked while updating this tile")
    }

    /// The finished tile `(i, k)` packed for consumers of precision `p`.
    fn operand(&self, i: usize, k: usize, p: Precision) -> Arc<PackedTile> {
        let mut packs = self.operands[self.idx(i, k)]
            .packs
            .lock()
            .expect("packing a tile panicked");
        let pack =
            packs[bucket(p)].get_or_insert_with(|| Arc::new(PackedTile::new(&self.tile(i, k), p)));
        Arc::clone(pack)
    }

    /// One reader of tile `(i, k)` is done; the last one frees its packs.
    fn release(&self, i: usize, k: usize) {
        let operand = &self.operands[self.idx(i, k)];
        if operand.readers_left.fetch_sub(1, Ordering::AcqRel) == 1 {
            *operand.packs.lock().expect("packing a tile panicked") = Default::default();
        }
    }

    /// `POTRF(k)`: factor diagonal tile `(k, k)`.
    pub fn potrf(&self, k: usize) -> Result<(), NotPositiveDefinite> {
        kernels::potrf(&mut self.tile(k, k))
    }

    /// `TRSM(i, k)`: solve panel tile `(i, k)` against `L(k, k)`.
    pub fn trsm(&self, i: usize, k: usize) {
        assert!(k < i, "TRSM({i},{k}) is not below the diagonal");
        let mut x = self.tile(i, k);
        kernels::trsm(&self.operand(k, k, x.precision()), &mut x);
        self.release(k, k);
    }

    /// `SYRK(i, k)`: update diagonal tile `(i, i)` with panel tile `(i, k)`.
    pub fn syrk(&self, i: usize, k: usize) {
        assert!(k < i, "SYRK({i},{k}) is not below the diagonal");
        let mut c = self.tile(i, i);
        kernels::syrk(&self.operand(i, k, c.precision()), &mut c);
        self.release(i, k);
    }

    /// `GEMM(i, j, k)`: update tile `(i, j)` with panel tiles `(i, k)` and
    /// `(j, k)`.
    pub fn gemm(&self, i: usize, j: usize, k: usize) {
        assert!(k < j && j < i, "GEMM({i},{j},{k}) needs k < j < i");
        let mut c = self.tile(i, j);
        let p = c.precision();
        kernels::gemm(&self.operand(i, k, p), &self.operand(j, k, p), &mut c);
        self.release(i, k);
        self.release(j, k);
    }
}

/// Factor a [`TiledMatrix`] in place: on return the lower triangle of tiles
/// holds `L` with `A = L Lᵀ` (up to mixed-precision rounding).
pub fn tile_cholesky(a: &mut TiledMatrix) -> Result<CholeskyStats, NotPositiveDefinite> {
    let start = std::time::Instant::now();
    let nt = a.nt();
    let tasks = TileTasks::new(a);
    for k in 0..nt {
        tasks.potrf(k)?;
        for i in k + 1..nt {
            tasks.trsm(i, k);
        }
        for i in k + 1..nt {
            tasks.syrk(i, k);
            for j in k + 1..i {
                tasks.gemm(i, j, k);
            }
        }
    }
    drop(tasks);
    Ok(CholeskyStats::for_matrix(a, start.elapsed().as_secs_f64()))
}

/// Relative factorization residual `‖A − L Lᵀ‖_F / ‖A‖_F` given the original
/// dense matrix and the factored tiled matrix.
pub fn factorization_residual(original: &[f64], factored: &TiledMatrix) -> f64 {
    let n = factored.n();
    assert_eq!(original.len(), n * n);
    let l = factored.to_dense_lower();
    let mut err = 0.0f64;
    let mut nrm = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            let mut s = 0.0;
            for k in 0..=i.min(j) {
                s += l[i * n + k] * l[j * n + k];
            }
            let d = s - original[i * n + j];
            err += d * d;
            nrm += original[i * n + j] * original[i * n + j];
        }
    }
    (err / nrm).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precision::PrecisionPolicy;
    use crate::tiled::exp_covariance;

    fn run(n: usize, b: usize, policy: PrecisionPolicy, rho: f64) -> (f64, CholeskyStats) {
        let a = exp_covariance(n, rho, 1e-3);
        let mut tm = TiledMatrix::from_dense(&a, n, b, &policy);
        let stats = tile_cholesky(&mut tm).expect("SPD input");
        (factorization_residual(&a, &tm), stats)
    }

    #[test]
    fn dp_matches_dense_reference() {
        let n = 32;
        let a = exp_covariance(n, 4.0, 1e-3);
        let mut tm = TiledMatrix::from_dense(&a, n, 8, &PrecisionPolicy::dp());
        tile_cholesky(&mut tm).unwrap();
        let tiled_l = tm.to_dense_lower();
        let dense_l = crate::dense::Matrix::from_vec(n, n, a.clone())
            .cholesky_lower()
            .unwrap();
        for i in 0..n {
            for j in 0..n {
                assert!(
                    (tiled_l[i * n + j] - dense_l.get(i, j)).abs() < 1e-11,
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn dp_residual_is_machine_level() {
        let (res, stats) = run(48, 8, PrecisionPolicy::dp(), 6.0);
        assert!(res < 1e-13, "res={res}");
        assert_eq!(stats.kernel_counts.0, 6); // nt potrf
        assert_eq!(stats.kernel_counts.1, 15); // nt(nt-1)/2 trsm
        assert_eq!(stats.kernel_counts.2, 15); // syrk
        assert_eq!(stats.kernel_counts.3, 20); // nt(nt-1)(nt-2)/6 gemm
    }

    #[test]
    fn residual_ordering_follows_precision() {
        // DP < DP/SP < DP/HP in accuracy; all should succeed on a
        // well-conditioned covariance.
        let (r_dp, _) = run(48, 8, PrecisionPolicy::dp(), 4.0);
        let (r_sp, _) = run(48, 8, PrecisionPolicy::dp_sp(), 4.0);
        let (r_hp, _) = run(48, 8, PrecisionPolicy::dp_hp(), 4.0);
        assert!(r_dp < r_sp, "dp={r_dp} sp={r_sp}");
        assert!(r_sp < r_hp, "sp={r_sp} hp={r_hp}");
        // And the magnitudes track unit roundoffs (loose factors).
        assert!(r_sp < 1e-4, "sp residual too large: {r_sp}");
        assert!(r_hp < 0.05, "hp residual too large: {r_hp}");
    }

    #[test]
    fn packs_live_from_first_to_last_reader() {
        let n = 32;
        let a = exp_covariance(n, 4.0, 1e-3);
        let mut tm = TiledMatrix::from_dense(&a, n, 8, &PrecisionPolicy::dp_sp_hp(4));
        let tasks = TileTasks::new(&mut tm);
        let live = |i: usize, k: usize| {
            let packs = tasks.operands[tasks.idx(i, k)].packs.lock().unwrap();
            packs.iter().flatten().count()
        };
        tasks.potrf(0).unwrap();
        for i in 1..4 {
            tasks.trsm(i, 0);
        }
        // Three TRSMs in two precisions read L(0,0): two packs, both gone
        // with the third reader.
        assert_eq!(live(0, 0), 0);
        tasks.syrk(3, 0);
        tasks.gemm(3, 1, 0);
        // Read so far for a DP tile (3,3) and an HP tile (3,1): a pack each.
        assert_eq!(live(3, 0), 2);
        assert_eq!(live(1, 0), 1);
        tasks.gemm(3, 2, 0);
        assert_eq!(live(3, 0), 0, "all nt − k − 1 = 3 readers are done");
        tasks.syrk(1, 0);
        tasks.gemm(2, 1, 0);
        assert_eq!(live(1, 0), 0);
    }

    #[test]
    fn flops_accounting_sums_to_n3_over_3() {
        let (_, stats) = run(64, 16, PrecisionPolicy::dp_sp(), 8.0);
        let expect = kernels::flops::cholesky(64.0);
        let got = stats.total_flops();
        // Tile accounting matches the dense count to leading order; for
        // nt=4 the exact tile sum is n³/3 + lower-order terms.
        assert!((got - expect).abs() / expect < 0.2, "{got} vs {expect}");
    }

    #[test]
    fn mixed_precision_flops_split_by_policy() {
        let (_, stats) = run(64, 8, PrecisionPolicy::dp_hp(), 8.0);
        let [hp, sp, dp] = stats.flops_by_precision;
        assert_eq!(sp, 0.0);
        assert!(hp > 0.0 && dp > 0.0);
        // Off-diagonal GEMMs dominate: HP flops must exceed DP flops.
        assert!(hp > dp, "hp={hp} dp={dp}");
    }

    #[test]
    fn spd_failure_surfaces() {
        let n = 16;
        let mut a = exp_covariance(n, 2.0, 0.0);
        // Corrupt the matrix to be indefinite.
        a[0] = -5.0;
        let mut tm = TiledMatrix::from_dense(&a, n, 4, &PrecisionPolicy::dp());
        assert!(tile_cholesky(&mut tm).is_err());
    }

    #[test]
    fn sampling_with_factored_matrix_reproduces_covariance() {
        // End-to-end: factor Σ, generate x = L η, check sample covariance —
        // this is exactly how the emulator consumes the factor.
        use exaclim_mathkit::rng::MultivariateNormal;
        use rand::SeedableRng;
        let n = 16;
        let a = exp_covariance(n, 3.0, 1e-6);
        let mut tm = TiledMatrix::from_dense(&a, n, 4, &PrecisionPolicy::dp());
        tile_cholesky(&mut tm).unwrap();
        let l = tm.to_dense_lower();
        let mut mvn = MultivariateNormal::from_lower_factor(vec![0.0; n], &l, n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let m = 40_000;
        let mut cov = vec![0.0f64; n * n];
        for _ in 0..m {
            let x = mvn.sample(&mut rng);
            for i in 0..n {
                for j in 0..n {
                    cov[i * n + j] += x[i] * x[j];
                }
            }
        }
        for (c, truth) in cov.iter_mut().zip(&a) {
            *c /= m as f64;
            assert!((*c - truth).abs() < 0.05, "{c} vs {truth}");
        }
    }
}
