//! Tiled symmetric matrices with per-tile precision.
//!
//! The covariance matrix `U ∈ R^{L²×L²}` of the emulator is symmetric
//! positive definite; only its lower triangle of tiles is stored. Each tile
//! carries its own storage precision, assigned by a [`PrecisionPolicy`] —
//! strong correlations live near the diagonal, so band-based demotion
//! matches the data's covariance strength exactly as in the paper (§III.D).

use crate::precision::{Precision, PrecisionPolicy};
use crate::tile::Tile;

/// A symmetric `n × n` matrix stored as `nt × nt` lower-triangle tiles of
/// side `b` (`n = nt · b`).
#[derive(Debug, Clone)]
pub struct TiledMatrix {
    n: usize,
    b: usize,
    nt: usize,
    /// Lower triangle, packed row-major: tile `(i, j)` with `j ≤ i` lives at
    /// `i(i+1)/2 + j`.
    tiles: Vec<Tile>,
}

impl TiledMatrix {
    /// Split a dense symmetric matrix (row-major, length `n²`) into tiles
    /// with precisions assigned by `policy`. `n` must be divisible by `b`.
    pub fn from_dense(dense: &[f64], n: usize, b: usize, policy: &PrecisionPolicy) -> Self {
        assert_eq!(dense.len(), n * n, "dense payload must be n²");
        assert!(
            b >= 1 && n.is_multiple_of(b),
            "tile size must divide n (n={n}, b={b})"
        );
        let nt = n / b;
        // Only the adaptive policy looks at tile norms; the others skip the
        // extra pass over `dense`.
        let rel_norms = matches!(policy, PrecisionPolicy::Adaptive { .. })
            .then(|| relative_tile_norms(dense, n, b));
        let mut tiles = Vec::with_capacity(nt * (nt + 1) / 2);
        for i in 0..nt {
            for j in 0..=i {
                let rel = rel_norms.as_ref().map_or(1.0, |r| r[tiles.len()]);
                let rows = (0..b).map(|r| &dense[(i * b + r) * n + j * b..][..b]);
                tiles.push(Tile::from_rows(b, rows, policy.assign(i, j, rel)));
            }
        }
        Self { n, b, nt, tiles }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Tile side.
    pub fn b(&self) -> usize {
        self.b
    }

    /// Tiles per dimension.
    pub fn nt(&self) -> usize {
        self.nt
    }

    #[inline]
    fn tidx(&self, i: usize, j: usize) -> usize {
        debug_assert!(j <= i && i < self.nt);
        i * (i + 1) / 2 + j
    }

    /// Borrow tile `(i, j)` of the lower triangle.
    pub fn tile(&self, i: usize, j: usize) -> &Tile {
        &self.tiles[self.tidx(i, j)]
    }

    /// All tiles, packed as described on the struct.
    pub(crate) fn tiles_mut(&mut self) -> &mut [Tile] {
        &mut self.tiles
    }

    /// Reassemble only the lower triangle (upper zero) — the factor `L`
    /// after a Cholesky.
    pub fn to_dense_lower(&self) -> Vec<f64> {
        let n = self.n;
        let b = self.b;
        let mut out = vec![0.0f64; n * n];
        for i in 0..self.nt {
            for j in 0..=i {
                let t = self.tile(i, j);
                for r in 0..b {
                    let at = (i * b + r) * n + j * b;
                    let len = if i == j { r + 1 } else { b };
                    t.widen_row(r, &mut out[at..at + len]);
                }
            }
        }
        out
    }

    /// Total payload bytes across all tiles (the memory the paper's
    /// mixed-precision variants shrink).
    pub fn payload_bytes(&self) -> usize {
        self.tiles.iter().map(Tile::bytes).sum()
    }

    /// The lowest precision any tile is stored at.
    pub fn lowest_precision(&self) -> Precision {
        self.tiles
            .iter()
            .map(Tile::precision)
            .min()
            .unwrap_or(Precision::Double)
    }

    /// Tiles per precision: `[half, single, double]`.
    pub fn precision_census(&self) -> [usize; 3] {
        let mut c = [0usize; 3];
        for t in &self.tiles {
            match t.precision() {
                Precision::Half => c[0] += 1,
                Precision::Single => c[1] += 1,
                Precision::Double => c[2] += 1,
            }
        }
        c
    }
}

/// Frobenius norm of every lower-triangle tile (packed like
/// [`TiledMatrix`]'s tiles) relative to the largest.
fn relative_tile_norms(dense: &[f64], n: usize, b: usize) -> Vec<f64> {
    let nt = n / b;
    let mut norms = Vec::with_capacity(nt * (nt + 1) / 2);
    for i in 0..nt {
        for j in 0..=i {
            let mut s = 0.0;
            for r in 0..b {
                for v in &dense[(i * b + r) * n + j * b..][..b] {
                    s += v * v;
                }
            }
            norms.push(s.sqrt());
        }
    }
    let max_norm = norms.iter().fold(f64::MIN_POSITIVE, |m, &x| m.max(x));
    for x in &mut norms {
        *x /= max_norm;
    }
    norms
}

/// Build the dense exponential covariance matrix
/// `A[i][j] = exp(−|i−j|/ρ) + nugget·δ_{ij}` — SPD, with correlation
/// strength decaying away from the diagonal exactly like the spatial
/// covariances the paper's band policies exploit.
pub fn exp_covariance(n: usize, rho: f64, nugget: f64) -> Vec<f64> {
    assert!(n >= 1 && rho > 0.0);
    let mut a = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            let d = i.abs_diff(j) as f64;
            a[i * n + j] = (-d / rho).exp() + if i == j { nugget } else { 0.0 };
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_roundtrip() {
        let n = 12;
        let a = exp_covariance(n, 3.0, 0.01);
        let tm = TiledMatrix::from_dense(&a, n, 4, &PrecisionPolicy::dp());
        assert_eq!(tm.nt(), 3);
        let back = tm.to_dense_lower();
        for r in 0..n {
            for c in 0..=r {
                assert_eq!(a[r * n + c], back[r * n + c], "DP tiling must be lossless");
            }
        }
    }

    #[test]
    fn dense_views_equal_elementwise_access_in_every_precision() {
        let (n, b) = (15, 5);
        let a = exp_covariance(n, 3.0, 0.01);
        let policy = PrecisionPolicy::Band {
            dp_band: 1,
            sp_band: 1,
        };
        let mut tm = TiledMatrix::from_dense(&a, n, b, &policy);
        assert_eq!(tm.precision_census(), [1, 2, 3]);
        // Factoring zeroes the upper half of the diagonal tiles, so the
        // second pass also shows `to_dense_lower` leaves the upper zero.
        for pass in 0..2 {
            let lower = tm.to_dense_lower();
            for gr in 0..n {
                for gc in 0..=gr {
                    let v = tm.tile(gr / b, gc / b).get(gr % b, gc % b);
                    assert_eq!(lower[gr * n + gc].to_bits(), v.to_bits(), "pass {pass}");
                    if gc < gr {
                        assert_eq!(lower[gc * n + gr], 0.0, "pass {pass}");
                    }
                }
            }
            crate::cholesky::tile_cholesky(&mut tm).unwrap();
        }
    }

    #[test]
    fn band_policy_assigns_expected_precisions() {
        let n = 16;
        let a = exp_covariance(n, 2.0, 0.0);
        let tm = TiledMatrix::from_dense(&a, n, 4, &PrecisionPolicy::dp_hp());
        for i in 0..4 {
            for j in 0..=i {
                let expect = if i == j {
                    Precision::Double
                } else {
                    Precision::Half
                };
                assert_eq!(tm.tile(i, j).precision(), expect, "({i},{j})");
            }
        }
        let [hp, sp, dp] = tm.precision_census();
        assert_eq!((hp, sp, dp), (6, 0, 4));
    }

    #[test]
    fn adaptive_policy_demotes_weak_tiles() {
        let n = 32;
        // Fast decay: far tiles are numerically tiny.
        let a = exp_covariance(n, 0.5, 0.0);
        let policy = PrecisionPolicy::Adaptive {
            dp_threshold: 0.5,
            sp_threshold: 1e-3,
        };
        let tm = TiledMatrix::from_dense(&a, n, 8, &policy);
        assert_eq!(tm.tile(0, 0).precision(), Precision::Double);
        assert_eq!(
            tm.tile(3, 0).precision(),
            Precision::Half,
            "far corner is weak"
        );
    }

    #[test]
    fn payload_bytes_shrink_with_demotion() {
        let n = 32;
        let a = exp_covariance(n, 4.0, 0.0);
        let dp = TiledMatrix::from_dense(&a, n, 8, &PrecisionPolicy::dp());
        let hp = TiledMatrix::from_dense(&a, n, 8, &PrecisionPolicy::dp_hp());
        assert!(hp.payload_bytes() < dp.payload_bytes());
        // 4 diagonal DP tiles + 6 HP tiles vs 10 DP tiles.
        assert_eq!(dp.payload_bytes(), 10 * 64 * 8);
        assert_eq!(hp.payload_bytes(), 4 * 64 * 8 + 6 * 64 * 2);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn rejects_nondividing_tile_size() {
        let a = exp_covariance(10, 1.0, 0.0);
        let _ = TiledMatrix::from_dense(&a, 10, 4, &PrecisionPolicy::dp());
    }

    #[test]
    fn exp_covariance_is_symmetric_with_unit_diag() {
        let n = 9;
        let a = exp_covariance(n, 2.5, 0.0);
        for i in 0..n {
            assert_eq!(a[i * n + i], 1.0);
            for j in 0..n {
                assert_eq!(a[i * n + j], a[j * n + i]);
            }
        }
    }
}
