//! The latitude–longitude sampling of the sphere the paper uses: the
//! **equiangular** grid of ERA5 — `Nθ` co-latitudes `θ_i = iπ/(Nθ−1)`
//! *including both poles* and `Nϕ` equally spaced longitudes (0.25° ⇒
//! 721 × 1440, band-limit `L = 720`).
//!
//! Fields are stored row-major: index `i * nphi + j` for co-latitude ring
//! `i` and longitude `j`.

/// ERA5-style equiangular grid including both poles.
#[derive(Debug, Clone)]
pub struct EquiangularGrid {
    ntheta: usize,
    nphi: usize,
}

impl EquiangularGrid {
    /// Build a grid with `ntheta >= 2` rings (poles included) and
    /// `nphi >= 1` longitudes.
    pub fn new(ntheta: usize, nphi: usize) -> Self {
        assert!(ntheta >= 2, "equiangular grid needs both poles");
        assert!(nphi >= 1);
        Self { ntheta, nphi }
    }

    /// Number of co-latitude rings.
    pub fn ntheta(&self) -> usize {
        self.ntheta
    }

    /// Number of longitude points.
    pub fn nphi(&self) -> usize {
        self.nphi
    }

    /// Total number of grid points.
    pub fn len(&self) -> usize {
        self.ntheta * self.nphi
    }

    /// True iff the grid has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Co-latitude of ring `i`, in `[0, π]`.
    pub fn theta(&self, i: usize) -> f64 {
        std::f64::consts::PI * i as f64 / (self.ntheta - 1) as f64
    }

    /// Longitude of column `j`, in `[0, 2π)`.
    pub fn phi(&self, j: usize) -> f64 {
        2.0 * std::f64::consts::PI * j as f64 / self.nphi as f64
    }

    /// Quadrature weight of ring `i` such that
    /// `Σ_i w_i f(θ_i) ≈ ∫₀^π f(θ) sinθ dθ` for smooth `f`, exact for `f` a
    /// trigonometric polynomial of degree < `ntheta` (Clenshaw–Curtis-type
    /// rule derived from the exact moments `I(q)` of eq. 8 restricted to
    /// real even part). Computed on each call (`Nθ/2 + 1` cosines): the
    /// transforms do not use ring quadrature.
    pub fn ring_weight(&self, i: usize) -> f64 {
        assert!(i < self.ntheta, "ring {i} out of range");
        let n = self.ntheta - 1; // number of intervals
        let theta = self.theta(i);
        // Express f by its cosine series on θ ∈ [0, π]:
        // ∫ cos(kθ) sinθ dθ = 2/(1-k²) for even k, 0 for odd k (k ≠ 1), 0 at k=1.
        // Discrete cosine quadrature: w_i = (2/n) Σ_k'' c_k cos(kθ_i) m_k, with
        // trapezoid end-point halving.
        let mut acc = 0.0;
        for k in (0..=n).step_by(2) {
            let mk = 2.0 / (1.0 - (k * k) as f64); // moment of cos(kθ)
            let ck = if k == 0 || k == n { 0.5 } else { 1.0 };
            acc += ck * mk * (k as f64 * theta).cos();
        }
        let endpoint = if i == 0 || i == n { 0.5 } else { 1.0 };
        acc * 2.0 / n as f64 * endpoint
    }

    /// Maximum band-limit `L` for which the forward transform on this grid
    /// is exact for band-limited inputs. Paper §III.A.1: exact recovery
    /// requires `Nθ > L` and `Nϕ ≥ 2L − 1`.
    pub fn max_bandlimit(&self) -> usize {
        (self.ntheta - 1).min(self.nphi.div_ceil(2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equiangular_theta_includes_poles() {
        let g = EquiangularGrid::new(9, 16);
        assert_eq!(g.theta(0), 0.0);
        assert!((g.theta(8) - std::f64::consts::PI).abs() < 1e-15);
        assert!((g.theta(4) - std::f64::consts::PI / 2.0).abs() < 1e-15);
    }

    #[test]
    fn equiangular_weights_integrate_sin() {
        // Σ w_i must equal ∫ sinθ dθ = 2 (take f = 1).
        for ntheta in [5usize, 9, 33, 721] {
            let g = EquiangularGrid::new(ntheta, 8);
            let s: f64 = (0..ntheta).map(|i| g.ring_weight(i)).sum();
            assert!((s - 2.0).abs() < 1e-10, "ntheta={ntheta}: {s}");
        }
    }

    #[test]
    fn equiangular_weights_exact_for_cosines() {
        // ∫ cos(kθ) sinθ dθ = 2/(1−k²) (even k), 0 (odd k).
        let ntheta = 17;
        let g = EquiangularGrid::new(ntheta, 8);
        for k in 0..ntheta - 1 {
            let got: f64 = (0..ntheta)
                .map(|i| g.ring_weight(i) * (k as f64 * g.theta(i)).cos())
                .sum();
            let expect = if k % 2 == 0 {
                2.0 / (1.0 - (k * k) as f64)
            } else {
                0.0
            };
            assert!((got - expect).abs() < 1e-10, "k={k}: {got} vs {expect}");
        }
    }

    #[test]
    fn equiangular_weights_integrate_legendre() {
        // ∫ P_ℓ(cosθ) sinθ dθ = 0 for ℓ >= 1.
        let g = EquiangularGrid::new(33, 8);
        for l in 1..20usize {
            let got: f64 = (0..33)
                .map(|i| {
                    let x = g.theta(i).cos();
                    g.ring_weight(i) * legendre_p(l, x)
                })
                .sum();
            assert!(got.abs() < 1e-9, "l={l}: {got}");
        }
    }

    fn legendre_p(l: usize, x: f64) -> f64 {
        let mut p0 = 1.0;
        if l == 0 {
            return p0;
        }
        let mut p1 = x;
        for k in 2..=l {
            let kf = k as f64;
            let p2 = ((2.0 * kf - 1.0) * x * p1 - (kf - 1.0) * p0) / kf;
            p0 = p1;
            p1 = p2;
        }
        p1
    }

    #[test]
    fn era5_layout() {
        // ERA5's 0.25° layout.
        let g = EquiangularGrid::new(721, 1440);
        assert_eq!(g.len(), 721 * 1440);
        assert_eq!(g.max_bandlimit(), 720);
    }

    #[test]
    fn point_weights_cover_sphere() {
        // Σ_{ij} ring_weight(i)·2π/Nϕ = Σ_i ring_weight(i)·2π = 4π, with
        // the poles and without a ring at the equator.
        let (twopi, fourpi) = (2.0 * std::f64::consts::PI, 4.0 * std::f64::consts::PI);
        for (ntheta, nphi) in [(19usize, 36usize), (24, 47)] {
            let g = EquiangularGrid::new(ntheta, nphi);
            let s: f64 = (0..g.ntheta()).map(|i| g.ring_weight(i) * twopi).sum();
            assert!((s - fourpi).abs() < 1e-9, "{ntheta}x{nphi}: {s}");
        }
    }
}
