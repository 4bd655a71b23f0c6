//! The emulator-design cost model of Figure 1.
//!
//! Figure 1 plots the computational cost of fitting an emulator against its
//! spatial resolution, for two model classes: axially symmetric
//! (`O(L³T + L⁴)`) and longitudinally anisotropic (`O(L⁴T + L⁶)`), and
//! places existing emulators and this work on it. This module provides the
//! cost functions, the resolution↔band-limit mapping, the catalog of
//! literature emulators shown in the figure, and the headline resolution
//! factor (245,280×).

/// Mean Earth radius, km.
pub const EARTH_RADIUS_KM: f64 = 6371.0;

/// Emulator model class, by spatial-covariance assumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmulatorClass {
    /// Stationary in longitude (diagonal/sparse covariance).
    AxiallySymmetric,
    /// Longitude-dependent covariance — this paper's class.
    Anisotropic,
}

/// The Figure 1 cost model.
#[derive(Debug, Clone, Copy)]
pub struct CostModel;

impl CostModel {
    /// Design (training) cost in flops for band-limit `l` and `t` temporal
    /// points.
    pub fn design_flops(class: EmulatorClass, l: f64, t: f64) -> f64 {
        match class {
            EmulatorClass::AxiallySymmetric => l.powi(3) * t + l.powi(4),
            EmulatorClass::Anisotropic => l.powi(4) * t + l.powi(6),
        }
    }

    /// Equatorial grid spacing (km) of band-limit `l`: half-wavelength of
    /// the highest resolved degree, `π R / L`.
    pub fn resolution_km(l: f64) -> f64 {
        std::f64::consts::PI * EARTH_RADIUS_KM / l
    }

    /// Band-limit resolving a given equatorial grid spacing.
    pub fn bandlimit_for_km(km: f64) -> f64 {
        std::f64::consts::PI * EARTH_RADIUS_KM / km
    }

    /// Grid spacing in degrees at the equator for band-limit `l`.
    pub fn resolution_degrees(l: f64) -> f64 {
        180.0 / l
    }
}

/// One emulator from the literature review of Figure 1.
#[derive(Debug, Clone)]
pub struct LiteratureEmulator {
    /// Citation tag.
    pub reference: &'static str,
    /// Model class.
    pub class: EmulatorClass,
    /// Spatial resolution, km.
    pub resolution_km: f64,
    /// Temporal points per year of training data.
    pub temporal_per_year: f64,
}

/// The emulators reviewed in Figure 1 (resolution/temporal scales from the
/// paper's §II.A narrative: axially symmetric designs reached 100 km daily;
/// anisotropic designs stayed at ~100–500 km annual).
pub fn literature_catalog() -> Vec<LiteratureEmulator> {
    vec![
        LiteratureEmulator {
            reference: "Castruccio & Stein 2013 [16]",
            class: EmulatorClass::AxiallySymmetric,
            resolution_km: 250.0,
            temporal_per_year: 1.0,
        },
        LiteratureEmulator {
            reference: "Castruccio et al. 2014 [17]",
            class: EmulatorClass::Anisotropic,
            resolution_km: 500.0,
            temporal_per_year: 1.0,
        },
        LiteratureEmulator {
            reference: "Holden et al. 2015 [18]",
            class: EmulatorClass::Anisotropic,
            resolution_km: 500.0,
            temporal_per_year: 1.0,
        },
        LiteratureEmulator {
            reference: "Link et al. 2019 [19]",
            class: EmulatorClass::Anisotropic,
            resolution_km: 250.0,
            temporal_per_year: 1.0,
        },
        LiteratureEmulator {
            reference: "Jeong et al. 2019 [21]",
            class: EmulatorClass::AxiallySymmetric,
            resolution_km: 200.0,
            temporal_per_year: 12.0,
        },
        LiteratureEmulator {
            reference: "Huang et al. 2023 [22]",
            class: EmulatorClass::AxiallySymmetric,
            resolution_km: 100.0,
            temporal_per_year: 365.0,
        },
        LiteratureEmulator {
            reference: "Song et al. 2024 [23]",
            class: EmulatorClass::AxiallySymmetric,
            resolution_km: 100.0,
            temporal_per_year: 365.0,
        },
    ]
}

/// This work's configurations (green stars in Figure 1): the ERA5 native
/// band-limit and the three up-sampled ones, hourly.
pub fn this_work_bandlimits() -> [usize; 4] {
    [720, 1440, 2880, 5219]
}

/// The headline spatio-temporal resolution factor over prior emulators:
/// 28× spatial and 8,760× temporal = 245,280×.
pub fn headline_resolution_factor() -> (f64, f64, f64) {
    // Best prior: 100 km annual (anisotropic class); this work: 3.5 km
    // hourly. Spatial 100/3.5 ≈ 28.6 → paper rounds to 28; temporal:
    // hourly vs annual = 8,760.
    let spatial = 28.0;
    let temporal = 8760.0;
    (spatial, temporal, spatial * temporal)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_mapping_matches_quarter_degree() {
        // L = 720 ↔ 0.25° ↔ ~27.8 km at the equator.
        assert!((CostModel::resolution_degrees(720.0) - 0.25).abs() < 1e-12);
        let km = CostModel::resolution_km(720.0);
        assert!((km - 27.8).abs() < 0.3, "{km}");
        // L = 5219 ↔ ~0.0345° ↔ ~3.8 km (paper: 0.034°, ~3.5 km).
        let deg = CostModel::resolution_degrees(5219.0);
        assert!((deg - 0.0345).abs() < 0.001, "{deg}");
        assert!(CostModel::resolution_km(5219.0) < 4.0);
        // Round trip.
        let l = CostModel::bandlimit_for_km(CostModel::resolution_km(1440.0));
        assert!((l - 1440.0).abs() < 1e-9);
    }

    #[test]
    fn anisotropic_costs_dominate() {
        for &(l, t) in &[(100.0, 365.0), (720.0, 8760.0), (5219.0, 306600.0)] {
            let ax = CostModel::design_flops(EmulatorClass::AxiallySymmetric, l, t);
            let an = CostModel::design_flops(EmulatorClass::Anisotropic, l, t);
            assert!(an > ax * 10.0, "L={l} T={t}: {an:.2e} vs {ax:.2e}");
        }
    }

    #[test]
    fn this_work_cost_is_exascale() {
        // At L = 5219 the dominant L⁶ term alone is ~2×10²² flops —
        // minutes at EFlop/s rates, unreachable for desktop emulators.
        let fl = CostModel::design_flops(EmulatorClass::Anisotropic, 5219.0, 306_600.0);
        assert!(fl > 1e22, "{fl:.3e}");
        let seconds_at_exaflop = fl / 1e18;
        assert!(
            seconds_at_exaflop < 86_400.0,
            "feasible within a day at EF/s"
        );
    }

    #[test]
    fn headline_factor_is_245280() {
        let (s, t, total) = headline_resolution_factor();
        assert_eq!(total, 245_280.0);
        assert_eq!(s, 28.0);
        assert_eq!(t, 8760.0);
    }

    #[test]
    fn catalog_respects_figure_1_frontiers() {
        for e in literature_catalog() {
            match e.class {
                EmulatorClass::AxiallySymmetric => {
                    assert!(e.resolution_km >= 100.0, "{}", e.reference);
                    assert!(e.temporal_per_year <= 365.0, "{}", e.reference);
                }
                EmulatorClass::Anisotropic => {
                    assert!(e.resolution_km >= 100.0, "{}", e.reference);
                    assert!(
                        e.temporal_per_year <= 1.0,
                        "{}: anisotropic stayed annual",
                        e.reference
                    );
                }
            }
        }
        // This work beats every catalog entry in both dimensions.
        let ours_km = CostModel::resolution_km(5219.0);
        assert!(literature_catalog()
            .iter()
            .all(|e| e.resolution_km > ours_km));
    }
}
