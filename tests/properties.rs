//! Property-based tests on the core substrates (proptest).

use exaclim_fft::{dft_naive, Fft};
use exaclim_linalg::f16::Half;
use exaclim_linalg::precision::{Precision, PrecisionPolicy};
use exaclim_linalg::tile::Tile;
use exaclim_mathkit::{Complex64, CubicSpline};
use exaclim_runtime::graph::{TaskGraph, TaskKind};
use exaclim_runtime::Executor;
use exaclim_sht::HarmonicCoeffs;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_roundtrip_any_length(
        n in 1usize..200,
        seed in 0u64..1000,
    ) {
        let mut v = seed;
        let data: Vec<Complex64> = (0..n).map(|_| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let re = ((v >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let im = ((v >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            Complex64::new(re, im)
        }).collect();
        let plan = Fft::new(n);
        let mut x = data.clone();
        plan.forward(&mut x);
        plan.inverse(&mut x);
        for (a, b) in x.iter().zip(&data) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_matches_naive_dft(n in 1usize..64, seed in 0u64..100) {
        let mut v = seed.wrapping_add(7);
        let data: Vec<Complex64> = (0..n).map(|_| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            Complex64::new(((v >> 40) as f64) / 1e7 - 0.8, ((v >> 20) & 0xFFFFF) as f64 / 1e6)
        }).collect();
        let mut x = data.clone();
        Fft::new(n).forward(&mut x);
        let expect = dft_naive(&data, false);
        for (a, b) in x.iter().zip(&expect) {
            prop_assert!((*a - *b).abs() < 1e-8);
        }
    }

    #[test]
    fn f16_roundtrip_is_identity_on_f16_values(bits in 0u16..=u16::MAX) {
        let h = Half(bits);
        if !h.is_nan() {
            prop_assert_eq!(Half::from_f32(h.to_f32()).0, bits);
        }
    }

    #[test]
    fn f16_conversion_error_bounded(x in -60000.0f64..60000.0) {
        let h = Half::from_f64(x).to_f64();
        if x != 0.0 && x.abs() > 6.2e-5 {
            // Normal range: relative error ≤ unit roundoff.
            prop_assert!(((h - x) / x).abs() <= Half::UNIT_ROUNDOFF * 1.0001);
        } else {
            // Subnormal range: absolute error ≤ half the smallest subnormal
            // spacing (2⁻²⁴).
            prop_assert!((h - x).abs() <= 2f64.powi(-25) * 1.0001);
        }
    }

    #[test]
    fn spline_passes_through_knots(
        ys in proptest::collection::vec(-100.0f64..100.0, 2..20),
    ) {
        let sp = CubicSpline::uniform(0.0, 1.0, &ys);
        for (i, y) in ys.iter().enumerate() {
            prop_assert!((sp.eval(i as f64) - y).abs() < 1e-9);
        }
    }

    #[test]
    fn coeff_real_packing_roundtrip(lmax in 1usize..12, seed in 0u64..50) {
        let mut v = seed;
        let mut c = HarmonicCoeffs::zeros(lmax);
        for l in 0..lmax {
            for m in 0..=l {
                v = v.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                let re = ((v >> 12) as f64 / (1u64 << 52) as f64) - 1.0;
                c.set(l, m, Complex64::new(re, if m == 0 { 0.0 } else { re * 0.3 }));
            }
        }
        let packed = c.to_real_vector();
        prop_assert_eq!(packed.len(), lmax * lmax);
        let back = HarmonicCoeffs::from_real_vector(lmax, &packed);
        prop_assert!(c.max_abs_diff(&back) < 1e-13);
        // Isometry.
        let norm2: f64 = packed.iter().map(|x| x * x).sum();
        prop_assert!((norm2 - c.total_power()).abs() < 1e-10 * norm2.max(1.0));
    }

    #[test]
    fn tile_conversion_narrowing_is_idempotent(
        vals in proptest::collection::vec(-100.0f64..100.0, 16),
        p in prop_oneof![Just(Precision::Half), Just(Precision::Single), Just(Precision::Double)],
    ) {
        let t = Tile::from_f64(4, &vals, p);
        let once = t.convert(p);
        prop_assert_eq!(t.to_f64(), once.to_f64());
        // Narrow → widen → narrow is stable.
        let wide = t.convert(Precision::Double);
        let back = wide.convert(p);
        prop_assert_eq!(t.to_f64(), back.to_f64());
    }

    #[test]
    fn precision_policy_is_symmetric_in_band_distance(
        i in 0usize..64, j in 0usize..64,
    ) {
        for policy in [
            PrecisionPolicy::dp(),
            PrecisionPolicy::dp_sp(),
            PrecisionPolicy::dp_sp_hp(64),
            PrecisionPolicy::dp_hp(),
        ] {
            prop_assert_eq!(policy.assign(i, j, 1.0), policy.assign(j, i, 1.0));
        }
    }

    #[test]
    fn legendre_addition_theorem_random_theta(theta in 0.05f64..3.09) {
        // Σ_m |Y_{ℓm}(θ,φ)|² = (2ℓ+1)/4π for every ℓ, θ.
        use exaclim_sphere::legendre::{LegendreTable, idx};
        let lmax = 12;
        let t = LegendreTable::new(lmax);
        let v = t.eval(theta);
        for l in 0..=lmax {
            let mut s = v[idx(l, 0)] * v[idx(l, 0)];
            for m in 1..=l {
                s += 2.0 * v[idx(l, m)] * v[idx(l, m)];
            }
            let expect = (2.0 * l as f64 + 1.0) / (4.0 * std::f64::consts::PI);
            prop_assert!((s - expect).abs() < 1e-10, "l={l}: {s} vs {expect}");
        }
    }

    #[test]
    fn wigner_rows_orthonormal_random_degree(l in 1usize..24) {
        use exaclim_sphere::wigner::WignerPiHalf;
        let w = WignerPiHalf::new(l);
        let li = l as i64;
        for m in [-li, 0, li / 2, li] {
            let mut norm = 0.0;
            for mp in -li..=li {
                norm += w.get(l, mp, m) * w.get(l, mp, m);
            }
            prop_assert!((norm - 1.0).abs() < 1e-10, "l={l} m={m}: {norm}");
        }
    }

    #[test]
    fn sht_roundtrip_random_bandlimit(lmax in 2usize..14, seed in 0u64..30) {
        use exaclim_sht::ShtPlan;
        let plan = ShtPlan::equiangular(lmax, lmax + 2, 2 * lmax + 2);
        let mut v = seed.wrapping_add(3);
        let mut c = HarmonicCoeffs::zeros(lmax);
        for l in 0..lmax {
            for m in 0..=l {
                v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let re = ((v >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                c.set(l, m, Complex64::new(re, if m == 0 { 0.0 } else { -re }));
            }
        }
        let field = plan.synthesis(&c);
        let back = plan.analysis(&field);
        prop_assert!(c.max_abs_diff(&back) < 1e-9);
    }

    #[test]
    fn distsim_sender_never_exceeds_receiver_traffic(
        nt in 2usize..24,
        p in 1usize..5,
        q in 1usize..5,
    ) {
        use exaclim_cluster::distsim::{ConversionSide, DistConfig, simulate_distribution};
        for policy in [
            PrecisionPolicy::dp(),
            PrecisionPolicy::dp_sp(),
            PrecisionPolicy::dp_hp(),
        ] {
            let send = simulate_distribution(
                nt, 32, &policy, &DistConfig { p, q, conversion: ConversionSide::Sender });
            let recv = simulate_distribution(
                nt, 32, &policy, &DistConfig { p, q, conversion: ConversionSide::Receiver });
            prop_assert!(send.bytes <= recv.bytes + 1e-9,
                "policy {} nt={nt} grid {p}x{q}", policy.label());
        }
    }

    #[test]
    fn executor_runs_random_dags_exactly_once(
        n_tasks in 1usize..60,
        edge_seed in 0u64..500,
        workers in 1usize..5,
    ) {
        // Random DAG: each task depends on a pseudo-random subset of
        // earlier tasks.
        let mut g = TaskGraph::new();
        let mut v = edge_seed;
        for i in 0..n_tasks {
            let mut deps = Vec::new();
            for d in 0..i {
                v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if v % 7 == 0 {
                    deps.push(d);
                }
            }
            g.add(TaskKind::Generic(i as u64), (v % 100) as i64, &deps);
        }
        prop_assert!(g.validate());
        let ran = std::sync::Mutex::new(vec![false; n_tasks]);
        let order = std::sync::Mutex::new(Vec::new());
        Executor::new(workers)
            .run(&g, |id, _| {
                let mut r = ran.lock().unwrap();
                if r[id] {
                    return Err("ran twice".into());
                }
                r[id] = true;
                order.lock().unwrap().push(id);
                Ok(())
            })
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert!(ran.lock().unwrap().iter().all(|&b| b));
        // Topological order respected.
        let order = order.lock().unwrap();
        let pos: std::collections::HashMap<usize, usize> =
            order.iter().enumerate().map(|(k, &t)| (t, k)).collect();
        for (id, node) in g.nodes().iter().enumerate() {
            for &s in &node.successors {
                prop_assert!(pos[&id] < pos[&s], "dependence violated");
            }
        }
    }
}
