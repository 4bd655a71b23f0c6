//! The spectral check: an emulation must carry the training data's power
//! at every spherical-harmonic degree, for every precision policy.
//!
//! Both sides are standardized residuals `(y − m)/σ` of the training
//! period, transformed with `analysis_batch`; `Ĉ_ℓ` is the time mean of
//! each slice's `power_spectrum()[ℓ]`.
//!
//! **The tolerance comes from the estimator alone.** `Ĉ_ℓ` averages an
//! autocorrelated series, so its sampling error is estimated by batch
//! means: `B = 10` consecutive batches of `T/B = 73` steps, whose means are
//! nearly independent because the series decorrelate within a few steps
//! (the generator's AR coefficient is 0.75: an e-folding time of 3.5
//! steps), giving `se = sd(batch means)/√B` for each side. The emulation is
//! independent of the training noise, so the difference
//! `D_ℓ = Ĉ_ℓ^emu − b_ℓ − Ĉ_ℓ^train` has `se_D = √(se_emu² + se_train²)`,
//! where `b_ℓ = Σ_p v²_p C_ℓ(analysis(e_p))` is the exact expected power the
//! emulator's spatially white nugget `ε ~ N(0, v²_p)` adds below the
//! band-limit. `t_ℓ = D_ℓ / se_D` is then close to Student's t with about
//! `2(B − 1) = 18` degrees of freedom (Welch), and `P(|t₁₈| > 5) ≈ 9·10⁻⁵`:
//! over the 8 degrees of one policy a correct emulator fails with
//! probability ≈ 0.07 %. So each policy must keep `|t_ℓ| ≤ 5` at every
//! degree — and, so that the bound is not vacuous, an emulation whose
//! residuals are scaled by 1.25 (power × 1.56) must break it somewhere.

use exaclim::{ClimateEmulator, EmulatorConfig};
use exaclim_climate::{Dataset, SyntheticEra5, SyntheticEra5Config};
use exaclim_linalg::precision::PrecisionPolicy;
use exaclim_sht::{analysis_batch, HarmonicCoeffs, ShtPlan};
use exaclim_stats::trend::{fit_grid, MeanBasis, TrendConfig};
use exaclim_stats::ForcingSeries;

const LMAX: usize = 8;
const T_MAX: usize = 730;
const BATCHES: usize = 10;
const T_BOUND: f64 = 5.0;

/// Per-slice power spectra of `t` standardized fields.
fn spectra(plan: &ShtPlan, fields: &[f64], t: usize) -> Vec<Vec<f64>> {
    analysis_batch(plan, fields, t)
        .iter()
        .map(HarmonicCoeffs::power_spectrum)
        .collect()
}

/// Time mean of degree `l`'s power and its batch-means standard error.
fn mean_and_se(spectra: &[Vec<f64>], l: usize) -> (f64, f64) {
    let per = spectra.len() / BATCHES;
    let batch: Vec<f64> = spectra
        .chunks_exact(per)
        .map(|b| b.iter().map(|s| s[l]).sum::<f64>() / per as f64)
        .collect();
    let mean = spectra.iter().map(|s| s[l]).sum::<f64>() / spectra.len() as f64;
    let bm = batch.iter().sum::<f64>() / BATCHES as f64;
    let var = batch.iter().map(|x| (x - bm) * (x - bm)).sum::<f64>() / (BATCHES - 1) as f64;
    (mean, (var / BATCHES as f64).sqrt())
}

/// `t_ℓ` of every degree for emulated residuals scaled by `gain`.
fn t_statistics(
    plan: &ShtPlan,
    train: &[Vec<f64>],
    emulated: &[f64],
    nugget: &[f64],
    gain: f64,
) -> Vec<f64> {
    let scaled: Vec<f64> = emulated.iter().map(|z| z * gain).collect();
    let emu = spectra(plan, &scaled, T_MAX);
    (0..LMAX)
        .map(|l| {
            let (ct, st) = mean_and_se(train, l);
            let (ce, se) = mean_and_se(&emu, l);
            (ce - gain * gain * nugget[l] - ct) / (st * st + se * se).sqrt()
        })
        .collect()
}

#[test]
fn emulated_power_spectra_match_training_for_every_policy() {
    let data: Dataset =
        SyntheticEra5::new(SyntheticEra5Config::small_daily(LMAX)).generate_member(0, T_MAX);
    let np = data.npoints;
    let plan = ShtPlan::equiangular(LMAX, data.ntheta, data.nphi);

    // The training side: the trend stage exactly as `train` runs it.
    let cfg = EmulatorConfig::small(LMAX);
    let years = (T_MAX / data.tau + 2) as i64;
    let forcing = ForcingSeries::historical_like(data.start_year, data.start_year + years, 30);
    let trend_cfg = TrendConfig {
        k_harmonics: cfg.k_harmonics,
        tau: data.tau,
        rho_grid: cfg.rho_grid.clone(),
        start_year: data.start_year,
    };
    let fit = fit_grid(&data.data, T_MAX, np, &trend_cfg, &forcing);
    let train = spectra(&plan, &fit.residuals, T_MAX);
    // The training means, a time row at a time.
    let basis = MeanBasis::new(
        &trend_cfg,
        &forcing,
        T_MAX,
        fit.models.iter().map(|m| m.rho),
    );
    let means = basis.rows(&fit.models);
    let mut mean = vec![0.0; np];

    for (name, policy) in [
        ("DP", PrecisionPolicy::dp()),
        ("DP/SP", PrecisionPolicy::dp_sp()),
        ("DP/HP", PrecisionPolicy::dp_hp()),
    ] {
        let mut cfg = EmulatorConfig::small(LMAX);
        cfg.precision = policy;
        let em = ClimateEmulator::train(&data, cfg).expect("R(T−P) = 728 > L² = 64 factors");
        let out = em.emulate(T_MAX, 20_261_017).expect("emulates");
        let mut emulated = Vec::with_capacity(out.data.len());
        for (t, row) in out.data.chunks_exact(np).enumerate() {
            means.row_into(t, &mut mean);
            emulated.extend(
                row.iter()
                    .zip(&mean)
                    .zip(&em.trend)
                    .map(|((y, m), model)| (y - m) / model.sigma),
            );
        }
        // b_ℓ: the nugget's expected power, one unit field per location.
        let mut units = vec![0.0; np * np];
        for p in 0..np {
            units[p * np + p] = em.v2[p].sqrt();
        }
        let unit_spectra = spectra(&plan, &units, np);
        let nugget: Vec<f64> = (0..LMAX)
            .map(|l| unit_spectra.iter().map(|s| s[l]).sum())
            .collect();

        let t = t_statistics(&plan, &train, &emulated, &nugget, 1.0);
        for (l, t_l) in t.iter().enumerate() {
            assert!(
                t_l.abs() <= T_BOUND,
                "{name}: degree {l} power differs by t = {t_l:.2} (all: {t:.2?})"
            );
        }
        let off = t_statistics(&plan, &train, &emulated, &nugget, 1.25);
        assert!(
            off.iter().any(|t_l| t_l.abs() > T_BOUND),
            "{name}: a 1.25× emulation passes too ({off:.2?}); the bound has no power"
        );
    }
}
