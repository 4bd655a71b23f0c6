//! The scenario engine: derived climate products evaluated server-side.
//!
//! This is the paper's "emulator as a data service" endpoint: instead of
//! shipping raw bytes for the client to post-process, the server
//! evaluates a declarative [`ProductDescriptor`] next to its caches —
//! ensembles of emulator realizations, anomalies against stored
//! baselines, trend/persistence fits and Tukey tail extremes — and ships
//! only the (usually far smaller) result.
//!
//! The evaluation pipeline for one [`crate::server::Request::Product`]:
//!
//! 1. **Validate & shape** — the descriptor
//!    is resolved against the catalog and every stat precondition is
//!    checked *before* touching the product cache, so invalid requests
//!    fail fast with a [`ServeError`] and never occupy a flight.
//! 2. **Product cache** — the descriptor's key, its derived hash
//!    ([`ProductDescriptor::key`]), is looked up in the server's
//!    [`crate::cache::ProductCache`], which reuses the chunk cache's
//!    single-flight reservation machinery: a stampede on one popular
//!    product elects exactly one leader to compute it while every racer
//!    parks on the flight. Hits rebuild the response from the cached flat
//!    values — the geometry is a deterministic function of the
//!    descriptor.
//! 3. **Source** — member sources resolve their overlapping chunks
//!    through the chunk cache (hits, single-flight, LRU all apply);
//!    ensemble sources fan `realizations` emulator runs over the
//!    [`exaclim_runtime::pool`] worker pool, each seeded by
//!    [`realization_seed`] from `(seed, k)` — never from scheduling
//!    order — so the ensemble is bit-identical at any thread count.
//! 4. **Statistic** — the per-location kernels run location-parallel
//!    over the pool; locations are independent, so the parallel result
//!    is bit-identical to the sequential one.

use crate::cache::{ChunkKey, Fetch};
use crate::error::ServeError;
use crate::product::{ProductData, ProductDescriptor, ProductSource, ProductStat, ScenarioSpec};
use crate::server::{Response, Server};
use exaclim_stats::forcing::ForcingSeries;
use exaclim_stats::trend::{TrendConfig, TrendPlan};
use exaclim_stats::tukey::{fit_tukey_gh, inverse_normal_cdf};
use exaclim_stats::var::fit_diagonal_var_multi;
use exaclim_store::MemberKind;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Most realizations one ensemble request may ask for.
pub const MAX_REALIZATIONS: u32 = 512;

/// Cap on the working set and the output size of one product, and on the
/// dataset of one emulation (an `Emulate` request, or one realization of
/// an ensemble), in `f64` values (1 GiB of floats). Requests above it are
/// rejected as [`ServeError::BadRequest`] instead of exhausting server
/// memory.
pub const MAX_PRODUCT_VALUES: u64 = 1 << 27;

/// Highest AR order [`ProductStat::Persistence`] accepts.
pub const MAX_PERSISTENCE_ORDER: u32 = 8;

/// The trend-product regression: 2 harmonic pairs and a 3-point `ρ`
/// grid — 7 columns, so a fit needs at least 8 time steps. Fixed by the
/// protocol (not configurable per request) so one descriptor always
/// denotes one product.
fn trend_config(tau: usize, start_year: i64) -> TrendConfig {
    TrendConfig {
        k_harmonics: 2,
        tau,
        rho_grid: vec![0.0, 0.4, 0.8],
        start_year,
    }
}

/// Minimum time-window length of a [`ProductStat::Trend`] fit:
/// `ncols + 1` of [`trend_config`].
const TREND_MIN_STEPS: u64 = 8;

/// The seed of ensemble realization `k` under base seed `base`: a
/// splitmix64-style mix of `(base, k)`.
///
/// Each realization's seed is a pure function of the request, never of
/// worker scheduling, which is what makes ensemble fan-out bit-identical
/// at any `EXACLIM_THREADS`. Clients can reproduce any single member by
/// running `Request::Emulate` with this seed.
///
/// ```
/// use exaclim_serve::scenario::realization_seed;
/// assert_ne!(realization_seed(7, 0), 7);
/// assert_ne!(realization_seed(7, 0), realization_seed(7, 1));
/// assert_ne!(realization_seed(7, 0), realization_seed(8, 0));
/// ```
pub fn realization_seed(base: u64, k: u32) -> u64 {
    let mut z = base.wrapping_add(
        u64::from(k)
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The product a bare [`crate::server::Request::Ensemble`] desugars to:
/// raw values, no windows. Both request forms hash to the same
/// [`crate::product::ProductKey`], so they share one cache entry.
pub(crate) fn ensemble_descriptor(spec: &ScenarioSpec) -> ProductDescriptor {
    ProductDescriptor {
        source: ProductSource::Ensemble(spec.clone()),
        stat: ProductStat::Raw,
        time: None,
        space: None,
    }
}

/// Everything [`Server::answer_product`] resolves *before* touching the
/// product cache: where the source lives, its windowed extent, and the
/// output geometry the descriptor deterministically maps to.
struct ProductPlan {
    /// Member source `(archive index, member index)`; `None` ⇒ ensemble.
    member: Option<(u32, u32)>,
    /// Ensemble source; `None` ⇒ member.
    spec: Option<ScenarioSpec>,
    /// Baseline `(archive index, member index)` of an anomaly stat.
    baseline: Option<(u32, u32)>,
    /// Source realizations (1 for a member source).
    realizations: u32,
    /// Resolved half-open time window into the source.
    time: Range<u64>,
    /// Resolved half-open space window into each slice.
    space: Range<u64>,
    /// Steps per year of the source (0 ⇒ unknown).
    tau: usize,
    /// Calendar year of the source's step 0.
    start_year: i64,
    /// Output realization count.
    out_realizations: u32,
    /// Output rows per realization.
    out_rows: u64,
    /// Output values per row.
    out_vpr: u64,
}

impl ProductPlan {
    fn t_len(&self) -> usize {
        (self.time.end - self.time.start) as usize
    }

    fn s_len(&self) -> usize {
        (self.space.end - self.space.start) as usize
    }

    fn data(&self, values: Vec<f64>) -> ProductData {
        debug_assert_eq!(
            values.len() as u64,
            u64::from(self.out_realizations) * self.out_rows * self.out_vpr
        );
        ProductData {
            realizations: self.out_realizations,
            rows: self.out_rows,
            values_per_row: self.out_vpr,
            values,
        }
    }
}

fn bad(msg: impl Into<String>) -> ServeError {
    ServeError::BadRequest(msg.into())
}

/// Refuse one emulation of `t_max` steps over `npoints` grid points whose
/// dataset would exceed [`MAX_PRODUCT_VALUES`]: an allocation that large
/// aborts the process, which no worker can catch.
pub(crate) fn check_emulation_size(t_max: u64, npoints: usize) -> Result<(), ServeError> {
    t_max
        .checked_mul(npoints as u64)
        .filter(|&v| v <= MAX_PRODUCT_VALUES)
        .map(|_| ())
        .ok_or_else(|| {
            bad(format!(
                "emulation of {t_max} steps × {npoints} points exceeds the value budget"
            ))
        })
}

impl Server {
    /// Evaluate a derived product, serving it from the product cache when
    /// possible. On a miss, exactly one caller computes the product
    /// (single-flight, even across racing batches and connections) and
    /// the result is cached under the descriptor's key;
    /// computation errors propagate to every waiter and are never cached.
    pub(crate) fn answer_product(
        &self,
        descriptor: &ProductDescriptor,
    ) -> Result<Response, ServeError> {
        let plan = self.plan_product(descriptor)?;
        let values = match self.product_cache.begin_fetch(descriptor.key()) {
            Fetch::Ready(values) => values,
            Fetch::Wait(flight) => flight.wait()?,
            Fetch::Lead(lead) => {
                let result = self.compute_product(descriptor, &plan);
                if result.is_ok() {
                    self.stats.product_computes.fetch_add(1, Ordering::Relaxed);
                }
                lead.finish(result.clone());
                result?
            }
        };
        Ok(Response::Product(plan.data(values.to_vec())))
    }

    /// Resolve and validate a descriptor against the catalog: names,
    /// windows, per-stat preconditions, and size caps. Runs before the
    /// cache so invalid descriptors never reserve a flight, and
    /// completely: the compute path below can assume every precondition
    /// of the stats kernels (which `assert!` on violation) holds.
    fn plan_product(&self, d: &ProductDescriptor) -> Result<ProductPlan, ServeError> {
        let member_field = |archive: &str, member: &str| -> Result<(u32, u32, u64, u64), _> {
            let ai = self.catalog.archive_index(archive)?;
            let a = &self.catalog.archives()[ai];
            let mi = a.member_index(member)?;
            let m = &a.members()[mi];
            if m.kind != MemberKind::Field {
                return Err(bad(format!("member `{member}` is not a field")));
            }
            Ok((ai as u32, mi as u32, m.t_max, m.values_per_slice))
        };

        // Source extent.
        let (member, spec, realizations, t_max, vps, tau, start_year) = match &d.source {
            ProductSource::Member { archive, member } => {
                let (ai, mi, t_max, vps) = member_field(archive, member)?;
                let meta = self.catalog.archives()[ai as usize].members()[mi as usize].meta;
                (
                    Some((ai, mi)),
                    None,
                    1u32,
                    t_max,
                    vps,
                    meta.tau,
                    meta.start_year,
                )
            }
            ProductSource::Ensemble(spec) => {
                let served = self.catalog.emulator(&spec.emulator)?;
                if spec.realizations == 0 || spec.realizations > MAX_REALIZATIONS {
                    return Err(bad(format!(
                        "realizations must be 1..={MAX_REALIZATIONS}, got {}",
                        spec.realizations
                    )));
                }
                if spec.t_max == 0 {
                    return Err(bad("ensemble t_max must be positive"));
                }
                usize::try_from(spec.t_max).map_err(|_| bad("ensemble t_max overflows"))?;
                let em = &served.emulator;
                // Every realization is emulated whole before its window is
                // cut, so each run is held to the budget on its own.
                check_emulation_size(spec.t_max, em.npoints())?;
                (
                    None,
                    Some(spec.clone()),
                    spec.realizations,
                    spec.t_max,
                    em.npoints() as u64,
                    em.config.tau,
                    em.start_year,
                )
            }
        };

        // Windows.
        let time = d.time.clone().unwrap_or(0..t_max);
        if time.start >= time.end || time.end > t_max {
            return Err(bad(format!(
                "time window {time:?} is empty or outside 0..{t_max}"
            )));
        }
        let space = d.space.clone().unwrap_or(0..vps);
        if space.start >= space.end || space.end > vps {
            return Err(bad(format!(
                "space window {space:?} is empty or outside 0..{vps}"
            )));
        }
        let t_len = time.end - time.start;
        let s_len = space.end - space.start;

        // Per-stat preconditions and output geometry.
        let mut baseline = None;
        let (out_realizations, out_rows) = match &d.stat {
            ProductStat::Raw => (realizations, t_len),
            ProductStat::Anomaly { archive, member } => {
                let (ai, mi, b_tmax, b_vps) = member_field(archive, member)?;
                if b_tmax < time.end {
                    return Err(bad(format!(
                        "baseline `{member}` covers only {b_tmax} steps, window needs {}",
                        time.end
                    )));
                }
                if b_vps != vps {
                    return Err(bad(format!(
                        "baseline `{member}` has {b_vps} values per slice, source has {vps}"
                    )));
                }
                baseline = Some((ai, mi));
                (realizations, t_len)
            }
            ProductStat::MeanStd => (1, 2),
            ProductStat::Trend => {
                if tau == 0 {
                    return Err(bad("trend products need a source with tau metadata"));
                }
                if t_len < TREND_MIN_STEPS {
                    return Err(bad(format!(
                        "trend fit needs at least {TREND_MIN_STEPS} time steps, window has {t_len}"
                    )));
                }
                (1, 5)
            }
            ProductStat::Persistence { order } => {
                if *order == 0 || *order > MAX_PERSISTENCE_ORDER {
                    return Err(bad(format!(
                        "persistence order must be 1..={MAX_PERSISTENCE_ORDER}, got {order}"
                    )));
                }
                if t_len <= u64::from(*order) + 1 {
                    return Err(bad(format!(
                        "persistence order {order} needs more than {} time steps, window has {t_len}",
                        order + 1
                    )));
                }
                (1, u64::from(*order) + 1)
            }
            ProductStat::TukeyExtremes { tail_per_mille } => {
                if *tail_per_mille == 0 || *tail_per_mille > 499 {
                    return Err(bad(format!(
                        "tail_per_mille must be 1..=499, got {tail_per_mille}"
                    )));
                }
                if u64::from(realizations) * t_len < 32 {
                    return Err(bad(format!(
                        "tukey fit needs at least 32 samples per location, window has {}",
                        u64::from(realizations) * t_len
                    )));
                }
                (1, 4)
            }
        };

        // Size caps, overflow-checked: the windowed working set and the
        // output must both stay under the value budget.
        let working = u64::from(realizations)
            .checked_mul(t_len)
            .and_then(|v| v.checked_mul(s_len))
            .filter(|&v| v <= MAX_PRODUCT_VALUES)
            .ok_or_else(|| bad("product working set exceeds the value budget"))?;
        let output = u64::from(out_realizations)
            .checked_mul(out_rows)
            .and_then(|v| v.checked_mul(s_len))
            .filter(|&v| v <= MAX_PRODUCT_VALUES)
            .ok_or_else(|| bad("product output exceeds the value budget"))?;
        let _ = (working, output);

        Ok(ProductPlan {
            member,
            spec,
            baseline,
            realizations,
            time,
            space,
            tau,
            start_year,
            out_realizations,
            out_rows,
            out_vpr: s_len,
        })
    }

    /// Evaluate a planned product: materialize the windowed source block
    /// (through the chunk cache or by ensemble fan-out), then apply the
    /// statistic kernel.
    fn compute_product(
        &self,
        d: &ProductDescriptor,
        plan: &ProductPlan,
    ) -> Result<Arc<[f64]>, ServeError> {
        // Fault site `product`: derived-product evaluation. Errors are
        // retryable ([`ServeError::Internal`]) and never cached — the
        // single-flight map publishes them to waiters only — so a retry
        // recomputes cleanly.
        if let Some(action) = exaclim_runtime::faults::check("product") {
            use exaclim_runtime::FaultAction;
            match action {
                FaultAction::Delay(dur) | FaultAction::Stall(dur) => std::thread::sleep(dur),
                FaultAction::Error | FaultAction::Corrupt => {
                    return Err(ServeError::Internal("injected product fault".to_string()));
                }
                _ => {}
            }
        }
        let block = self.source_block(plan)?;
        let values = match &d.stat {
            ProductStat::Raw => block,
            ProductStat::Anomaly { .. } => {
                let (ai, mi) = plan.baseline.expect("anomaly plan has a baseline");
                let base = self.member_series(ai, mi, &plan.time, &plan.space)?;
                let per = base.len();
                let mut out = block;
                for r in 0..plan.realizations as usize {
                    for (v, b) in out[r * per..(r + 1) * per].iter_mut().zip(&base) {
                        *v -= b;
                    }
                }
                out
            }
            ProductStat::MeanStd => self.per_location(plan, &block, 2, |samples, out| {
                out[0] = exaclim_mathkit::stats::mean(samples);
                out[1] = exaclim_mathkit::stats::variance(samples).sqrt();
            }),
            ProductStat::Trend => self.trend_planes(plan, &block),
            ProductStat::Persistence { order } => {
                self.persistence_planes(plan, &block, *order as usize)
            }
            ProductStat::TukeyExtremes { tail_per_mille } => {
                let q = f64::from(*tail_per_mille) / 1000.0;
                let (z_lo, z_hi) = (inverse_normal_cdf(q), inverse_normal_cdf(1.0 - q));
                self.per_location(plan, &block, 4, move |samples, out| {
                    let fit = fit_tukey_gh(samples);
                    out[0] = fit.g;
                    out[1] = fit.h;
                    out[2] = fit.forward(z_lo);
                    out[3] = fit.forward(z_hi);
                })
            }
        };
        Ok(values.into())
    }

    /// The windowed source values, realization-major
    /// `realizations × t_len × s_len`.
    fn source_block(&self, plan: &ProductPlan) -> Result<Vec<f64>, ServeError> {
        match (&plan.member, &plan.spec) {
            (Some((ai, mi)), _) => self.member_series(*ai, *mi, &plan.time, &plan.space),
            (None, Some(spec)) => self.ensemble_block(spec, plan),
            (None, None) => unreachable!("plan has a source"),
        }
    }

    /// One member's `[time) × [space)` window, resolved chunk-by-chunk
    /// through the chunk cache (hits, single-flight and LRU all apply) in
    /// parallel over the pool.
    fn member_series(
        &self,
        archive: u32,
        member: u32,
        time: &Range<u64>,
        space: &Range<u64>,
    ) -> Result<Vec<f64>, ServeError> {
        let a = &self.catalog.archives()[archive as usize];
        let m = &a.members()[member as usize];
        let vps = m.values_per_slice as usize;
        let chunk_idxs = m.chunks_for_range(time.start, time.end);

        let mut fetched: Vec<Option<Result<Arc<[f64]>, ServeError>>> = vec![None; chunk_idxs.len()];
        exaclim_runtime::pool::global().parallel_chunks_mut(&mut fetched, 1, |i, slot| {
            slot[0] = Some(self.resolve_chunk(ChunkKey {
                archive,
                member,
                chunk: chunk_idxs[i] as u32,
            }));
        });

        let s_len = (space.end - space.start) as usize;
        let t_len = (time.end - time.start) as usize;
        let mut out = vec![0.0; t_len * s_len];
        for (slot, &ci) in fetched.into_iter().zip(&chunk_idxs) {
            let values = slot.expect("every fetch slot filled")?;
            let c = m.chunks[ci];
            let lo = time.start.max(c.t0);
            let hi = time.end.min(c.t0 + u64::from(c.t_len));
            for t in lo..hi {
                let src = (t - c.t0) as usize * vps + space.start as usize;
                let dst = (t - time.start) as usize * s_len;
                out[dst..dst + s_len].copy_from_slice(&values[src..src + s_len]);
            }
        }
        Ok(out)
    }

    /// Emulate `spec.realizations` members in parallel over the pool and
    /// keep only each run's `[time) × [space)` window. Realization `k`
    /// always runs with [`realization_seed`]`(spec.seed, k)`, so the
    /// block is independent of scheduling.
    fn ensemble_block(
        &self,
        spec: &ScenarioSpec,
        plan: &ProductPlan,
    ) -> Result<Vec<f64>, ServeError> {
        let served = self.catalog.emulator(&spec.emulator)?;
        let em = Arc::clone(&served.emulator);
        let t_max = spec.t_max as usize;
        let npoints = em.npoints();
        let (t_len, s_len) = (plan.t_len(), plan.s_len());
        let (t0, s0) = (plan.time.start as usize, plan.space.start as usize);

        let mut slots: Vec<Option<Result<Vec<f64>, ServeError>>> =
            vec![None; spec.realizations as usize];
        exaclim_runtime::pool::global().parallel_chunks_mut(&mut slots, 1, |k, slot| {
            let seed = realization_seed(spec.seed, k as u32);
            slot[0] = Some(em.emulate(t_max, seed).map_err(ServeError::from).map(|ds| {
                let mut window = Vec::with_capacity(t_len * s_len);
                for t in t0..t0 + t_len {
                    let row = &ds.data[t * npoints + s0..t * npoints + s0 + s_len];
                    window.extend_from_slice(row);
                }
                window
            }));
        });

        let mut out = Vec::with_capacity(spec.realizations as usize * t_len * s_len);
        for slot in slots {
            out.extend(slot.expect("every realization slot filled")?);
        }
        Ok(out)
    }

    /// Run a per-location kernel over the block, location-parallel on the
    /// pool: location `j`'s pooled `(realization, time)` samples go in,
    /// `planes` output values come out. Locations are independent, so the
    /// result is bit-identical at any thread count.
    fn per_location(
        &self,
        plan: &ProductPlan,
        block: &[f64],
        planes: usize,
        kernel: impl Fn(&[f64], &mut [f64]) + Sync,
    ) -> Vec<f64> {
        let (t_len, s_len) = (plan.t_len(), plan.s_len());
        let n_r = plan.realizations as usize;
        let mut cols: Vec<Option<Vec<f64>>> = vec![None; s_len];
        exaclim_runtime::pool::global().parallel_chunks_mut(&mut cols, 1, |j, slot| {
            let samples: Vec<f64> = (0..n_r * t_len).map(|i| block[i * s_len + j]).collect();
            let mut out = vec![0.0; planes];
            kernel(&samples, &mut out);
            slot[0] = Some(out);
        });
        // Scatter the per-location columns into plane-major rows.
        let mut out = vec![0.0; planes * s_len];
        for (j, col) in cols.into_iter().enumerate() {
            for (p, v) in col.expect("every location filled").into_iter().enumerate() {
                out[p * s_len + j] = v;
            }
        }
        out
    }

    /// Per-location trend fit (one [`exaclim_stats::trend::TrendPlan`] per
    /// request, applied to every location) on the ensemble-mean series:
    /// planes `[β₀, β₁, β₂, ρ, σ]`. The regression sees calendar years
    /// starting at the *window*, so a re-sliced source fits the years it
    /// actually covers.
    fn trend_planes(&self, plan: &ProductPlan, block: &[f64]) -> Vec<f64> {
        let start_year = plan.start_year + (plan.time.start / plan.tau as u64) as i64;
        let cfg = trend_config(plan.tau, start_year);
        let t_len = plan.t_len();
        let end_year = cfg.year_of(t_len);
        let forcing = ForcingSeries::historical_like(start_year, end_year, 30);
        let trend_plan = TrendPlan::new(&cfg, &forcing, t_len);
        let n_r = plan.realizations as usize;
        let inv = 1.0 / n_r as f64;
        self.per_location(plan, block, 5, move |samples, out| {
            // `samples` pools realizations; reduce to the ensemble-mean
            // series before fitting (deterministic accumulation order).
            let y: Vec<f64> = (0..t_len)
                .map(|t| (0..n_r).map(|r| samples[r * t_len + t]).sum::<f64>() * inv)
                .collect();
            let fit = trend_plan.fit(&y);
            out.copy_from_slice(&[fit.beta0, fit.beta1, fit.beta2, fit.rho, fit.sigma]);
        })
    }

    /// Per-location AR(`order`) persistence fit pooled across
    /// realizations: planes `[φ₁ … φ_order, innovation std]`. The fit
    /// treats locations as the VAR channels
    /// ([`exaclim_stats::var::fit_diagonal_var_multi`] is
    /// channel-parallel internally and bit-identical to sequential), and
    /// `σ` pools every realization's innovations per location.
    fn persistence_planes(&self, plan: &ProductPlan, block: &[f64], order: usize) -> Vec<f64> {
        let (t_len, s_len) = (plan.t_len(), plan.s_len());
        let n_r = plan.realizations as usize;
        // Re-shape each realization into a time series of location rows.
        let members: Vec<Vec<Vec<f64>>> = (0..n_r)
            .map(|r| {
                (0..t_len)
                    .map(|t| block[(r * t_len + t) * s_len..(r * t_len + t + 1) * s_len].to_vec())
                    .collect()
            })
            .collect();
        let refs: Vec<&[Vec<f64>]> = members.iter().map(|m| m.as_slice()).collect();
        let fit = fit_diagonal_var_multi(&refs, order);

        // Innovation std per location, pooling every member's residuals
        // in member order (deterministic).
        let mut residuals: Vec<Vec<f64>> = vec![Vec::new(); s_len];
        for m in &members {
            for row in fit.innovations(m) {
                for (j, v) in row.into_iter().enumerate() {
                    residuals[j].push(v);
                }
            }
        }

        let mut out = vec![0.0; (order + 1) * s_len];
        for j in 0..s_len {
            for p in 0..order {
                out[p * s_len + j] = fit.phi[j][p];
            }
            out[order * s_len + j] = exaclim_mathkit::stats::variance(&residuals[j]).sqrt();
        }
        out
    }
}
