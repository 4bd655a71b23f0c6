//! The v2 snapshot payload: a [`TrainedEmulator`] as one self-describing
//! little-endian blob, with the covariance factor stored as its lower
//! tiles, each at the narrowest width that holds it bit for bit.
//!
//! ```text
//! header   21 u64 words (below), then rho_grid: count × f64
//! trend    npoints × (5 + 2K) f64   β₀ β₁ β₂ ρ σ a₁ b₁ … a_K b_K per location
//! var      L² × P f64               Φ, channel by channel
//! v2       npoints f64
//! forcing  count × f64              annual values from its first year
//! factor   nt(nt+1)/2 width bytes, then every lower tile's values
//! ```
//!
//! The header words are `lmax`, `k_harmonics`, `tau`, `var_order`,
//! `tile`, `workers`; the precision policy as `tag`, `a`, `b` (tag 0
//! uniform with `a` its width in bytes, 1 band with `a`, `b` the DP and
//! SP band widths, 2 adaptive with `a`, `b` the `f64` bits of its two
//! thresholds); `ntheta`, `nphi`, `start_year` (`i64`), `jitter` (`f64`
//! bits), the forcing's first year (`i64`), the rho grid's and the
//! forcing's value counts; then the five sections' byte lengths.
//!
//! `npoints = ntheta · nphi`, the factor is `n × n` with `n = L²`, and its
//! tiles are `b × b` with `b` the configured tile, `nt = n / b` per side.
//! Tiles go in row-major order of the lower triangle, `(i, j)` for
//! `i < nt`, `j ≤ i`; a diagonal tile holds its rows up to and including
//! the diagonal (`b(b+1)/2` values), any other tile all `b²`. Each tile's
//! width byte is 2, 4 or 8: its values are binary16, `f32` or `f64`
//! ([`Codec::F16`], [`Codec::F32`], [`Codec::Raw64`]), the narrowest that
//! decodes every one of them to the same bits. A factor from `train`
//! stores each tile at its policy precision, since widening a tile is
//! exact. The upper triangle, which the sampler never reads, is not
//! stored and reloads as zeros.
//!
//! The decoder checks every length against the dimensions, the payload's
//! length and every width byte before it allocates anything larger than
//! the payload, and returns [`EmulationError::Data`] on a mismatch.

use crate::config::EmulatorConfig;
use crate::emulator::{EmulationError, TrainedEmulator};
use exaclim_linalg::precision::{Precision, PrecisionPolicy};
use exaclim_stats::forcing::ForcingSeries;
use exaclim_stats::trend::TrendModel;
use exaclim_stats::var::DiagonalVar;
use exaclim_store::Codec;

/// `u64` words of the header; the module docs list them.
const HEADER_WORDS: usize = 21;

const HEADER_BYTES: usize = HEADER_WORDS * 8;

/// Section names, in payload order.
const SECTIONS: [&str; 5] = ["trend", "var", "v2", "forcing", "factor"];

/// Values a trend model stores besides its harmonics: β₀ β₁ β₂ ρ σ.
const TREND_SCALARS: usize = 5;

fn corrupt(msg: impl std::fmt::Display) -> EmulationError {
    EmulationError::Data(format!("snapshot v2: {msg}"))
}

/// The sizes a payload's section lengths follow from.
struct Dims {
    lmax: usize,
    k: usize,
    order: usize,
    tile: usize,
    npoints: usize,
    rho: usize,
    forcing: usize,
}

/// Byte lengths derived from [`Dims`] (the rho grid and the first four
/// sections) and the factor's tile shape.
struct Layout {
    rho: usize,
    sections: [usize; 4],
    /// Factor side `L²`.
    n: usize,
    /// Tile side.
    b: usize,
    /// Tiles per side.
    nt: usize,
    /// Lower tiles, `nt(nt+1)/2`: also the width table's length.
    tiles: usize,
    /// Values a diagonal tile stores, `b(b+1)/2`, and any other, `b²`.
    diagonal_values: usize,
    full_values: usize,
}

fn mul(a: usize, b: usize) -> Result<usize, String> {
    a.checked_mul(b)
        .ok_or_else(|| format!("dimension product {a} × {b} overflows"))
}

impl Dims {
    fn of(em: &TrainedEmulator) -> Self {
        let cfg = &em.config;
        Self {
            lmax: cfg.lmax,
            k: cfg.k_harmonics,
            order: cfg.var_order,
            tile: cfg.tile,
            npoints: em.npoints(),
            rho: cfg.rho_grid.len(),
            forcing: forcing_values(&em.forcing).len(),
        }
    }

    fn layout(&self) -> Result<Layout, String> {
        let n = mul(self.lmax, self.lmax)?;
        let b = self.tile;
        if b == 0 || n % b != 0 {
            return Err(format!("tile {b} does not divide L² = {n}"));
        }
        let nt = n / b;
        let per_model = mul(self.k, 2)?
            .checked_add(TREND_SCALARS)
            .ok_or("harmonic count overflows")?;
        Ok(Layout {
            rho: mul(self.rho, 8)?,
            sections: [
                mul(mul(self.npoints, per_model)?, 8)?,
                mul(mul(n, self.order)?, 8)?,
                mul(self.npoints, 8)?,
                mul(self.forcing, 8)?,
            ],
            n,
            b,
            nt,
            tiles: mul(nt, nt + 1)? / 2,
            diagonal_values: mul(b, b + 1)? / 2,
            full_values: mul(b, b)?,
        })
    }
}

impl Layout {
    /// Lower tiles `(i, j)` in payload order, with the values each stores.
    fn tiles(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        (0..self.nt).flat_map(move |i| {
            (0..=i).map(move |j| {
                let values = if i == j {
                    self.diagonal_values
                } else {
                    self.full_values
                };
                (i, j, values)
            })
        })
    }

    /// The range of the dense row-major factor that row `r` of tile
    /// `(i, j)` stores.
    fn tile_row(&self, i: usize, j: usize, r: usize) -> std::ops::Range<usize> {
        let at = (i * self.b + r) * self.n + j * self.b;
        at..at + if i == j { r + 1 } else { self.b }
    }

    /// Payload bytes: header, rho grid, sections, and a factor section of
    /// `factor` bytes.
    fn total(&self, factor: usize) -> usize {
        HEADER_BYTES + self.rho + self.sections.iter().sum::<usize>() + factor
    }
}

fn forcing_values(forcing: &ForcingSeries) -> Vec<f64> {
    (forcing.first_year()..=forcing.last_year())
        .map(|y| forcing.at(y))
        .collect()
}

/// The narrowest of [`Codec::F16`], [`Codec::F32`] and [`Codec::Raw64`]
/// that decodes every value to its own bits (every binary16 value is an
/// `f32` one, so a value that fits keeps fitting as the width grows).
fn narrowest(values: impl Iterator<Item = f64>) -> Codec {
    let mut codec = Codec::F16;
    for v in values {
        while codec.quantize(v).to_bits() != v.to_bits() {
            codec = match codec {
                Codec::F16 => Codec::F32,
                _ => return Codec::Raw64,
            };
        }
    }
    codec
}

/// What encoding a model takes besides its fields: the layout, every
/// tile's codec in payload order, and the factor section's length.
/// Panics if the model's shapes disagree with its configuration (which
/// `emulate` needs too).
fn plan(em: &TrainedEmulator) -> (Layout, Vec<Codec>, usize) {
    let cfg = &em.config;
    let layout = Dims::of(em)
        .layout()
        .unwrap_or_else(|e| panic!("snapshot of an inconsistent model: {e}"));
    let n = layout.n;
    assert_eq!(em.factor.len(), n * n, "the factor is L² × L²");
    assert_eq!(em.trend.len(), em.npoints(), "one trend model per point");
    assert_eq!(em.v2.len(), em.npoints(), "one v² per point");
    assert!(
        em.trend
            .iter()
            .all(|m| m.harmonics.len() == cfg.k_harmonics),
        "every trend model has K harmonic pairs"
    );
    assert!(
        em.var.order == cfg.var_order
            && em.var.dim() == n
            && em.var.phi.iter().all(|row| row.len() == cfg.var_order),
        "the VAR is L² channels of order P"
    );
    let codecs: Vec<Codec> = layout
        .tiles()
        .map(|(i, j, _)| {
            narrowest(
                (0..layout.b).flat_map(|r| em.factor[layout.tile_row(i, j, r)].iter().copied()),
            )
        })
        .collect();
    let factor_len = layout.tiles
        + layout
            .tiles()
            .zip(&codecs)
            .map(|((_, _, values), c)| values * c.value_width())
            .sum::<usize>();
    (layout, codecs, factor_len)
}

/// Length of [`encode`]'s payload, computed without encoding.
pub(crate) fn encoded_len(em: &TrainedEmulator) -> usize {
    let (layout, _, factor_len) = plan(em);
    layout.total(factor_len)
}

fn push_f64s(out: &mut Vec<u8>, values: impl IntoIterator<Item = f64>) {
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// The v2 payload of `em`; panics as [`plan`] does.
pub(crate) fn encode(em: &TrainedEmulator) -> Vec<u8> {
    let (layout, codecs, factor_len) = plan(em);
    let cfg = &em.config;
    let forcing = forcing_values(&em.forcing);
    let (tag, a, b) = match cfg.precision {
        PrecisionPolicy::Uniform(p) => (0, p.bytes() as u64, 0),
        PrecisionPolicy::Band { dp_band, sp_band } => (1, dp_band as u64, sp_band as u64),
        PrecisionPolicy::Adaptive {
            dp_threshold,
            sp_threshold,
        } => (2, dp_threshold.to_bits(), sp_threshold.to_bits()),
    };
    let [trend_len, var_len, v2_len, forcing_len] = layout.sections;
    let header: [u64; HEADER_WORDS] = [
        cfg.lmax as u64,
        cfg.k_harmonics as u64,
        cfg.tau as u64,
        cfg.var_order as u64,
        cfg.tile as u64,
        cfg.workers as u64,
        tag,
        a,
        b,
        em.ntheta as u64,
        em.nphi as u64,
        em.start_year as u64,
        em.jitter.to_bits(),
        em.forcing.first_year() as u64,
        cfg.rho_grid.len() as u64,
        forcing.len() as u64,
        trend_len as u64,
        var_len as u64,
        v2_len as u64,
        forcing_len as u64,
        factor_len as u64,
    ];
    let mut out = Vec::with_capacity(layout.total(factor_len));
    for w in header {
        out.extend_from_slice(&w.to_le_bytes());
    }
    push_f64s(&mut out, cfg.rho_grid.iter().copied());
    for m in &em.trend {
        push_f64s(&mut out, [m.beta0, m.beta1, m.beta2, m.rho, m.sigma]);
        push_f64s(&mut out, m.harmonics.iter().flat_map(|&(a, b)| [a, b]));
    }
    push_f64s(&mut out, em.var.phi.iter().flatten().copied());
    push_f64s(&mut out, em.v2.iter().copied());
    push_f64s(&mut out, forcing);
    out.extend(codecs.iter().map(|c| c.value_width() as u8));
    let mut values = Vec::with_capacity(layout.full_values);
    for ((i, j, _), codec) in layout.tiles().zip(&codecs) {
        values.clear();
        for r in 0..layout.b {
            values.extend_from_slice(&em.factor[layout.tile_row(i, j, r)]);
        }
        out.extend_from_slice(&codec.encode(&values));
    }
    debug_assert_eq!(out.len(), layout.total(factor_len));
    out
}

/// Splits a payload front to back; running past its end is an error
/// naming the part that was being read.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8], EmulationError> {
        if self.rest.len() < len {
            return Err(corrupt(format!(
                "truncated in {what}: {len} bytes needed, {} left",
                self.rest.len()
            )));
        }
        let (head, tail) = self.rest.split_at(len);
        self.rest = tail;
        Ok(head)
    }
}

fn f64s(bytes: &[u8]) -> impl Iterator<Item = f64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
}

fn size(word: u64, name: &str) -> Result<usize, EmulationError> {
    usize::try_from(word).map_err(|_| corrupt(format!("{name} {word} does not fit in usize")))
}

fn policy(tag: u64, a: u64, b: u64) -> Result<PrecisionPolicy, EmulationError> {
    Ok(match tag {
        0 => PrecisionPolicy::Uniform(match a {
            2 => Precision::Half,
            4 => Precision::Single,
            8 => Precision::Double,
            _ => return Err(corrupt(format!("uniform precision of {a} bytes"))),
        }),
        1 => PrecisionPolicy::Band {
            dp_band: size(a, "dp_band")?,
            // DP/SP's unbounded band is `usize::MAX` on any host.
            sp_band: usize::try_from(b).unwrap_or(usize::MAX),
        },
        2 => PrecisionPolicy::Adaptive {
            dp_threshold: f64::from_bits(a),
            sp_threshold: f64::from_bits(b),
        },
        _ => return Err(corrupt(format!("unknown precision policy tag {tag}"))),
    })
}

/// Rebuild a model from a v2 payload.
pub(crate) fn decode(payload: &[u8]) -> Result<TrainedEmulator, EmulationError> {
    let mut r = Reader { rest: payload };
    let mut words = r
        .take(HEADER_BYTES, "header")?
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    let mut word = || words.next().expect("the header holds HEADER_WORDS words");
    let [lmax, k, tau, order, tile, workers] =
        ["lmax", "k_harmonics", "tau", "var_order", "tile", "workers"].map(|n| size(word(), n));
    let (tag, pa, pb) = (word(), word(), word());
    let (ntheta, nphi) = (size(word(), "ntheta")?, size(word(), "nphi")?);
    let (start_year, jitter, forcing_start) =
        (word() as i64, f64::from_bits(word()), word() as i64);
    let dims = Dims {
        lmax: lmax?,
        k: k?,
        order: order?,
        tile: tile?,
        npoints: mul(ntheta, nphi).map_err(corrupt)?,
        rho: size(word(), "rho count")?,
        forcing: size(word(), "forcing count")?,
    };
    let recorded = SECTIONS.map(|name| size(word(), name));
    let layout = dims.layout().map_err(corrupt)?;
    let mut body = layout.rho;
    for (i, (got, name)) in recorded.into_iter().zip(SECTIONS).enumerate() {
        let got = got?;
        if let Some(&want) = layout.sections.get(i) {
            if got != want {
                return Err(corrupt(format!(
                    "{name} section is recorded as {got} bytes, its dimensions give {want}"
                )));
            }
        }
        body = body
            .checked_add(got)
            .ok_or_else(|| corrupt("section lengths overflow"))?;
    }
    if body != r.rest.len() {
        return Err(corrupt(format!(
            "{} bytes follow the header, its section lengths give {body}",
            r.rest.len()
        )));
    }
    if dims.forcing == 0 {
        return Err(corrupt("empty forcing series"));
    }

    let rho_grid = r.take(layout.rho, "rho grid")?;
    let [trend, var, v2, forcing] = [0, 1, 2, 3].map(|i| r.take(layout.sections[i], SECTIONS[i]));
    let (trend, var, v2, forcing) = (trend?, var?, v2?, forcing?);

    // The width table and the tile lengths, checked whole before the
    // factor is allocated.
    let widths = r.take(layout.tiles, "factor width table")?;
    let mut tiles = r.rest;
    let codecs = widths
        .iter()
        .map(|&w| match w {
            2 => Ok(Codec::F16),
            4 => Ok(Codec::F32),
            8 => Ok(Codec::Raw64),
            _ => Err(corrupt(format!("tile width byte {w} is not 2, 4 or 8"))),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let tile_bytes = layout
        .tiles()
        .zip(&codecs)
        .try_fold(0usize, |acc, ((_, _, values), c)| {
            acc.checked_add(values.checked_mul(c.value_width())?)
        })
        .ok_or_else(|| corrupt("tile lengths overflow"))?;
    if tile_bytes != tiles.len() {
        return Err(corrupt(format!(
            "the width bytes give {tile_bytes} bytes of tiles, the factor section holds {}",
            tiles.len()
        )));
    }

    let mut factor = vec![0.0f64; mul(layout.n, layout.n).map_err(corrupt)?];
    for ((i, j, count), codec) in layout.tiles().zip(codecs) {
        let (stored, rest) = tiles.split_at(count * codec.value_width());
        tiles = rest;
        let values = codec.decode(stored, count).map_err(corrupt)?;
        let mut values = values.as_slice();
        for row in 0..layout.b {
            let range = layout.tile_row(i, j, row);
            let (head, rest) = values.split_at(range.len());
            factor[range].copy_from_slice(head);
            values = rest;
        }
    }
    let per_model = (TREND_SCALARS + 2 * dims.k) * 8;
    let trend = trend
        .chunks_exact(per_model)
        .map(|model| {
            let v: Vec<f64> = f64s(model).collect();
            TrendModel {
                beta0: v[0],
                beta1: v[1],
                beta2: v[2],
                rho: v[3],
                sigma: v[4],
                harmonics: v[TREND_SCALARS..]
                    .chunks_exact(2)
                    .map(|h| (h[0], h[1]))
                    .collect(),
            }
        })
        .collect();
    let phi = (0..layout.n)
        .map(|c| f64s(&var[c * dims.order * 8..(c + 1) * dims.order * 8]).collect())
        .collect();

    Ok(TrainedEmulator {
        config: EmulatorConfig {
            lmax: dims.lmax,
            k_harmonics: dims.k,
            tau: tau?,
            var_order: dims.order,
            rho_grid: f64s(rho_grid).collect(),
            precision: policy(tag, pa, pb)?,
            tile: dims.tile,
            workers: workers?,
        },
        ntheta,
        nphi,
        start_year,
        trend,
        var: DiagonalVar {
            order: dims.order,
            phi,
        },
        factor,
        v2: f64s(v2).collect(),
        forcing: ForcingSeries::new(forcing_start, f64s(forcing).collect()),
        jitter,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emulator::ClimateEmulator;
    use exaclim_climate::{Dataset, SyntheticEra5, SyntheticEra5Config};
    use exaclim_linalg::precision::Variant;
    use exaclim_store::Snapshot;
    use std::sync::OnceLock;

    /// The largest single allocation the calling thread asks for while a
    /// [`largest_allocation`] closure runs.
    mod watch {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        struct Watch;

        thread_local! {
            static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
        }

        fn note(size: usize) {
            let _ = LARGEST.try_with(|l| {
                if let Some(m) = l.get() {
                    l.set(Some(m.max(size)));
                }
            });
        }

        // SAFETY: every call forwards to `System` unchanged; `note` only
        // touches a const-initialized thread-local, which never allocates.
        unsafe impl GlobalAlloc for Watch {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                note(layout.size());
                System.alloc(layout)
            }
            unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
                note(layout.size());
                System.alloc_zeroed(layout)
            }
            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                note(new_size);
                System.realloc(ptr, layout, new_size)
            }
            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                System.dealloc(ptr, layout)
            }
        }

        #[global_allocator]
        static GLOBAL: Watch = Watch;

        pub fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
            LARGEST.with(|l| l.set(Some(0)));
            let out = f();
            (out, LARGEST.with(|l| l.replace(None)).unwrap_or(0))
        }
    }

    fn training() -> &'static Dataset {
        static DATA: OnceLock<Dataset> = OnceLock::new();
        DATA.get_or_init(|| {
            SyntheticEra5::new(SyntheticEra5Config::small_daily(12)).generate_member(0, 2 * 365)
        })
    }

    /// L = 8 (a 64 × 64 factor) at `policy` and `tile`.
    fn model(policy: PrecisionPolicy, tile: usize) -> TrainedEmulator {
        let mut cfg = EmulatorConfig::small(8);
        cfg.precision = policy;
        cfg.tile = tile;
        ClimateEmulator::train(training(), cfg).unwrap()
    }

    fn dp_model() -> &'static TrainedEmulator {
        static MODEL: OnceLock<TrainedEmulator> = OnceLock::new();
        MODEL.get_or_init(|| model(PrecisionPolicy::dp(), 16))
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every field of `a` and `b`, bit for bit.
    fn assert_same_model(a: &TrainedEmulator, b: &TrainedEmulator) {
        let trend = |em: &TrainedEmulator| {
            em.trend
                .iter()
                .flat_map(|m| {
                    [m.beta0, m.beta1, m.beta2, m.rho, m.sigma]
                        .into_iter()
                        .chain(m.harmonics.iter().flat_map(|&(a, b)| [a, b]))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&trend(a)), bits(&trend(b)), "trend");
        let phi = |em: &TrainedEmulator| em.var.phi.concat();
        assert_eq!(
            (a.var.order, bits(&phi(a))),
            (b.var.order, bits(&phi(b))),
            "var"
        );
        assert_eq!(bits(&a.factor), bits(&b.factor), "factor");
        assert_eq!(bits(&a.v2), bits(&b.v2), "v2");
        assert_eq!(
            (a.forcing.first_year(), bits(&forcing_values(&a.forcing))),
            (b.forcing.first_year(), bits(&forcing_values(&b.forcing))),
            "forcing"
        );
        assert_eq!(
            (a.ntheta, a.nphi, a.start_year, a.jitter.to_bits()),
            (b.ntheta, b.nphi, b.start_year, b.jitter.to_bits())
        );
        // The configuration, field by field, through its serde form.
        assert_eq!(
            serde_json::to_string(&a.config).unwrap(),
            serde_json::to_string(&b.config).unwrap()
        );
    }

    /// Offsets of the payload's parts: header end, rho grid end, then the
    /// end of each section up to the width table's.
    fn boundaries(em: &TrainedEmulator, payload: &[u8]) -> Vec<usize> {
        let (layout, _, _) = plan(em);
        let mut at = vec![HEADER_BYTES, HEADER_BYTES + layout.rho];
        for len in layout.sections {
            at.push(at.last().unwrap() + len);
        }
        at.push(at.last().unwrap() + layout.tiles);
        assert!(*at.last().unwrap() < payload.len());
        at
    }

    fn set_word(payload: &mut [u8], index: usize, value: u64) {
        payload[index * 8..index * 8 + 8].copy_from_slice(&value.to_le_bytes());
    }

    #[test]
    fn hostile_payloads_are_typed_errors_before_any_large_allocation() {
        let em = dp_model();
        let good = encode(em);
        let cuts = boundaries(em, &good);
        let widths_at = cuts[cuts.len() - 2];
        let mut hostile: Vec<(String, Vec<u8>)> = Vec::new();
        // Truncated at and next to every part boundary.
        for &cut in [0, 8, HEADER_BYTES - 1].iter().chain(&cuts) {
            for at in [cut, cut + 1] {
                hostile.push((format!("truncated at {at}"), good[..at].to_vec()));
            }
        }
        hostile.push(("last byte cut".into(), good[..good.len() - 1].to_vec()));
        hostile.push(("trailing byte".into(), [&good[..], &[0]].concat()));
        for w in [0u8, 1, 3, 16, 255] {
            let mut p = good.clone();
            p[widths_at + 3] = w;
            hostile.push((format!("width byte {w}"), p));
        }
        // Header words (module docs): 0 lmax, 1 K, 4 tile, 9 ntheta,
        // 10 nphi, 14 rho count, 15 forcing count, 16.. section lengths.
        for (what, edits) in [
            ("lmax² overflows", vec![(0, 1u64 << 33)]),
            ("lmax·lmax fits, L⁴ does not", vec![(0, 1u64 << 20)]),
            (
                "ntheta·nphi overflows",
                vec![(9, 1u64 << 33), (10, 1 << 33)],
            ),
            ("K overflows", vec![(1, u64::MAX / 2)]),
            ("rho count overflows", vec![(14, u64::MAX / 4)]),
            ("forcing count overflows", vec![(15, u64::MAX / 4)]),
            ("tile 7 of L² = 64", vec![(4, 7)]),
            ("tile 0", vec![(4, 0)]),
            ("tile past L²", vec![(4, 128)]),
            ("trend length off", vec![(16, 8)]),
            ("factor length overflows", vec![(20, u64::MAX)]),
            ("no forcing", vec![(15, 0), (19, 0)]),
        ] {
            let mut p = good.clone();
            for (index, value) in edits {
                set_word(&mut p, index, value);
            }
            hostile.push((what.to_string(), p));
        }
        // A payload whose width bytes all claim 8 bytes for tiles stored
        // narrower is a length mismatch too: so take a DP/HP payload.
        let mixed = model(PrecisionPolicy::dp_hp(), 16);
        let mut widened = encode(&mixed);
        let at = boundaries(&mixed, &widened)[5];
        widened[at..at + 10].fill(8);
        hostile.push(("widths wider than the tiles".into(), widened));

        for (what, payload) in &hostile {
            let (result, largest) = watch::largest_allocation(|| decode(payload));
            match result {
                Err(EmulationError::Data(msg)) => {
                    assert!(msg.starts_with("snapshot v2"), "{what}: {msg}")
                }
                other => panic!("{what}: {other:?}"),
            }
            assert!(
                largest <= payload.len().max(256),
                "{what}: allocated {largest} bytes for a {}-byte payload",
                payload.len()
            );
        }
        // The intact payload decodes, allocating its factor: the watch
        // sees that allocation.
        let (back, largest) = watch::largest_allocation(|| decode(&good));
        assert_same_model(em, &back.unwrap());
        assert!(largest >= em.factor.len() * 8, "{largest}");
    }

    #[test]
    fn signed_zeros_and_subnormals_round_trip_bit_for_bit() {
        let mut em = dp_model().clone();
        let (layout, _, _) = plan(&em);
        let tile_values = |em: &mut TrainedEmulator, i: usize, j: usize, values: &[f64]| {
            for r in 0..layout.b {
                for (k, v) in em.factor[layout.tile_row(i, j, r)].iter_mut().enumerate() {
                    *v = values[(r + k) % values.len()];
                }
            }
        };
        // binary16: ±0, its smallest subnormal, a larger subnormal, one.
        let f16 = [0.0, -0.0, 2f64.powi(-24), -3.0 * 2f64.powi(-20), 1.0];
        // f32 subnormals, beside ±0.
        let f32s = [
            0.0,
            -0.0,
            f32::from_bits(1) as f64,
            -(f32::MIN_POSITIVE / 4.0) as f64,
        ];
        // f64 subnormals.
        let f64s = [-0.0, f64::from_bits(1), -f64::MIN_POSITIVE / 8.0, 0.0];
        tile_values(&mut em, 1, 0, &f16);
        tile_values(&mut em, 2, 0, &f32s);
        tile_values(&mut em, 2, 1, &f64s);
        tile_values(&mut em, 3, 3, &f16);
        let payload = encode(&em);
        assert_eq!(payload.len(), encoded_len(&em));
        let at = boundaries(&em, &payload)[5];
        // Tiles (0,0) (1,0) (1,1) (2,0) (2,1) (2,2) (3,0) … (3,3).
        assert_eq!(&payload[at..at + 10], &[8, 2, 8, 4, 8, 8, 8, 8, 8, 2]);
        assert_same_model(&em, &decode(&payload).unwrap());
    }

    #[test]
    fn every_variant_reloads_at_two_tile_sizes_and_emulates_bit_identically() {
        let adaptive = PrecisionPolicy::Adaptive {
            dp_threshold: 0.5,
            sp_threshold: 0.05,
        };
        for tile in [8, 16] {
            let nt = 64 / tile;
            let policies = Variant::all().map(|v| v.policy(nt));
            for policy in policies.into_iter().chain([adaptive]) {
                let case = format!("{} at b = {tile}", policy.label());
                let em = model(policy, tile);
                let snap = em.to_snapshot();
                assert_eq!(em.parameter_bytes(), snap.payload.len(), "{case}");
                let back = TrainedEmulator::from_snapshot(&snap).unwrap();
                assert_same_model(&em, &back);
                assert_eq!(
                    bits(&em.emulate(40, 11).unwrap().data),
                    bits(&back.emulate(40, 11).unwrap().data),
                    "{case}"
                );
                // A trained factor stores every band tile at its policy's
                // width; an adaptive one at whatever holds it.
                let (layout, codecs, _) = plan(&em);
                if !matches!(policy, PrecisionPolicy::Adaptive { .. }) {
                    for ((i, j, _), codec) in layout.tiles().zip(&codecs) {
                        let width = policy.assign(i, j, 1.0).bytes();
                        assert_eq!(codec.value_width(), width, "{case}: tile ({i}, {j})");
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_schema_versions_are_refused() {
        let payload = dp_model().to_snapshot().payload;
        for version in [0, 3, 999] {
            let snap = Snapshot::new(TrainedEmulator::SNAPSHOT_MEMBER, version, payload.clone());
            match TrainedEmulator::from_snapshot(&snap) {
                Err(EmulationError::Data(msg)) => {
                    assert!(msg.contains(&format!("version {version} ")), "{msg}")
                }
                other => panic!("version {version}: {other:?}"),
            }
        }
        // A v2 payload labelled v1 is not JSON.
        let mislabelled = Snapshot::new(TrainedEmulator::SNAPSHOT_MEMBER, 1, payload);
        assert!(TrainedEmulator::from_snapshot(&mislabelled).is_err());
    }
}
