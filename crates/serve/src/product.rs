//! Derived-product descriptors and results of the scenario engine.
//!
//! A [`ProductDescriptor`] names a derived climate product declaratively:
//! a **source** (an archive member, or a fresh ensemble of emulator
//! realizations), a **statistic** over that source (raw values, anomaly
//! against a baseline member, mean/spread, trend fit, persistence fit,
//! Tukey tail extremes), and optional **time/space windows**. Descriptors
//! contain no floats, so they derive `Eq + Hash`, and the product cache
//! keys them by that derived hash ([`ProductDescriptor::key`], a
//! [`ProductKey`]): two requests describe the same product if and only if
//! they hash to the same key, which is what lets a stampede on a popular
//! product compute it exactly once.
//!
//! The result of evaluating a descriptor is a [`ProductData`]: a dense
//! realization-major `realizations × rows × values_per_row` block of
//! `f64` values whose geometry is a deterministic function of the
//! descriptor — the cache stores only the flat values and the shape is
//! re-derived on every hit.

use std::hash::{Hash, Hasher};
use std::ops::Range;

/// An ensemble scenario: `realizations` stochastic runs of a registered
/// emulator, each `t_max` steps long, seeded per realization from `seed`
/// (see [`crate::scenario::realization_seed`]) so the ensemble is
/// bit-identical at any thread count.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScenarioSpec {
    /// Catalog name of the emulator.
    pub emulator: String,
    /// Steps per realization.
    pub t_max: u64,
    /// Base seed; realization `k` runs with a seed derived from
    /// `(seed, k)`, never from scheduling order.
    pub seed: u64,
    /// Number of stochastic realizations.
    pub realizations: u32,
}

/// What a product is computed *from*.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ProductSource {
    /// A stored field member of an open archive (one "realization").
    Member {
        /// Catalog name of the archive.
        archive: String,
        /// Member name within the archive.
        member: String,
    },
    /// A fresh ensemble emulated on the server.
    Ensemble(ScenarioSpec),
}

/// The statistic derived from the (windowed) source.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ProductStat {
    /// The source values themselves, re-sliced: `realizations` ×
    /// `t_len` rows of `s_len` values.
    Raw,
    /// Source minus a baseline member over the same window, per
    /// realization: the baseline member must cover the window and share
    /// the source's grid width.
    Anomaly {
        /// Catalog name of the baseline's archive.
        archive: String,
        /// Baseline member name.
        member: String,
    },
    /// Two rows per location: mean and sample standard deviation over
    /// every `(realization, time)` sample.
    MeanStd,
    /// Per-location trend fit via [`exaclim_stats::trend::fit_location`]:
    /// five rows `[β₀, β₁, β₂, ρ, σ]` (fit on the ensemble-mean series
    /// when the source has several realizations).
    Trend,
    /// Per-location AR(`order`) persistence fit pooled across
    /// realizations via
    /// [`exaclim_stats::var::fit_diagonal_var_multi`]: `order` rows of
    /// lag coefficients `φ₁..φ_order`, then one row of innovation
    /// standard deviations.
    Persistence {
        /// AR model order (1..=8).
        order: u32,
    },
    /// Per-location Tukey g-and-h tail fit over every
    /// `(realization, time)` sample
    /// ([`exaclim_stats::tukey::fit_tukey_gh`]): four rows
    /// `[g, h, lower extreme, upper extreme]`, the extremes being the
    /// fitted transform evaluated at the `tail_per_mille`/1000 and
    /// `1 − tail_per_mille/1000` normal quantiles.
    TukeyExtremes {
        /// Tail mass in per-mille (1..=499); 10 ⇒ the 1% and 99% tails.
        tail_per_mille: u32,
    },
}

/// A complete derived-product request: source, statistic, and optional
/// half-open time/space windows (`None` ⇒ the full extent). Windows apply
/// to the source *before* the statistic, and every statistic is
/// computed per location independently — so windowing commutes with the
/// statistics and re-sliced products are bit-identical sub-blocks.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProductDescriptor {
    /// Where the values come from.
    pub source: ProductSource,
    /// What to compute over them.
    pub stat: ProductStat,
    /// Time-step window into the source (`None` ⇒ `0..t_max`).
    pub time: Option<Range<u64>>,
    /// Grid-point window into each slice (`None` ⇒ all points).
    pub space: Option<Range<u64>>,
}

impl ProductDescriptor {
    /// The 128-bit cache key of this descriptor: its derived [`Hash`]
    /// fed to two FNV-1a lanes with different offsets. Every field feeds
    /// it, strings whole and self-delimited (bytes then `0xff`), so equal
    /// descriptors — and only equal descriptors, up to 128-bit hash
    /// collision — produce equal keys. The key lives only in memory: it
    /// is never sent or stored.
    ///
    /// ```
    /// use exaclim_serve::{ProductDescriptor, ProductSource, ProductStat};
    ///
    /// let d = ProductDescriptor {
    ///     source: ProductSource::Member {
    ///         archive: "era5".to_string(),
    ///         member: "t2m".to_string(),
    ///     },
    ///     stat: ProductStat::MeanStd,
    ///     time: Some(0..10),
    ///     space: None,
    /// };
    /// assert_eq!(d.key(), d.clone().key());
    /// let mut other = d.clone();
    /// other.time = Some(0..11);
    /// assert_ne!(d.key(), other.key());
    /// ```
    pub fn key(&self) -> ProductKey {
        let mut h = Fnv2 {
            hi: 0xcbf2_9ce4_8422_2325,
            lo: 0xcbf2_9ce4_8422_2325 ^ 0x9E37_79B9_7F4A_7C15,
        };
        self.hash(&mut h);
        ProductKey { hi: h.hi, lo: h.lo }
    }
}

/// Two FNV-1a lanes over the same bytes, differing only in their offset.
struct Fnv2 {
    hi: u64,
    lo: u64,
}

impl Hasher for Fnv2 {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.hi = (self.hi ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            self.lo = (self.lo ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.hi
    }
}

/// 128-bit hash identity of one [`ProductDescriptor`] in the product
/// cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProductKey {
    /// High hash half.
    pub hi: u64,
    /// Low hash half.
    pub lo: u64,
}

/// An evaluated product: a dense realization-major block of values.
///
/// `values[(r × rows + row) × values_per_row + col]` is realization `r`,
/// row `row`, column `col`. For [`ProductStat::Raw`] and
/// [`ProductStat::Anomaly`] the rows are time steps and the columns grid
/// points of the window; for the reduced statistics `realizations` is 1
/// and each row is one output plane over the window's grid points.
#[derive(Debug, Clone, PartialEq)]
pub struct ProductData {
    /// Realization count of the block (1 for reduced statistics).
    pub realizations: u32,
    /// Rows per realization (time steps, or statistic planes).
    pub rows: u64,
    /// Values per row (grid points of the space window).
    pub values_per_row: u64,
    /// `realizations × rows × values_per_row` values.
    pub values: Vec<f64>,
}

impl ProductData {
    /// One realization's `rows × values_per_row` block.
    ///
    /// # Panics
    /// If `r` is out of range.
    pub fn realization(&self, r: u32) -> &[f64] {
        assert!(r < self.realizations, "realization {r} out of range");
        let block = (self.rows * self.values_per_row) as usize;
        &self.values[r as usize * block..(r as usize + 1) * block]
    }

    /// One row (of one realization) as a slice.
    ///
    /// # Panics
    /// If `r` or `row` is out of range.
    pub fn row(&self, r: u32, row: u64) -> &[f64] {
        assert!(row < self.rows, "row {row} out of range");
        let w = self.values_per_row as usize;
        let start = row as usize * w;
        &self.realization(r)[start..start + w]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member_raw() -> ProductDescriptor {
        ProductDescriptor {
            source: ProductSource::Member {
                archive: "a".to_string(),
                member: "m".to_string(),
            },
            stat: ProductStat::Raw,
            time: None,
            space: None,
        }
    }

    #[test]
    fn equal_descriptors_share_a_key() {
        assert_eq!(member_raw().key(), member_raw().key());
        let spec = ScenarioSpec {
            emulator: "em".to_string(),
            t_max: 30,
            seed: 7,
            realizations: 4,
        };
        let e = ProductDescriptor {
            source: ProductSource::Ensemble(spec.clone()),
            stat: ProductStat::MeanStd,
            time: Some(3..9),
            space: Some(0..5),
        };
        assert_eq!(e.key(), e.clone().key());
        let f = ProductDescriptor {
            source: ProductSource::Ensemble(spec),
            stat: ProductStat::MeanStd,
            time: Some(3..9),
            space: Some(0..5),
        };
        assert_eq!(e.key(), f.key());
    }

    #[test]
    fn every_field_feeds_the_key() {
        let base = member_raw();
        let mut variants = vec![base.clone()];
        let mut d = base.clone();
        d.source = ProductSource::Member {
            archive: "a".to_string(),
            member: "m2".to_string(),
        };
        variants.push(d);
        let mut d = base.clone();
        d.stat = ProductStat::MeanStd;
        variants.push(d);
        let mut d = base.clone();
        d.stat = ProductStat::Trend;
        variants.push(d);
        let mut d = base.clone();
        d.stat = ProductStat::Persistence { order: 1 };
        variants.push(d);
        let mut d = base.clone();
        d.stat = ProductStat::Persistence { order: 2 };
        variants.push(d);
        let mut d = base.clone();
        d.stat = ProductStat::TukeyExtremes { tail_per_mille: 10 };
        variants.push(d);
        let mut d = base.clone();
        d.stat = ProductStat::Anomaly {
            archive: "a".to_string(),
            member: "m".to_string(),
        };
        variants.push(d);
        let mut d = base.clone();
        d.time = Some(0..10);
        variants.push(d);
        let mut d = base.clone();
        d.time = Some(0..11);
        variants.push(d);
        let mut d = base.clone();
        d.space = Some(0..10);
        variants.push(d);
        for spec in [
            ScenarioSpec {
                emulator: "em".to_string(),
                t_max: 30,
                seed: 7,
                realizations: 4,
            },
            ScenarioSpec {
                emulator: "em".to_string(),
                t_max: 30,
                seed: 8,
                realizations: 4,
            },
            ScenarioSpec {
                emulator: "em".to_string(),
                t_max: 30,
                seed: 7,
                realizations: 5,
            },
            ScenarioSpec {
                emulator: "em".to_string(),
                t_max: 31,
                seed: 7,
                realizations: 4,
            },
        ] {
            let mut d = base.clone();
            d.source = ProductSource::Ensemble(spec);
            variants.push(d);
        }
        for i in 0..variants.len() {
            for j in i + 1..variants.len() {
                assert_ne!(
                    variants[i].key(),
                    variants[j].key(),
                    "{:?} vs {:?}",
                    variants[i],
                    variants[j]
                );
            }
        }
    }

    #[test]
    fn ambiguous_string_pairs_hash_apart() {
        // Self-delimited strings: ("ab", "c") must not collide with
        // ("a", "bc").
        let d1 = ProductDescriptor {
            source: ProductSource::Member {
                archive: "ab".to_string(),
                member: "c".to_string(),
            },
            ..member_raw()
        };
        let d2 = ProductDescriptor {
            source: ProductSource::Member {
                archive: "a".to_string(),
                member: "bc".to_string(),
            },
            ..member_raw()
        };
        assert_ne!(d1.key(), d2.key());
        // The wire clips strings to `MAX_STR_LEN` bytes; the key must not.
        let long = "a".repeat(crate::wire::MAX_STR_LEN as usize);
        let named = |tail: &str| ProductDescriptor {
            source: ProductSource::Member {
                archive: format!("{long}{tail}"),
                member: "m".to_string(),
            },
            ..member_raw()
        };
        assert_ne!(named("x").key(), named("y").key());
    }

    #[test]
    fn product_data_indexing() {
        let p = ProductData {
            realizations: 2,
            rows: 3,
            values_per_row: 2,
            values: (0..12).map(f64::from).collect(),
        };
        assert_eq!(p.realization(0), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(p.row(1, 2), &[10.0, 11.0]);
    }
}
