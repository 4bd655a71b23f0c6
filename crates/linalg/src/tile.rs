//! Square matrix tiles in one of three storage precisions.

use crate::f16::{narrow_f64_into, widen_f64_into, widen_into, Half};
use crate::precision::Precision;

/// Payload of a tile, in its storage precision.
#[derive(Debug, Clone)]
pub enum TileData {
    /// Double precision elements.
    F64(Vec<f64>),
    /// Single precision elements.
    F32(Vec<f32>),
    /// Half precision elements (binary16 bit patterns).
    F16(Vec<u16>),
}

/// A `b × b` row-major tile.
#[derive(Debug, Clone)]
pub struct Tile {
    b: usize,
    data: TileData,
}

impl Tile {
    /// Zero tile of side `b` in the given precision.
    pub fn zeros(b: usize, p: Precision) -> Self {
        let n = b * b;
        let data = match p {
            Precision::Double => TileData::F64(vec![0.0; n]),
            Precision::Single => TileData::F32(vec![0.0; n]),
            Precision::Half => TileData::F16(vec![0; n]),
        };
        Self { b, data }
    }

    /// Build from row-major f64 values, rounding to the target precision.
    pub fn from_f64(b: usize, values: &[f64], p: Precision) -> Self {
        assert_eq!(values.len(), b * b, "tile payload must be b²");
        Self::from_rows(b, std::iter::once(values), p)
    }

    /// Build from `b²` f64 values handed over in row-major pieces (the rows
    /// of a block of a larger matrix), rounding to the target precision.
    pub fn from_rows<'a>(b: usize, rows: impl Iterator<Item = &'a [f64]>, p: Precision) -> Self {
        fn gather<'a, T>(
            n: usize,
            rows: impl Iterator<Item = &'a [f64]>,
            conv: impl Fn(&[f64], &mut Vec<T>),
        ) -> Vec<T> {
            let mut v = Vec::with_capacity(n);
            for row in rows {
                conv(row, &mut v);
            }
            assert_eq!(v.len(), n, "tile payload must be b²");
            v
        }
        let n = b * b;
        let data = match p {
            Precision::Double => TileData::F64(gather(n, rows, |r, v| v.extend_from_slice(r))),
            Precision::Single => TileData::F32(gather(n, rows, |r, v| {
                v.extend(r.iter().map(|&x| x as f32))
            })),
            Precision::Half => TileData::F16(gather(n, rows, |r, v| {
                let at = v.len();
                v.resize(at + r.len(), 0);
                narrow_f64_into(r, &mut v[at..]);
            })),
        };
        Self { b, data }
    }

    /// Tile side length.
    pub fn b(&self) -> usize {
        self.b
    }

    /// Storage precision.
    pub fn precision(&self) -> Precision {
        match self.data {
            TileData::F64(_) => Precision::Double,
            TileData::F32(_) => Precision::Single,
            TileData::F16(_) => Precision::Half,
        }
    }

    pub(crate) fn data(&self) -> &TileData {
        &self.data
    }

    pub(crate) fn data_mut(&mut self) -> &mut TileData {
        &mut self.data
    }

    /// Bytes occupied by the payload.
    pub fn bytes(&self) -> usize {
        self.b * self.b * self.precision().bytes()
    }

    /// Widen the payload to f64 (exact for every storage precision).
    pub fn to_f64(&self) -> Vec<f64> {
        match &self.data {
            TileData::F64(v) => v.clone(),
            TileData::F32(v) => v.iter().map(|&x| x as f64).collect(),
            TileData::F16(v) => {
                let mut out = vec![0.0; v.len()];
                widen_f64_into(v, &mut out);
                out
            }
        }
    }

    /// Widen the payload to f32 (exact from f16; rounds from f64).
    pub fn to_f32(&self) -> Vec<f32> {
        match &self.data {
            TileData::F64(v) => v.iter().map(|&x| x as f32).collect(),
            TileData::F32(v) => v.clone(),
            TileData::F16(v) => {
                let mut out = vec![0.0; v.len()];
                widen_into(v, &mut out);
                out
            }
        }
    }

    /// Widen the first `out.len()` elements of row `r` into `out`.
    pub fn widen_row(&self, r: usize, out: &mut [f64]) {
        assert!(r < self.b && out.len() <= self.b);
        let at = r * self.b;
        match &self.data {
            TileData::F64(v) => out.copy_from_slice(&v[at..at + out.len()]),
            TileData::F32(v) => {
                for (d, &s) in out.iter_mut().zip(&v[at..]) {
                    *d = s as f64;
                }
            }
            TileData::F16(v) => widen_f64_into(&v[at..at + out.len()], out),
        }
    }

    /// Element access, widened to f64.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.b && j < self.b);
        match &self.data {
            TileData::F64(v) => v[i * self.b + j],
            TileData::F32(v) => v[i * self.b + j] as f64,
            TileData::F16(v) => Half(v[i * self.b + j]).to_f64(),
        }
    }

    /// Convert to another precision (a "reshape" in PaRSEC terms). Converting
    /// to the same precision is a cheap clone.
    pub fn convert(&self, p: Precision) -> Tile {
        if p == self.precision() {
            return self.clone();
        }
        Tile::from_f64(self.b, &self.to_f64(), p)
    }

    /// Frobenius norm of the tile (computed in f64).
    pub fn frobenius_norm(&self) -> f64 {
        self.to_f64().iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

/// Payload writes for the reference kernels in `kernels.rs`' tests, which
/// compute in f64 or f32 and store back at the tile's precision.
#[cfg(test)]
impl Tile {
    /// Overwrite the payload from f64 values, rounding to this tile's
    /// precision.
    pub(crate) fn store_f64(&mut self, values: &[f64]) {
        assert_eq!(values.len(), self.b * self.b);
        match &mut self.data {
            TileData::F64(v) => v.copy_from_slice(values),
            TileData::F32(v) => {
                for (d, &s) in v.iter_mut().zip(values) {
                    *d = s as f32;
                }
            }
            TileData::F16(v) => narrow_f64_into(values, v),
        }
    }

    /// Overwrite the payload from f32 values.
    pub(crate) fn store_f32(&mut self, values: &[f32]) {
        assert_eq!(values.len(), self.b * self.b);
        match &mut self.data {
            TileData::F64(v) => {
                for (d, &s) in v.iter_mut().zip(values) {
                    *d = s as f64;
                }
            }
            TileData::F32(v) => v.copy_from_slice(values),
            TileData::F16(v) => crate::f16::narrow_into(values, v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_values(b: usize) -> Vec<f64> {
        (0..b * b).map(|k| (k as f64 * 0.37).sin() * 3.0).collect()
    }

    #[test]
    fn roundtrip_exact_in_double() {
        let v = sample_values(4);
        let t = Tile::from_f64(4, &v, Precision::Double);
        assert_eq!(t.to_f64(), v);
        assert_eq!(t.precision(), Precision::Double);
        assert_eq!(t.bytes(), 16 * 8);
    }

    #[test]
    fn half_storage_quantizes() {
        let v = sample_values(3);
        let t = Tile::from_f64(3, &v, Precision::Half);
        assert_eq!(t.bytes(), 9 * 2);
        for (orig, stored) in v.iter().zip(t.to_f64()) {
            if *orig == 0.0 {
                assert_eq!(stored, 0.0);
                continue;
            }
            let rel = ((stored - orig) / orig).abs();
            assert!(rel <= Half::UNIT_ROUNDOFF * 1.001, "rel={rel}");
        }
        // Quantization is idempotent.
        let t2 = Tile::from_f64(3, &t.to_f64(), Precision::Half);
        assert_eq!(t.to_f64(), t2.to_f64());
    }

    #[test]
    fn convert_between_precisions() {
        let v = sample_values(5);
        let dp = Tile::from_f64(5, &v, Precision::Double);
        let hp = dp.convert(Precision::Half);
        assert_eq!(hp.precision(), Precision::Half);
        let widened = hp.convert(Precision::Double);
        // Widening after narrowing preserves the narrowed values exactly.
        assert_eq!(widened.to_f64(), hp.to_f64());
    }

    #[test]
    fn get_matches_layout() {
        let v: Vec<f64> = (0..9).map(|x| x as f64).collect();
        let t = Tile::from_f64(3, &v, Precision::Double);
        assert_eq!(t.get(0, 0), 0.0);
        assert_eq!(t.get(1, 2), 5.0);
        assert_eq!(t.get(2, 1), 7.0);
    }

    #[test]
    fn frobenius_norm_value() {
        let t = Tile::from_f64(2, &[3.0, 0.0, 0.0, 4.0], Precision::Single);
        assert!((t.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn store_f64_rounds_to_own_precision() {
        let mut t = Tile::zeros(2, Precision::Half);
        t.store_f64(&[1.0005, 2.0, -3.0, 0.1]);
        let back = t.to_f64();
        assert_eq!(back[1], 2.0);
        assert!((back[0] - 1.0005).abs() < 1e-3);
        assert!((back[0] - 1.0005).abs() > 0.0, "must actually quantize");
    }
}
