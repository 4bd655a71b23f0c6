//! Seeded inputs and output hashing.
//!
//! Everything the program under test sees is generated here from `--seed`.
//! The generators are pure functions of the seed (pinned by a unit test)
//! and are built so that the *amount of work* per op does not depend on
//! the seed — only which data is touched does — so runs at different
//! seeds are comparable.

use exaclim_serve::{Request, SliceRequest};

/// Catalog name of the archive every serve workload reads.
pub const ARCHIVE: &str = "bench";
/// Member name of the field inside it.
pub const MEMBER: &str = "t2m/member0";

/// SplitMix64 — the harness's own generator, so request streams do not
/// change if the workspace's `rand` stand-in does.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Stream `stream` of seed `seed` (streams are decorrelated).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        s.next_u64();
        s
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`; the modulo bias is < 2⁻⁴⁰ at
    /// the sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// 64-bit hash of a value sequence over the values' bit patterns: four
/// interleaved multiply–rotate lanes (one lane would be latency-bound),
/// folded with the length. Every lane step is a bijection of the incoming
/// word, so flipping any single bit of any value changes the result.
pub fn hash_f64s(values: &[f64]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lanes = [
        0x243F_6A88_85A3_08D3u64,
        0x1319_8A2E_0370_7344,
        0xA409_3822_299F_31D0,
        0x082E_FA98_EC4E_6C89,
    ];
    // `chunks_exact` lets the compiler unroll the four lanes without a
    // length check per chunk: verifying a 6.5 MiB response has to stay well
    // under the op it checks.
    let mut chunks = values.chunks_exact(4);
    for c in &mut chunks {
        for (lane, v) in lanes.iter_mut().zip(c) {
            *lane = (lane.rotate_left(23) ^ v.to_bits()).wrapping_mul(K);
        }
    }
    for (lane, v) in lanes.iter_mut().zip(chunks.remainder()) {
        *lane = (lane.rotate_left(23) ^ v.to_bits()).wrapping_mul(K);
    }
    let mut h = values.len() as u64;
    for lane in lanes {
        h = (h.rotate_left(17) ^ lane).wrapping_mul(K);
        h ^= h >> 32;
    }
    h
}

/// A slice request against the benchmark archive.
pub fn slice(range: std::ops::Range<u64>) -> Request {
    Request::Slice(SliceRequest {
        archive: ARCHIVE.to_string(),
        member: MEMBER.to_string(),
        range,
    })
}

/// Geometry of the archive the request generators aim at.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Time steps of the member.
    pub t_max: u64,
    /// Time steps per chunk.
    pub chunk_t: u64,
}

/// `serve_cold`: `pool` batches of 8 requests × 48 steps.
///
/// The time axis is cut into four equal strata; each stratum gets one
/// *pair* of windows, the second starting exactly one chunk after the
/// first. A window never starts on a chunk boundary, so it always touches
/// 4 chunks, and a pair shares 3 of them: every batch is 32 chunk touches
/// coalescing to 20 distinct chunks, whatever the seed.
pub fn cold_batches(seed: u64, pool: usize, shape: Shape) -> Vec<Vec<Request>> {
    const STEPS: u64 = 48;
    let c = shape.chunk_t;
    assert!(
        STEPS.is_multiple_of(c) && c >= 2,
        "window must be whole chunks long"
    );
    let stratum_chunks = shape.t_max / c / 4;
    // Chunks a pair spans: one window is STEPS/c + 1, the partner one more.
    let pair_chunks = STEPS / c + 2;
    assert!(
        stratum_chunks >= pair_chunks,
        "member too short for the strata"
    );
    let mut rng = SplitMix64::new(seed, 1);
    (0..pool)
        .map(|_| {
            let mut batch = Vec::with_capacity(8);
            for stratum in 0..4 {
                let first_chunk =
                    stratum * stratum_chunks + rng.below(stratum_chunks - pair_chunks + 1);
                let start = first_chunk * c + 1 + rng.below(c - 1);
                batch.push(slice(start..start + STEPS));
                batch.push(slice(start + c..start + c + STEPS));
            }
            batch
        })
        .collect()
}

/// `serve_net_bulk`: `pool` single-request batches of 256 steps, never
/// chunk-aligned, so each touches `256 / chunk_t + 1` chunks.
pub fn bulk_batches(seed: u64, pool: usize, shape: Shape) -> Vec<Vec<Request>> {
    const STEPS: u64 = 256;
    let c = shape.chunk_t;
    assert!(STEPS.is_multiple_of(c) && c >= 2 && shape.t_max >= STEPS + c);
    let first_chunks = (shape.t_max - STEPS) / c;
    let mut rng = SplitMix64::new(seed, 2);
    (0..pool)
        .map(|_| {
            let start = rng.below(first_chunks) * c + 1 + rng.below(c - 1);
            vec![slice(start..start + STEPS)]
        })
        .collect()
}

/// `serve_net_small`: `pool` ops of 256 single-step requests each, sent
/// one per round trip.
pub fn small_ops(seed: u64, pool: usize, shape: Shape) -> Vec<Vec<Request>> {
    let mut rng = SplitMix64::new(seed, 3);
    (0..pool)
        .map(|_| {
            (0..256)
                .map(|_| {
                    let t = rng.below(shape.t_max);
                    slice(t..t + 1)
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaclim_serve::wire::encode_request_batch;

    /// FNV-1a over bytes, to pin generator output.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    const SHAPE: Shape = Shape {
        t_max: 2048,
        chunk_t: 16,
    };

    fn range_of(r: &Request) -> std::ops::Range<u64> {
        match r {
            Request::Slice(s) => s.range.clone(),
            other => panic!("not a slice: {other:?}"),
        }
    }

    #[test]
    fn request_generator_is_a_pure_function_of_the_seed() {
        let a = cold_batches(20260928, 4, SHAPE);
        assert_eq!(a, cold_batches(20260928, 4, SHAPE));
        assert_ne!(a, cold_batches(20260929, 4, SHAPE));
        // Pinned: a change here silently changes every serve workload.
        let pins = [
            fnv1a(&encode_request_batch(&a[0])),
            fnv1a(&encode_request_batch(&bulk_batches(20260928, 2, SHAPE)[0])),
            fnv1a(&encode_request_batch(&small_ops(20260928, 1, SHAPE)[0])),
        ];
        assert_eq!(
            pins,
            [
                0xAE28_0A06_8CEE_3EBD,
                0x6FAC_F3E6_1813_85F2,
                0x82B2_0B29_716D_CC59
            ],
            "{pins:#018X?}"
        );
    }

    #[test]
    fn work_per_op_does_not_depend_on_the_seed() {
        for seed in [1u64, 2, 20260928, u64::MAX] {
            for batch in cold_batches(seed, 16, SHAPE) {
                assert_eq!(batch.len(), 8);
                let mut chunks = std::collections::BTreeSet::new();
                let mut touches = 0;
                for r in &batch {
                    let r = range_of(r);
                    assert_eq!(r.end - r.start, 48);
                    assert!(r.end <= SHAPE.t_max);
                    for chunk in r.start / 16..=(r.end - 1) / 16 {
                        chunks.insert(chunk);
                        touches += 1;
                    }
                }
                assert_eq!((touches, chunks.len()), (32, 20));
            }
            for batch in bulk_batches(seed, 16, SHAPE) {
                let r = range_of(&batch[0]);
                assert!(r.end <= SHAPE.t_max);
                assert_eq!((r.end - 1) / 16 - r.start / 16 + 1, 17);
            }
            for op in small_ops(seed, 2, SHAPE) {
                assert_eq!(op.len(), 256);
                assert!(op.iter().all(|r| range_of(r).end <= SHAPE.t_max));
            }
        }
    }

    #[test]
    fn hash_sees_every_bit_and_the_length() {
        let v: Vec<f64> = (0..37).map(|i| 250.0 + f64::from(i) * 0.37).collect();
        let h = hash_f64s(&v);
        assert_eq!(h, hash_f64s(&v));
        for i in [0usize, 3, 4, 17, 35, 36] {
            for bit in [0u32, 31, 52, 63] {
                let mut w = v.clone();
                w[i] = f64::from_bits(w[i].to_bits() ^ (1u64 << bit));
                assert_ne!(hash_f64s(&w), h, "value {i} bit {bit}");
            }
        }
        assert_ne!(hash_f64s(&v[..36]), h);
        assert_ne!(hash_f64s(&[]), hash_f64s(&[0.0]));
    }
}
