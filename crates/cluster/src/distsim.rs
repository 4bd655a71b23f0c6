//! Simulated distributed execution of the Cholesky DAG.
//!
//! The paper's Figure 5 ablation shows sender-side precision conversion
//! speeding up DP/HP by 1.53× on 128 Summit nodes: converting a tile *before*
//! it is broadcast shrinks every message to the consumer's precision and
//! performs the conversion once instead of at every receiving task. This
//! module replays the Cholesky communication pattern over a 2D block-cyclic
//! tile distribution and ledgers messages, bytes, and conversions for both
//! placements. [`ConversionSide`] is also the conversion switch of the
//! timing model in [`crate::sim`].
//!
//! The two models stay separate because they answer at different scales:
//! this one walks every broadcast of every tile and is exact, which is
//! affordable only at small `nt`. [`crate::sim`] times whole panels in
//! closed form so that the paper's matrices, `nt` ≈ 4 000 tiles per side,
//! simulate in microseconds.

use exaclim_linalg::precision::{Precision, PrecisionPolicy};
use serde::{Deserialize, Serialize};

/// Where precision conversion happens relative to communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConversionSide {
    /// Convert at the sender; messages travel at the consumer precision
    /// (the optimization introduced in §V.A).
    Sender,
    /// Convert at each receiver; messages travel at the producer precision.
    Receiver,
}

/// Distributed-run configuration.
#[derive(Debug, Clone, Copy)]
pub struct DistConfig {
    /// Process-grid rows.
    pub p: usize,
    /// Process-grid columns.
    pub q: usize,
    /// Conversion placement.
    pub conversion: ConversionSide,
}

impl DistConfig {
    /// Node owning tile `(i, j)` under 2D block-cyclic distribution.
    pub fn owner(&self, i: usize, j: usize) -> usize {
        (i % self.p) * self.q + (j % self.q)
    }

    /// Total node count.
    pub fn nodes(&self) -> usize {
        self.p * self.q
    }
}

/// Aggregate communication ledger of one simulated factorization.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MessageLedger {
    /// Point-to-point messages sent (broadcast counted per destination node).
    pub messages: usize,
    /// Total bytes on the wire.
    pub bytes: f64,
    /// Precision conversions performed (sender: per distinct wire precision
    /// per broadcast; receiver: per consuming task with mismatched
    /// precision).
    pub conversions: usize,
}

impl MessageLedger {
    fn add_message(&mut self, bytes: f64) {
        self.messages += 1;
        self.bytes += bytes;
    }
}

/// Consumers of one produced tile: `(consumer tile row, col)`.
fn trsm_consumers(nt: usize, i: usize, k: usize) -> Vec<(usize, usize)> {
    let mut v = Vec::new();
    v.push((i, i)); // SYRK(i,k) updates the diagonal tile
    for j in k + 1..i {
        v.push((i, j)); // GEMM(i,j,k), A-operand
    }
    for i2 in i + 1..nt {
        v.push((i2, i)); // GEMM(i2,i,k), B-operand
    }
    v
}

/// Replay the tile-Cholesky communication pattern for an `nt × nt` tile
/// matrix with tile side `b`, per-tile precisions from `policy`, on the
/// process grid of `cfg`.
pub fn simulate_distribution(
    nt: usize,
    b: usize,
    policy: &PrecisionPolicy,
    cfg: &DistConfig,
) -> MessageLedger {
    let tile_bytes = |p: Precision| (b * b * p.bytes()) as f64;
    let prec = |i: usize, j: usize| policy.assign(i, j, 1.0);
    let mut ledger = MessageLedger::default();

    // One broadcast: `src_tile` of precision `src_p` produced on
    // `src_owner`, consumed by tasks updating `consumers` tiles.
    let mut broadcast = |src_owner: usize, src_p: Precision, consumers: &[(usize, usize)]| {
        match cfg.conversion {
            ConversionSide::Receiver => {
                // Wire precision = producer precision; dedupe by node.
                let mut seen = vec![false; cfg.nodes()];
                for &(ci, cj) in consumers {
                    let dst = cfg.owner(ci, cj);
                    if dst != src_owner && !seen[dst] {
                        seen[dst] = true;
                        ledger.add_message(tile_bytes(src_p));
                    }
                    // Every consuming task converts on mismatch.
                    if prec(ci, cj) != src_p {
                        ledger.conversions += 1;
                    }
                }
            }
            ConversionSide::Sender => {
                // Group consumers by (node, wire precision = consumer tile
                // precision); convert once per distinct wire precision.
                let mut seen = vec![[false; 3]; cfg.nodes()];
                let mut converted = [false; 3];
                let pidx = |p: Precision| match p {
                    Precision::Half => 0usize,
                    Precision::Single => 1,
                    Precision::Double => 2,
                };
                for &(ci, cj) in consumers {
                    let wire = prec(ci, cj).max(Precision::Half).min_wire(src_p);
                    let dst = cfg.owner(ci, cj);
                    if wire != src_p && !converted[pidx(wire)] {
                        converted[pidx(wire)] = true;
                        ledger.conversions += 1;
                    }
                    if dst != src_owner && !seen[dst][pidx(wire)] {
                        seen[dst][pidx(wire)] = true;
                        ledger.add_message(tile_bytes(wire));
                    }
                }
            }
        }
    };

    for k in 0..nt {
        // POTRF(k) result to the TRSMs of panel k.
        let consumers: Vec<(usize, usize)> = (k + 1..nt).map(|i| (i, k)).collect();
        if !consumers.is_empty() {
            broadcast(cfg.owner(k, k), prec(k, k), &consumers);
        }
        // Each TRSM(i,k) result to its SYRK/GEMM consumers.
        for i in k + 1..nt {
            let consumers = trsm_consumers(nt, i, k);
            broadcast(cfg.owner(i, k), prec(i, k), &consumers);
        }
    }
    ledger
}

/// Helper: the precision actually sent on the wire for a consumer that
/// computes at `self` when the producer stores at `src`. Down-conversions
/// shrink traffic; up-conversions never happen on the wire (the receiver
/// widens for free).
trait WirePrecision {
    fn min_wire(self, src: Precision) -> Precision;
}

impl WirePrecision for Precision {
    fn min_wire(self, src: Precision) -> Precision {
        if self <= src {
            self
        } else {
            src
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(p: usize, q: usize, side: ConversionSide) -> DistConfig {
        DistConfig {
            p,
            q,
            conversion: side,
        }
    }

    #[test]
    fn block_cyclic_owner_layout() {
        let c = cfg(2, 3, ConversionSide::Receiver);
        assert_eq!(c.nodes(), 6);
        assert_eq!(c.owner(0, 0), 0);
        assert_eq!(c.owner(0, 1), 1);
        assert_eq!(c.owner(1, 0), 3);
        assert_eq!(c.owner(2, 3), 0); // wraps both dimensions
    }

    #[test]
    fn single_node_sends_nothing() {
        let l = simulate_distribution(
            8,
            16,
            &PrecisionPolicy::dp(),
            &cfg(1, 1, ConversionSide::Receiver),
        );
        assert_eq!(l.messages, 0);
        assert_eq!(l.bytes, 0.0);
        assert_eq!(l.conversions, 0, "uniform DP needs no conversions");
    }

    #[test]
    fn sender_side_shrinks_bytes_for_dp_hp() {
        let policy = PrecisionPolicy::dp_hp();
        let recv = simulate_distribution(16, 32, &policy, &cfg(2, 2, ConversionSide::Receiver));
        let send = simulate_distribution(16, 32, &policy, &cfg(2, 2, ConversionSide::Sender));
        // DP panels broadcast to HP consumers: wire shrinks 4× on those
        // edges under sender-side conversion.
        assert!(
            send.bytes < recv.bytes,
            "send={} recv={}",
            send.bytes,
            recv.bytes
        );
        assert!(send.conversions < recv.conversions);
        // Message *count* is conversion-placement independent up to the
        // per-precision split.
        assert!(send.messages >= recv.messages);
    }

    #[test]
    fn uniform_dp_is_placement_invariant() {
        let policy = PrecisionPolicy::dp();
        let recv = simulate_distribution(12, 8, &policy, &cfg(2, 3, ConversionSide::Receiver));
        let send = simulate_distribution(12, 8, &policy, &cfg(2, 3, ConversionSide::Sender));
        assert_eq!(recv, send, "no precision mismatch → identical ledgers");
    }

    #[test]
    fn bytes_scale_with_tile_size() {
        let policy = PrecisionPolicy::dp();
        let small = simulate_distribution(8, 8, &policy, &cfg(2, 2, ConversionSide::Receiver));
        let large = simulate_distribution(8, 16, &policy, &cfg(2, 2, ConversionSide::Receiver));
        assert_eq!(small.messages, large.messages);
        assert!(
            (large.bytes / small.bytes - 4.0).abs() < 1e-12,
            "b² scaling"
        );
    }

    #[test]
    fn more_nodes_mean_more_messages() {
        let policy = PrecisionPolicy::dp();
        let few = simulate_distribution(16, 8, &policy, &cfg(2, 2, ConversionSide::Receiver));
        let many = simulate_distribution(16, 8, &policy, &cfg(4, 4, ConversionSide::Receiver));
        assert!(many.messages > few.messages);
    }

    #[test]
    fn conversion_counts_follow_placement_semantics() {
        // DP producer (diagonal) with many HP consumers: receiver-side pays
        // one conversion per consuming task, sender-side one per broadcast.
        let policy = PrecisionPolicy::dp_hp();
        let nt = 12;
        let recv = simulate_distribution(nt, 8, &policy, &cfg(1, 1, ConversionSide::Receiver));
        let send = simulate_distribution(nt, 8, &policy, &cfg(1, 1, ConversionSide::Sender));
        assert!(recv.conversions > send.conversions);
        assert!(send.conversions > 0);
    }
}
