//! Serve conformance: every served configuration answers exactly what
//! the oracle, in-process `Server::handle_batch` over the same stored
//! bytes, answers. [`common::conformance`] holds the table of
//! configurations and the runner; this suite runs every row, and checks
//! that the seeded [`common::workload`] batches cover every request kind.

mod common;

use common::*;
use exaclim_serve::{wire, NetConfig, Request, Response};
use std::collections::BTreeSet;

/// The matrix, every row of it.
#[test]
fn every_configuration_answers_like_the_oracle() {
    conformance::run(|_| true);
}

/// Seeds `0..64` of the generator hit every kind of [`op_kinds`] and no
/// other; the oracle answers exactly the error-marked kinds with an
/// error, and the emulations with the emulator's own; and every batch's
/// answers fit in one default stream fragment, which the `net` rows'
/// one-frame-per-response check relies on.
#[test]
fn workload_covers_every_request_kind() {
    let _faults = fault_lock();
    let fragment = NetConfig::default().stream_chunk_bytes;
    let mut seen = BTreeSet::new();
    for seed in 0..64 {
        let batch = workload(seed);
        let answers = oracle().handle_batch(&batch);
        for (request, answer) in batch.iter().zip(&answers) {
            let kind = op_kind(request);
            let error = ERROR_MARKS.iter().any(|m| kind.contains(m));
            assert_eq!(answer.is_err(), error, "seed {seed} {kind}: {answer:?}");
            if let (Request::Emulate { t_max, seed, .. }, false) = (request, error) {
                let direct = emulator().emulate(*t_max, *seed).unwrap();
                assert_eq!(answer, &Ok(Response::Emulate(direct)), "{kind}");
            }
            seen.insert(kind);
        }
        let bytes = wire::encode_response_batch(&answers).len();
        assert!(bytes <= fragment, "seed {seed}: {bytes} response bytes");
    }
    assert_eq!(seen, op_kinds());
}
