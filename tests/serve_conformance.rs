//! Serve conformance: every served configuration answers exactly what
//! the oracle, in-process `Server::handle_batch` over the same stored
//! bytes, answers. [`common::conformance`] holds the table of
//! configurations and the runner; this suite runs every row, and checks
//! that the seeded [`common::workload`] batches cover every request kind.

mod common;

use common::*;
use exaclim_serve::{wire, NetConfig, Request, Response};
use exaclim_store::crc32;
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

/// The wire bytes of three seeded batches and of the oracle's answers to
/// them, pinned by length and CRC32: a codec change that moves one byte of
/// any request or answer the generator makes fails here, at every thread
/// count.
#[test]
fn workload_wire_bytes_are_pinned() {
    let _faults = fault_lock();
    // (seed, (request bytes, CRC32), (answer bytes, CRC32))
    let pins: [(u64, _, _); 3] = [
        (0, (1_498, 4_005_389_480), (204_836, 2_150_491_977)),
        (1, (1_498, 2_517_486_197), (210_116, 2_630_374_055)),
        (2, (1_498, 3_047_800_824), (224_908, 3_714_481_994)),
    ];
    for (seed, request_pin, answer_pin) in pins {
        let batch = workload(seed);
        let requests = wire::encode_request_batch(&batch);
        let answers = wire::encode_response_batch(&oracle().handle_batch(&batch));
        assert_eq!(
            (
                (requests.len(), crc32(&requests)),
                (answers.len(), crc32(&answers))
            ),
            (request_pin, answer_pin),
            "seed {seed}"
        );
    }
}
