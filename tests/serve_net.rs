//! Network front-end cases the conformance matrix cannot express: hostile
//! bytes on the socket must surface as typed errors, never a panic, a
//! desynced response or a dead server; pipelined frames answer in order;
//! shedding, admission, shutdown and where a batch runs (reactor or
//! worker) behave as documented. Loopback answers on every backend are
//! the oracle's: the conformance table's `NetServer` rows.

mod common;

use common::conformance::Front;
use common::*;
use exaclim_serve::wire::{self, FrameKind, StreamPos, HEADER_LEN, MAX_FRAME_PAYLOAD};
use exaclim_serve::{
    CatalogQuery, Client, ClientConfig, NetConfig, NetServerHandle, Request, Response, ServeConfig,
    ServeError, Server, SliceRequest, WireError,
};
use exaclim_store::{ArchiveError, Codec};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::io::{Cursor, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// 4 concurrent clients over in-memory bytes, at default and 64-byte
/// fragments, with mixed and reactor-resident batches, get exactly the
/// in-process answers.
#[test]
fn loopback_matches_in_process_bit_identically_under_concurrency() {
    conformance::run(|row| {
        matches!(row.front, Front::Net(_)) && row.backend == "bytes" && !row.chaos
    });
}

/// The same over a mapped and a buffered file: the wire must not care
/// where the bytes live.
#[test]
fn loopback_matches_in_process_on_both_file_backends() {
    conformance::run(|row| matches!(row.front, Front::Net(_)) && row.backend.ends_with("-file"));
}

/// Emulations (and every other op) in mixed batches round-trip the wire
/// with full f64 precision.
#[test]
fn emulate_over_the_wire_is_bit_identical() {
    conformance::run(|row| matches!(row.front, Front::Net(_)) && !row.warm_slices && !row.chaos);
}

/// Pipelining: several request frames in flight on one connection;
/// responses come back in send order, each matching its own batch.
#[test]
fn pipelined_batches_answer_in_order() {
    let (server, handle) = spawn_fixture(NetConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let batches: Vec<Vec<Request>> = (0..4).map(|i| workload(9000 + i)).collect();
    for batch in &batches {
        client.send(batch).unwrap();
    }
    for batch in &batches {
        assert_eq!(client.recv().unwrap(), server.handle_batch(batch));
    }
    handle.shutdown();
}

/// The stats op over the wire reflects the serving counters.
#[test]
fn stats_op_counts_served_requests() {
    let (_, handle) = spawn_fixture(NetConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .batch(&[slice("t2m", 0..10), slice("u10", 5..20)])
        .unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.slices, 2);
    assert!(stats.batches >= 1);
    handle.shutdown();
}

/// Write `bytes` on a raw socket and assert the server answers with an
/// error frame whose message contains `needle`.
fn assert_rejected(addr: std::net::SocketAddr, bytes: &[u8], needle: &str) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(bytes).unwrap();
    stream.flush().unwrap();
    let (header, payload) = wire::read_frame(&mut stream).expect("error frame");
    assert_eq!(header.kind, FrameKind::Error);
    let msg = wire::decode_error_payload(&payload).expect("error frame");
    assert!(msg.contains(needle), "{msg}");
}

/// Malformed, truncated, oversized, and wrong-version frames each draw a
/// typed error report (or a clean close) and never take the server down.
#[test]
fn hostile_frames_are_rejected_and_server_survives() {
    let (server, handle) = spawn_fixture(NetConfig::default());
    let addr = handle.addr();
    let good_payload = wire::encode_request_batch(&[slice("t2m", 0..4)]);
    let good_frame = wire::encode_frame(FrameKind::Request, 1, &good_payload).unwrap();
    // Header-level rejects are probed with empty-payload frames so the
    // server closes with nothing unread (a clean FIN, not a racy RST).
    let empty_frame = wire::encode_frame(FrameKind::Request, 1, &[]).unwrap();

    // Bad magic.
    let mut bad = empty_frame.clone();
    bad[0] = b'Z';
    assert_rejected(addr, &bad, "magic");

    // Wrong protocol version.
    let mut bad = empty_frame.clone();
    bad[4] = 9;
    assert_rejected(addr, &bad, "version 9");

    // Oversized payload claim — rejected from the header alone, before
    // any payload is read or buffered.
    let mut bad = empty_frame.clone();
    bad[16..20].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
    assert_rejected(addr, &bad, "cap");

    // Bit-flipped payload fails the CRC: in the last byte of a short
    // payload, and inside the folded region of one long enough for the
    // folding kernel.
    let long_payload =
        wire::encode_request_batch(&(0..16).map(|t| slice("t2m", t..t + 1)).collect::<Vec<_>>());
    assert!(long_payload.len() >= 256, "{}", long_payload.len());
    let long_frame = wire::encode_frame(FrameKind::Request, 2, &long_payload).unwrap();
    for (frame, at) in [
        (&good_frame, good_frame.len() - 1),
        (&long_frame, HEADER_LEN + 100),
    ] {
        let mut bad = frame.clone();
        bad[at] ^= 0x10;
        assert!(matches!(
            wire::decode_frame(&bad),
            Err(WireError::ChecksumMismatch { .. })
        ));
        assert_rejected(addr, &bad, "checksum");
    }

    // Truncated frame: write half, then close the write side.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(&good_frame[..good_frame.len() / 2])
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        // Best-effort error frame or clean close — but never a hang.
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
    }

    // Valid framing, garbage payload (decode error).
    {
        let mut garbage = vec![0xFFu8; 32];
        garbage[0] = 200; // impossible request count
        let frame = wire::encode_frame(FrameKind::Request, 5, &garbage).unwrap();
        assert_rejected(addr, &frame, "malformed");
    }

    // A response fragment from a client is a protocol violation, and the
    // retired single-frame response kind is no kind at all.
    for kind_id in [FrameKind::Stream.id(), 2] {
        let mut frame = wire::encode_frame(FrameKind::Request, 6, &[]).unwrap();
        frame[5] = kind_id;
        assert_rejected(addr, &frame, &format!("frame kind {kind_id}"));
    }

    assert!(handle.net_stats().wire_errors >= 6);

    // After all that abuse, a fresh client still gets served correctly.
    let mut client = Client::connect(addr).unwrap();
    let batch = vec![slice("t2m", 0..4)];
    assert_eq!(client.batch(&batch).unwrap(), server.handle_batch(&batch));
    handle.shutdown();
}

/// Fuzz the decoder the way the store fuzzes its container: random bytes,
/// random truncations, and random bit flips of valid frames must always
/// come back as `Err(...)` or a valid value — never a panic, and never an
/// allocation sized by a hostile claim (the decode cap mirrors the
/// store's 1 GiB chunk cap).
#[test]
fn frame_decoder_survives_random_and_mutated_input() {
    let mut rng = StdRng::seed_from_u64(0xECF1);
    let requests = workload(1);
    let responses = oracle().handle_batch(&requests);
    let valid_frames = [
        wire::encode_frame(
            FrameKind::Request,
            1,
            &wire::encode_request_batch(&requests),
        )
        .unwrap(),
        wire::encode_frame(
            FrameKind::Stream,
            2,
            &wire::encode_response_batch(&responses),
        )
        .unwrap(),
        wire::encode_frame(FrameKind::Error, 3, &wire::encode_error_payload("boom")).unwrap(),
    ];

    // Pure noise: decode_frame plus both payload decoders on raw bytes.
    for _ in 0..400 {
        let len = rng.gen_range(0..600usize);
        let mut buf = vec![0u8; len];
        rng.fill_bytes(&mut buf);
        let _ = wire::decode_frame(&buf);
        let _ = wire::decode_request_batch(&buf);
        let _ = wire::decode_response_batch(&buf);
    }

    // Noise that passes framing: a correct header around random payloads,
    // so the payload decoders see CRC-valid garbage.
    for _ in 0..400 {
        let len = rng.gen_range(0..300usize);
        let mut payload = vec![0u8; len];
        rng.fill_bytes(&mut payload);
        let frame = wire::encode_frame(FrameKind::Request, 0, &payload).unwrap();
        let (_, got) = wire::decode_frame(&frame).unwrap();
        let _ = wire::decode_request_batch(got);
        let _ = wire::decode_response_batch(got);
    }

    // Truncations and single-bit flips of valid frames.
    for frame in &valid_frames {
        for _ in 0..300 {
            let cut = rng.gen_range(0..frame.len());
            let _ = wire::decode_frame(&frame[..cut]);

            let mut flipped = frame.clone();
            let byte = rng.gen_range(0..flipped.len());
            flipped[byte] ^= 1 << rng.gen_range(0..8u32);
            if let Ok((header, payload)) = wire::decode_frame(&flipped) {
                // A flip that survives framing (it hit the id field, say)
                // must still decode cleanly or fail typed.
                match header.kind {
                    FrameKind::Request => {
                        let _ = wire::decode_request_batch(payload);
                    }
                    FrameKind::Error => {
                        let _ = wire::decode_error_payload(payload);
                    }
                    FrameKind::Stream => {
                        if let Ok(Some(done)) =
                            wire::StreamReassembler::new().push(&header, payload.to_vec())
                        {
                            let _ = wire::decode_response_batch(&done);
                        }
                    }
                }
            }
        }
    }
}

/// A workload batch's answers cut into 64-byte stream fragments of frame
/// `id`.
fn stream_frames(id: u64) -> Vec<Vec<u8>> {
    response_frames(oracle().handle_batch(&workload(2)), id, 64)
}

/// Streamed-frame hostility, the same way the store fuzzes its container:
/// duplicated, reordered, and skipped sequence numbers, interleaved frame
/// ids, missing FINs, truncations, and random bit flips of real stream
/// fragments must each come back as a typed [`WireError`] — never a panic
/// — and a stream frame aimed at the *server* draws the unexpected-kind
/// error report while the server keeps serving.
#[test]
fn stream_frame_fuzz_is_typed_and_server_survives() {
    let mut rng = StdRng::seed_from_u64(0x57EA);
    let frames = stream_frames(11);
    assert!(frames.len() >= 4, "test body must actually stream");

    // The happy path reassembles (sanity check for everything below).
    {
        let mut reasm = wire::StreamReassembler::new();
        let mut done = None;
        for f in &frames {
            let (h, p) = wire::decode_frame(f).unwrap();
            done = reasm.push(&h, p.to_vec()).unwrap();
        }
        assert!(done.is_some(), "FIN must complete the stream");
    }

    let push_all = |order: &[usize]| -> Result<Option<Vec<u8>>, WireError> {
        let mut reasm = wire::StreamReassembler::new();
        let mut out = None;
        for &i in order {
            let (h, p) = wire::decode_frame(&frames[i]).unwrap();
            out = reasm.push(&h, p.to_vec())?;
        }
        Ok(out)
    };

    // Duplicated, skipped, and not-at-zero sequence numbers.
    assert!(matches!(
        push_all(&[0, 0]),
        Err(WireError::StreamSequence {
            expected: 1,
            got: 0
        })
    ));
    assert!(matches!(
        push_all(&[0, 2]),
        Err(WireError::StreamSequence {
            expected: 1,
            got: 2
        })
    ));
    assert!(matches!(
        push_all(&[1]),
        Err(WireError::StreamSequence {
            expected: 0,
            got: 1
        })
    ));

    // A fragment of a different response spliced mid-stream.
    {
        let other = stream_frames(99);
        let mut reasm = wire::StreamReassembler::new();
        let (h, p) = wire::decode_frame(&frames[0]).unwrap();
        reasm.push(&h, p.to_vec()).unwrap();
        let (h2, p2) = wire::decode_frame(&other[1]).unwrap();
        assert!(matches!(
            reasm.push(&h2, p2.to_vec()),
            Err(WireError::StreamInterleaved {
                expected: 11,
                got: 99
            })
        ));
    }

    // Missing FIN: everything but the last fragment leaves the
    // reassembler mid-stream — which is what makes a connection close
    // surface as `StreamTruncated` in the client (exercised end-to-end
    // in tests/serve_stream.rs).
    {
        let mut reasm = wire::StreamReassembler::new();
        for f in &frames[..frames.len() - 1] {
            let (h, p) = wire::decode_frame(f).unwrap();
            assert!(reasm.push(&h, p.to_vec()).unwrap().is_none());
        }
        assert!(reasm.in_progress(), "no FIN seen, still reassembling");
    }

    // Random truncations and single-bit flips of real fragments: framing
    // (CRC, length, kind) rejects most; survivors must push typed or
    // clean, never panic.
    for _ in 0..600 {
        let f = &frames[rng.gen_range(0..frames.len())];
        let cut = rng.gen_range(0..f.len());
        let _ = wire::decode_frame(&f[..cut]);
        let mut flipped = f.clone();
        let byte = rng.gen_range(0..flipped.len());
        flipped[byte] ^= 1 << rng.gen_range(0..8u32);
        if let Ok((h, p)) = wire::decode_frame(&flipped) {
            let _ = wire::StreamReassembler::new().push(&h, p.to_vec());
        }
    }

    // Random stream positions (the seq/FIN bytes live at 6..8, outside
    // the payload CRC): these always pass framing, so every sequencing
    // check rides on the reassembler being typed about them.
    for _ in 0..200 {
        let mut f = frames[rng.gen_range(0..frames.len())].clone();
        f[6] = rng.gen_range(0..=255u32) as u8;
        f[7] = rng.gen_range(0..=255u32) as u8;
        let (h, p) = wire::decode_frame(&f).unwrap();
        let _ = wire::StreamReassembler::new().push(&h, p.to_vec());
    }

    // A stream frame aimed at the server is a protocol violation the
    // server reports and survives.
    let (server, handle) = spawn_fixture(NetConfig::default());
    let addr = handle.addr();
    assert_rejected(addr, &frames[0], "frame kind 4");
    let mut client = Client::connect(addr).unwrap();
    let batch = vec![slice("t2m", 0..4)];
    assert_eq!(client.batch(&batch).unwrap(), server.handle_batch(&batch));
    handle.shutdown();
}

/// Shutdown with clients mid-conversation: handlers are unblocked, the
/// accept thread joins, and subsequent client calls fail typed instead of
/// hanging.
#[test]
fn graceful_shutdown_unblocks_clients() {
    let (server, handle) = spawn_fixture(NetConfig::default());
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    let batch = vec![slice("t2m", 0..8)];
    assert_eq!(client.batch(&batch).unwrap(), server.handle_batch(&batch));

    handle.shutdown(); // joins accept + handler threads

    let err = client.batch(&batch).unwrap_err();
    assert!(
        matches!(
            err,
            WireError::ConnectionClosed { .. } | WireError::Io(_) | WireError::Truncated { .. }
        ),
        "{err:?}"
    );
}

/// `max_connections` bounds concurrent admissions; queued clients are
/// served once a slot frees up, and sequential clients always get in.
#[test]
fn admission_is_bounded_but_fair() {
    let (_, handle) = spawn_fixture(NetConfig {
        max_connections: 1,
        ..NetConfig::default()
    });
    let addr = handle.addr();
    for i in 0..3 {
        let mut client = Client::connect(addr).unwrap();
        let responses = client.batch(&[slice("t2m", i..i + 4)]).unwrap();
        assert!(responses[0].is_ok());
        // Dropping the client closes its connection, freeing the one slot.
    }
    assert_eq!(handle.net_stats().connections, 3);
    handle.shutdown();
}

/// Frame ids echo verbatim, even at the extremes.
#[test]
fn frame_ids_echo_verbatim() {
    let (_, handle) = spawn_fixture(NetConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let payload = wire::encode_request_batch(&[Request::Stats]);
    for id in [0u64, 1, u64::MAX] {
        let frame = wire::encode_frame(FrameKind::Request, id, &payload).unwrap();
        stream.write_all(&frame).unwrap();
        let (header, _) = wire::read_frame(&mut stream).unwrap();
        assert_eq!(header.kind, FrameKind::Stream);
        assert_eq!(header.stream, Some(StreamPos { seq: 0, fin: true }));
        assert_eq!(header.id, id);
    }
    drop(stream);
    handle.shutdown();
}

/// The header is exactly as documented: 24 bytes, magic first.
#[test]
fn header_layout_is_stable() {
    assert_eq!(HEADER_LEN, 24);
    let frame = wire::encode_frame(FrameKind::Request, 0x0102_0304_0506_0708, &[]).unwrap();
    assert_eq!(&frame[0..4], b"ECN1");
    assert_eq!(frame[4], wire::VERSION);
    assert_eq!(frame[5], FrameKind::Request.id());
    assert_eq!(&frame[6..8], &[0, 0]);
    assert_eq!(
        u64::from_le_bytes(frame[8..16].try_into().unwrap()),
        0x0102_0304_0506_0708
    );
}

/// One wire round trip of `batch`, checked against the in-process answer
/// (computed afterwards, so a cold chunk is still cold on the wire).
/// Returns the reactor wake-ups the round trip cost and whether a fault
/// fired anywhere in the process meanwhile.
fn wakeup_probe(handle: &NetServerHandle, client: &mut Client, batch: &[Request]) -> (u64, bool) {
    let before = handle.net_stats();
    let got = client.batch(batch).unwrap();
    let after = handle.net_stats();
    assert_eq!(got, handle.server().handle_batch(batch), "{batch:?}");
    (
        after.reactor_wakeups - before.reactor_wakeups,
        after.faults_injected != before.faults_injected,
    )
}

/// Wake-ups of a batch the reactor should answer itself. An ambient
/// `EXACLIM_FAULTS` plan may draw a `dispatch` fault for it, which sends
/// it to a worker, so the probe repeats until one round trip passes with
/// no fault injected anywhere in the process.
fn inline_wakeups(handle: &NetServerHandle, client: &mut Client, batch: &[Request]) -> u64 {
    for _ in 0..100 {
        if let (wakeups, false) = wakeup_probe(handle, client, batch) {
            return wakeups;
        }
    }
    panic!("no fault-free round trip in 100 attempts for {batch:?}");
}

/// Where a batch runs. Slice batches whose chunks are all cache-resident
/// are answered on the reactor thread and never wake it; a cold chunk, a
/// response over one default stream fragment, or a non-slice request
/// sends the batch to a dispatch worker, whose completion wakes it.
/// Every answer equals the in-process one either way.
#[test]
fn resident_slice_batches_never_wake_the_reactor() {
    // A second archive with 512 KiB-per-read members.
    let mut catalog = catalog();
    let wide = build_archive(4096, 16, 8, [Codec::Raw64; 2]);
    catalog.open_archive_bytes("wide", wide).unwrap();
    let server = Arc::new(Server::new(catalog, ServeConfig::default()));
    let handle = spawn(&server, NetConfig::default());
    let wide_slice = Request::Slice(SliceRequest {
        archive: "wide".to_string(),
        member: "t2m".to_string(),
        range: 0..16,
    });
    // Every chunk of t2m and of the wide member resident; u10 cold.
    server.handle_batch(&[slice("t2m", 0..T_MAX), wide_slice.clone()]);
    let mut client = Client::connect(handle.addr()).unwrap();

    // Resident slices, bare and deadline-wrapped: inline.
    for batch in [
        vec![slice("t2m", 3..20)],
        vec![
            slice("t2m", 0..9),
            slice("t2m", 40..T_MAX),
            Request::WithDeadline {
                budget_ms: 60_000,
                request: Box::new(slice("t2m", 5..6)),
            },
        ],
    ] {
        assert_eq!(inline_wakeups(&handle, &mut client, &batch), 0, "{batch:?}");
    }

    // An already-expired deadline and an out-of-range slice: inline too,
    // answered with their typed errors.
    let refused = vec![
        Request::WithDeadline {
            budget_ms: 0,
            request: Box::new(slice("t2m", 0..4)),
        },
        slice("t2m", 10..9999),
    ];
    assert_eq!(inline_wakeups(&handle, &mut client, &refused), 0);
    let answers = client.batch(&refused).unwrap();
    assert_eq!(answers[0], Err(ServeError::DeadlineExpired));
    assert!(
        matches!(&answers[1], Err(ServeError::Archive(ArchiveError::BadRequest(m))) if m.contains("out of bounds")),
        "{:?}",
        answers[1]
    );

    // A first-touch cold slice goes to a worker; once resident, it no
    // longer does.
    let cold = vec![slice("u10", 0..5)];
    assert!(wakeup_probe(&handle, &mut client, &cold).0 >= 1);
    assert_eq!(inline_wakeups(&handle, &mut client, &cold), 0);

    // Resident, but a 512 KiB response, or next to a catalog query: a
    // worker.
    let beside_catalog = vec![
        slice("t2m", 0..9),
        Request::Catalog(CatalogQuery::ListArchives),
    ];
    for batch in [vec![wide_slice], beside_catalog] {
        assert!(
            wakeup_probe(&handle, &mut client, &batch).0 >= 1,
            "{batch:?}"
        );
    }
    assert_eq!(handle.net_stats().wire_errors, 0);
    drop(client);
    handle.shutdown();
}

/// `count` pipelined request frames, ids `0..count`, each carrying
/// `batch(id)`.
fn burst_bytes(count: u64, batch: impl Fn(u64) -> Vec<Request>) -> Vec<u8> {
    let mut bytes = Vec::new();
    for id in 0..count {
        let payload = wire::encode_request_batch(&batch(id));
        bytes.extend(wire::encode_frame(FrameKind::Request, id, &payload).unwrap());
    }
    bytes
}

/// Write `bytes` from a helper thread and hand each of the `count`
/// responses read back meanwhile, in order, to `check(id, responses)`.
fn pipeline(
    addr: std::net::SocketAddr,
    bytes: Vec<u8>,
    count: u64,
    mut check: impl FnMut(u64, Vec<Result<Response, ServeError>>),
) {
    let stream = TcpStream::connect(addr).unwrap();
    // A stalled burst fails the test instead of hanging it.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let write = std::thread::spawn(move || writer.write_all(&bytes).unwrap());
    let mut reader = std::io::BufReader::new(stream);
    for id in 0..count {
        let (header, payload) = wire::read_frame(&mut reader).unwrap();
        assert_eq!((header.kind, header.id), (FrameKind::Stream, id));
        check(id, wire::decode_response_batch(&payload).unwrap());
    }
    write.join().unwrap();
}

const BURST: u64 = 20_000;

fn one_step(id: u64) -> Vec<Request> {
    vec![slice("t2m", id % T_MAX..id % T_MAX + 1)]
}

/// A 20 000-frame pipelined burst of cache-resident one-step slices is
/// answered in order, each response equal to the in-process one, and a
/// second connection's 100 round trips, started once the burst flows,
/// finish before its last response: a connection answers a few frames
/// per reactor round, not its whole backlog at once. The server holds
/// the burst back instead of buffering it: no connection ever owns more
/// than one 64 KiB socket read plus a partial frame, though the burst
/// is over a megabyte and the client writes it as fast as it can.
#[test]
fn pipelined_burst_answers_in_order_without_starving_a_neighbour() {
    let (server, handle) = spawn_fixture(NetConfig::default());
    let addr = handle.addr();
    let expected: Arc<Vec<_>> = Arc::new(
        (0..T_MAX)
            .map(|t| server.handle_batch(&one_step(t)))
            .collect(),
    );
    let burst = burst_bytes(BURST, one_step);
    let frame_len = burst.len() / BURST as usize;
    assert!(burst.len() > 1 << 20);
    let mut neighbour = None;
    pipeline(addr, burst, BURST, |id, got| {
        assert_eq!(got, expected[(id % T_MAX) as usize], "frame {id}");
        if id == 0 {
            let expected = Arc::clone(&expected);
            neighbour = Some(std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for k in 0..100 {
                    let got = client.batch(&one_step(k)).unwrap();
                    assert_eq!(got, expected[(k % T_MAX) as usize], "round trip {k}");
                }
                Instant::now()
            }));
        }
    });
    let burst_done = Instant::now();
    let neighbour_done = neighbour.unwrap().join().unwrap();
    assert!(
        neighbour_done < burst_done,
        "the neighbour finished {:?} after the burst",
        neighbour_done - burst_done
    );
    let owned = handle.net_stats().peak_conn_buffered_bytes;
    let bound = (64 << 10) + frame_len as u64;
    assert!(owned <= bound, "a connection owned {owned} bytes > {bound}");
    handle.shutdown();
}

/// Shared switch of [`GatedSource`]: while shut, every read parks.
#[derive(Default)]
struct Gate {
    shut: std::sync::Mutex<bool>,
    opened: std::sync::Condvar,
    parked: AtomicUsize,
}

impl Gate {
    fn set(&self, shut: bool) {
        *self.shut.lock().unwrap_or_else(|p| p.into_inner()) = shut;
        self.opened.notify_all();
    }

    /// Return at once while open; while shut, count a park and wait.
    fn pass(&self) {
        let mut shut = self.shut.lock().unwrap();
        if *shut {
            self.parked.fetch_add(1, Ordering::SeqCst);
            while *shut {
                shut = self.opened.wait(shut).unwrap();
            }
        }
    }
}

/// Opens its gate when dropped, so a failing test releases the held
/// worker and the server can shut down instead of hanging.
struct OpenOnDrop(Arc<Gate>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.set(false);
    }
}

/// An archive byte stream whose reads wait for the [`Gate`]: it holds a
/// dispatch worker inside a cold chunk fetch for as long as a test needs.
struct GatedSource {
    bytes: Cursor<Vec<u8>>,
    gate: Arc<Gate>,
}

impl Read for GatedSource {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.gate.pass();
        self.bytes.read(buf)
    }
}

impl std::io::Seek for GatedSource {
    fn seek(&mut self, pos: std::io::SeekFrom) -> std::io::Result<u64> {
        self.bytes.seek(pos)
    }
}

/// The same burst against a server whose one dispatch worker is held and
/// whose backlog (1) is full: every frame is shed with a typed
/// `Overloaded`, in order, one frame after another, without the reactor
/// recursing per frame (which overflowed its stack), and the held
/// batches still complete once the worker is released.
#[test]
fn shed_burst_is_answered_frame_by_frame() {
    let gate = Arc::new(Gate::default());
    let mut catalog = catalog();
    catalog
        .open_archive(
            "gated",
            GatedSource {
                bytes: Cursor::new(archive_bytes()),
                gate: Arc::clone(&gate),
            },
        )
        .unwrap();
    let server = Arc::new(Server::new(catalog, ServeConfig::default()));
    let config = NetConfig {
        dispatch_threads: 1,
        max_dispatch_backlog: 1,
        ..NetConfig::default()
    };
    let retry_after_ms = config.shed_retry_after_ms;
    let handle = spawn(&server, config);
    let addr = handle.addr();
    let _release = OpenOnDrop(Arc::clone(&gate));
    server.handle_batch(&[slice("t2m", 0..T_MAX)]);
    let gated = |member: &str| {
        vec![Request::Slice(SliceRequest {
            archive: "gated".to_string(),
            member: member.to_string(),
            range: 0..5,
        })]
    };

    // The worker parks inside the first cold fetch; the second batch
    // waits behind it, filling the backlog.
    gate.set(true);
    let mut held = Client::connect(addr).unwrap();
    held.send(&gated("t2m")).unwrap();
    let parked = || gate.parked.load(Ordering::SeqCst) >= 1;
    let reached = eventually(Duration::from_secs(10), parked);
    assert!(reached, "the worker never reached the gated fetch");
    let mut queued = Client::connect(addr).unwrap();
    queued.send(&gated("u10")).unwrap();
    eventually(Duration::from_secs(10), || handle.net_stats().requests >= 2);
    assert_eq!(handle.net_stats().requests, 2);

    let overloaded = vec![Err(ServeError::Overloaded { retry_after_ms })];
    pipeline(addr, burst_bytes(BURST, one_step), BURST, |id, got| {
        assert_eq!(got, overloaded, "frame {id}");
    });
    assert_eq!(handle.net_stats().shed, BURST);

    gate.set(false);
    assert_eq!(held.recv().unwrap(), server.handle_batch(&gated("t2m")));
    assert_eq!(queued.recv().unwrap(), server.handle_batch(&gated("u10")));
    handle.shutdown();
}

/// A resident multi-slice batch is answered on the reactor without
/// entering the worker pool. Two callers split gated work over the
/// process-wide pool: the first's pieces hold every pool worker, the
/// second's wait queued behind them. A reactor that fanned the batch out
/// would queue its own pieces behind those and help run the queue head —
/// a gated piece — stalling every connection until the gate opens. The
/// batch and a neighbour's round trip come back while the pool is still
/// held.
#[test]
fn resident_batches_never_wait_on_the_worker_pool() {
    let (server, handle) = spawn_fixture(NetConfig::default());
    let addr = handle.addr();
    let batch = vec![
        slice("t2m", 0..9),
        slice("t2m", 20..40),
        Request::WithDeadline {
            budget_ms: 60_000,
            request: Box::new(slice("t2m", 50..T_MAX)),
        },
    ];
    let neighbour = one_step(3);
    // Warm every chunk and take the answers before the pool is held.
    let expected = server.handle_batch(&batch);
    let expected_neighbour = server.handle_batch(&neighbour);

    let pool = exaclim_runtime::pool::global();
    let lanes = pool.threads();
    let gate = Arc::new(Gate::default());
    gate.set(true);
    let _release = OpenOnDrop(Arc::clone(&gate));
    let holders: Vec<_> = (0..2)
        .map(|_| {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || pool.parallel_for(lanes, |_| gate.pass()))
        })
        .collect();
    // Both callers and every pool worker parked.
    let parked = || gate.parked.load(Ordering::SeqCst) > lanes;
    let reached = eventually(Duration::from_secs(10), parked);
    assert!(reached, "the gated pool work never parked");

    let config = ClientConfig {
        read_timeout: Some(Duration::from_secs(5)),
        ..ClientConfig::default()
    };
    // Under an ambient `EXACLIM_FAULTS` plan a batch may draw a
    // `dispatch` fault, which sends it to a worker that does wait on the
    // pool; such an attempt is abandoned and repeated.
    let round_trip = |batch: &[Request]| {
        for _ in 0..20 {
            let faults = handle.net_stats().faults_injected;
            let mut client = Client::connect_with(addr, config.clone()).unwrap();
            match client.batch(batch) {
                Ok(got) => return got,
                Err(_) if handle.net_stats().faults_injected != faults => {}
                Err(e) => panic!("held behind the worker pool: {e}"),
            }
        }
        panic!("no fault-free round trip in 20 attempts");
    };
    assert_eq!(round_trip(&batch), expected);
    assert_eq!(round_trip(&neighbour), expected_neighbour);
    assert!(
        holders.iter().all(|h| !h.is_finished()),
        "the pool was released early"
    );

    gate.set(false);
    for holder in holders {
        holder.join().unwrap();
    }
    handle.shutdown();
}
