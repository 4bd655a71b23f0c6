//! Network front-end correctness: the framed-TCP wire must be a
//! transparent transport. Responses served over loopback must be
//! bit-identical to in-process `Server::handle_batch` answers — per-request
//! errors included — under concurrent clients and on both byte-source
//! backends; and hostile bytes on the socket must surface as typed errors,
//! never a panic, a desynced response, or a dead server.

use exaclim::{ClimateEmulator, EmulatorConfig};
use exaclim_climate::{SyntheticEra5, SyntheticEra5Config};
use exaclim_serve::wire::{self, FrameKind, StreamPos, HEADER_LEN, MAX_FRAME_PAYLOAD};
use exaclim_serve::{
    Catalog, CatalogQuery, Client, NetConfig, NetServer, NetServerHandle, Request, Response,
    ServeConfig, Server, SliceRequest, WireError,
};
use exaclim_store::{open_file_source, ArchiveWriter, Codec, FieldMeta};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::io::{Cursor, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

const VPS: usize = 10;
const T_MAX: u64 = 64;
const CHUNK_T: usize = 9;

fn archive_bytes() -> Vec<u8> {
    let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
    for (name, phase, codec) in [("t2m", 0.0, Codec::F32Shuffle), ("u10", 2.3, Codec::Raw64)] {
        let data: Vec<f64> = (0..VPS * T_MAX as usize)
            .map(|i| 260.0 + 25.0 * (i as f64 * 0.017 + phase).sin())
            .collect();
        w.add_field(name, codec, FieldMeta::default(), VPS, CHUNK_T, &data)
            .unwrap();
    }
    w.finish().unwrap().0.into_inner()
}

/// A server over an in-memory copy of the test archive.
fn spawn_server() -> (Arc<Server>, NetServerHandle) {
    let mut catalog = Catalog::new();
    catalog.open_archive_bytes("a", archive_bytes()).unwrap();
    let server = Arc::new(Server::new(catalog, ServeConfig::default()));
    let handle = NetServer::bind("127.0.0.1:0", Arc::clone(&server), NetConfig::default())
        .unwrap()
        .spawn();
    (server, handle)
}

fn slice(member: &str, range: std::ops::Range<u64>) -> Request {
    Request::Slice(SliceRequest {
        archive: "a".to_string(),
        member: member.to_string(),
        range,
    })
}

/// A mixed batch with deterministic answers: slices, catalog queries, and
/// requests that must fail (bad member, bad range, unknown emulator).
fn mixed_batch(seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = Vec::new();
    for _ in 0..5 {
        let member = if rng.gen_bool(0.5) { "t2m" } else { "u10" };
        let t0 = rng.gen_range(0..T_MAX - 5);
        let t1 = rng.gen_range(t0..=T_MAX);
        batch.push(slice(member, t0..t1));
    }
    batch.push(Request::Catalog(CatalogQuery::ListArchives));
    batch.push(Request::Catalog(CatalogQuery::MemberInfo {
        archive: "a".to_string(),
        member: "u10".to_string(),
    }));
    batch.push(slice("missing", 0..1));
    batch.push(slice("t2m", 10..9999));
    batch.push(Request::Emulate {
        emulator: "nope".to_string(),
        t_max: 5,
        seed: 1,
    });
    batch
}

/// ≥4 concurrent clients over loopback: every response — successes *and*
/// typed per-request errors — must equal the in-process answer for the
/// same batch.
#[test]
fn loopback_matches_in_process_bit_identically_under_concurrency() {
    let (server, handle) = spawn_server();
    let addr = handle.addr();
    std::thread::scope(|scope| {
        for thread in 0..5u64 {
            let server = &server;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..6 {
                    let batch = mixed_batch(thread * 100 + round);
                    let over_wire = client.batch(&batch).unwrap();
                    let in_process = server.handle_batch(&batch);
                    assert_eq!(over_wire, in_process, "thread {thread} round {round}");
                }
            });
        }
    });
    assert_eq!(handle.net_stats().wire_errors, 0);
    handle.shutdown();
}

/// The same equivalence over file-backed archives, on both `EXACLIM_MMAP`
/// backends: the wire must not care where the bytes live.
#[test]
fn loopback_matches_in_process_on_both_file_backends() {
    let path = std::env::temp_dir().join(format!("exaclim_net_test_{}.eca1", std::process::id()));
    std::fs::write(&path, archive_bytes()).unwrap();
    for use_mmap in [false, true] {
        let mut catalog = Catalog::new();
        catalog
            .open_archive_source("a", open_file_source(&path, use_mmap).unwrap())
            .unwrap();
        let server = Arc::new(Server::new(catalog, ServeConfig::default()));
        let handle = NetServer::bind("127.0.0.1:0", Arc::clone(&server), NetConfig::default())
            .unwrap()
            .spawn();
        let addr = handle.addr();
        std::thread::scope(|scope| {
            for thread in 0..4u64 {
                let server = &server;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let batch = mixed_batch(7000 + thread);
                    assert_eq!(
                        client.batch(&batch).unwrap(),
                        server.handle_batch(&batch),
                        "mmap={use_mmap} thread {thread}"
                    );
                });
            }
        });
        handle.shutdown();
    }
    std::fs::remove_file(&path).ok();
}

/// Emulation responses round-trip the wire bit-identically too (f64
/// payload with full precision preserved).
#[test]
fn emulate_over_the_wire_is_bit_identical() {
    let generator = SyntheticEra5::new(SyntheticEra5Config::small_daily(12));
    let training = generator.generate_member(0, 2 * 365);
    let emulator = ClimateEmulator::train(&training, EmulatorConfig::small(8)).unwrap();
    let reference = emulator.emulate(20, 42).unwrap();

    let mut catalog = Catalog::new();
    catalog.open_archive_bytes("a", archive_bytes()).unwrap();
    catalog.register_emulator("em", emulator).unwrap();
    let server = Arc::new(Server::new(catalog, ServeConfig::default()));
    let handle = NetServer::bind("127.0.0.1:0", server, NetConfig::default())
        .unwrap()
        .spawn();

    let mut client = Client::connect(handle.addr()).unwrap();
    let response = client
        .request(&Request::Emulate {
            emulator: "em".to_string(),
            t_max: 20,
            seed: 42,
        })
        .unwrap();
    let Ok(Response::Emulate(ds)) = response else {
        panic!("emulate failed: {response:?}");
    };
    assert_eq!(ds, reference, "wire dataset diverged from direct emulate");
    handle.shutdown();
}

/// Pipelining: several request frames in flight on one connection;
/// responses come back in send order, each matching its own batch.
#[test]
fn pipelined_batches_answer_in_order() {
    let (server, handle) = spawn_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let batches: Vec<Vec<Request>> = (0..4).map(|i| mixed_batch(9000 + i)).collect();
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
    let (_, handle) = spawn_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .batch(&[slice("t2m", 0..10), slice("u10", 5..20)])
        .unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.slices, 2);
    assert!(stats.batches >= 1);
    handle.shutdown();
}

/// Raw-socket helper: write `bytes`, then read one frame back (the
/// server's error report), returning its kind and message.
fn send_raw(addr: std::net::SocketAddr, bytes: &[u8]) -> Option<(FrameKind, String)> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(bytes).unwrap();
    stream.flush().unwrap();
    let (header, payload) = wire::read_frame(&mut stream).ok()?;
    let msg = wire::decode_error_payload(&payload).ok()?;
    Some((header.kind, msg))
}

/// Malformed, truncated, oversized, and wrong-version frames each draw a
/// typed error report (or a clean close) and never take the server down.
#[test]
fn hostile_frames_are_rejected_and_server_survives() {
    let (server, handle) = spawn_server();
    let addr = handle.addr();
    let good_payload = wire::encode_request_batch(&[slice("t2m", 0..4)]);
    let good_frame = wire::encode_frame(FrameKind::Request, 1, &good_payload).unwrap();
    // Header-level rejects are probed with empty-payload frames so the
    // server closes with nothing unread (a clean FIN, not a racy RST).
    let empty_frame = wire::encode_frame(FrameKind::Request, 1, &[]).unwrap();

    // Bad magic.
    let mut bad = empty_frame.clone();
    bad[0] = b'Z';
    let (kind, msg) = send_raw(addr, &bad).expect("error frame");
    assert_eq!(kind, FrameKind::Error);
    assert!(msg.contains("magic"), "{msg}");

    // Wrong protocol version.
    let mut bad = empty_frame.clone();
    bad[4] = 9;
    let (kind, msg) = send_raw(addr, &bad).expect("error frame");
    assert_eq!(kind, FrameKind::Error);
    assert!(msg.contains("version 9"), "{msg}");

    // Oversized payload claim — rejected from the header alone, before
    // any payload is read or buffered.
    let mut bad = empty_frame.clone();
    bad[16..20].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
    let (kind, msg) = send_raw(addr, &bad).expect("error frame");
    assert_eq!(kind, FrameKind::Error);
    assert!(msg.contains("cap"), "{msg}");

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
        let (kind, msg) = send_raw(addr, &bad).expect("error frame");
        assert_eq!(kind, FrameKind::Error);
        assert!(msg.contains("checksum"), "{msg}");
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
        let (kind, msg) = send_raw(addr, &frame).expect("error frame");
        assert_eq!(kind, FrameKind::Error);
        assert!(msg.contains("malformed"), "{msg}");
    }

    // A response fragment from a client is a protocol violation, and the
    // retired single-frame response kind is no kind at all.
    for kind_id in [FrameKind::Stream.id(), 2] {
        let mut frame = wire::encode_frame(FrameKind::Request, 6, &[]).unwrap();
        frame[5] = kind_id;
        let (kind, msg) = send_raw(addr, &frame).expect("error frame");
        assert_eq!(kind, FrameKind::Error);
        assert!(msg.contains(&format!("frame kind {kind_id}")), "{msg}");
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
    let requests = mixed_batch(1);
    let responses: Vec<_> = vec![
        Ok(Response::Catalog(exaclim_serve::CatalogAnswer::Archives(
            vec![],
        ))),
        Err(exaclim_serve::ServeError::BadRequest("x".to_string())),
    ];
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

/// Cut a real response into raw streamed frame byte vectors by driving
/// the server-side [`wire::FrameStream`] with a small fragment size.
fn stream_frames(id: u64, chunk: usize) -> Vec<Vec<u8>> {
    let values: Vec<f64> = (0..2048).map(|i| i as f64 * 0.25).collect();
    let responses = vec![Ok(Response::Slice(exaclim_serve::SliceData {
        archive: "a".to_string(),
        member: "t2m".to_string(),
        range: 0..values.len() as u64 / VPS as u64,
        values_per_slice: VPS as u64,
        values,
    }))];
    let body = wire::ResponseBody::from_responses(responses);
    let mut s = wire::FrameStream::response(body, id, chunk).unwrap();
    let mut frames = Vec::new();
    while let Some(f) = s.next_frame() {
        frames.push(f.to_bytes(s.body()));
    }
    frames
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
    let frames = stream_frames(11, 64);
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
        let other = stream_frames(99, 64);
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
    let (server, handle) = spawn_server();
    let addr = handle.addr();
    let (kind, msg) = send_raw(addr, &frames[0]).expect("error frame");
    assert_eq!(kind, FrameKind::Error);
    assert!(msg.contains("frame kind 4"), "{msg}");
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
    let (server, handle) = spawn_server();
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
    let mut catalog = Catalog::new();
    catalog.open_archive_bytes("a", archive_bytes()).unwrap();
    let server = Arc::new(Server::new(catalog, ServeConfig::default()));
    let config = NetConfig {
        max_connections: 1,
        ..NetConfig::default()
    };
    let handle = NetServer::bind("127.0.0.1:0", server, config)
        .unwrap()
        .spawn();
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
    let (_, handle) = spawn_server();
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
