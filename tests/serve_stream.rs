//! Streaming conformance: the zero-copy streamed wire path must be a
//! *transparent* optimization. For every op type, over both file
//! backends, a response cut into many fragments must reassemble
//! bit-identical to the same response sent as one fragment — and to the
//! in-process answer. Mid-stream failures (error frames,
//! desyncs, hard closes) must surface as typed errors, and a server
//! draining a response orders of magnitude larger than its stream
//! fragment must never own more than about one fragment per connection.

use exaclim::{ClimateEmulator, EmulatorConfig, TrainedEmulator};
use exaclim_climate::{SyntheticEra5, SyntheticEra5Config};
use exaclim_serve::wire::{self, FrameKind, HEADER_LEN};
use exaclim_serve::{
    Catalog, CatalogQuery, Client, NetConfig, NetServer, ProductDescriptor, ProductSource,
    ProductStat, Request, Response, ScenarioSpec, ServeConfig, Server, SliceRequest, WireError,
};
use exaclim_store::{open_file_source, ArchiveWriter, Codec, FieldMeta};
use std::io::{Cursor, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

const VPS: usize = 48;
const T_MAX: u64 = 96;
const CHUNK_T: usize = 17;

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

fn train_emulator() -> TrainedEmulator {
    let generator = SyntheticEra5::new(SyntheticEra5Config::small_daily(12));
    let training = generator.generate_member(0, 2 * 365);
    ClimateEmulator::train(&training, EmulatorConfig::small(8)).unwrap()
}

fn slice(member: &str, range: std::ops::Range<u64>) -> Request {
    Request::Slice(SliceRequest {
        archive: "a".to_string(),
        member: member.to_string(),
        range,
    })
}

/// One batch touching every op type whose answer is deterministic:
/// slices (multi-chunk, whole-member, and failing), emulation, derived
/// products, an ensemble, and catalog queries. `Request::Stats` is
/// checked separately — serving the batch itself moves its counters.
fn every_op_batch() -> Vec<Request> {
    vec![
        slice("t2m", 0..T_MAX),
        slice("u10", 3..71),
        slice("t2m", 14..15),
        slice("missing", 0..1),
        slice("u10", 10..9999),
        Request::Emulate {
            emulator: "em".to_string(),
            t_max: 16,
            seed: 42,
        },
        Request::Product(ProductDescriptor {
            source: ProductSource::Member {
                archive: "a".to_string(),
                member: "t2m".to_string(),
            },
            stat: ProductStat::MeanStd,
            time: Some(5..80),
            space: None,
        }),
        Request::Product(ProductDescriptor {
            source: ProductSource::Ensemble(ScenarioSpec {
                emulator: "em".to_string(),
                t_max: 24,
                seed: 9,
                realizations: 3,
            }),
            stat: ProductStat::Trend,
            time: None,
            space: None,
        }),
        Request::Ensemble(ScenarioSpec {
            emulator: "em".to_string(),
            t_max: 12,
            seed: 7,
            realizations: 2,
        }),
        Request::Catalog(CatalogQuery::ListArchives),
        Request::Catalog(CatalogQuery::MemberInfo {
            archive: "a".to_string(),
            member: "u10".to_string(),
        }),
    ]
}

/// The conformance matrix: every op type, streamed (tiny fragments so
/// even catalog answers fragment) and one fragment per response (a
/// default-chunk server), over both `EXACLIM_MMAP` file backends. All
/// four answers must equal the in-process answer — per-request errors
/// included.
#[test]
fn streamed_responses_reassemble_bit_identical_for_every_op() {
    let path =
        std::env::temp_dir().join(format!("exaclim_stream_test_{}.eca1", std::process::id()));
    std::fs::write(&path, archive_bytes()).unwrap();
    for use_mmap in [false, true] {
        let leg = format!("mmap={use_mmap}");
        let mut catalog = Catalog::new();
        catalog
            .open_archive_source("a", open_file_source(&path, use_mmap).unwrap())
            .unwrap();
        catalog.register_emulator("em", train_emulator()).unwrap();
        let server = Arc::new(Server::new(catalog, ServeConfig::default()));
        let config = NetConfig {
            // Tiny fragments: every response — even a member-info
            // answer — crosses several stream frames.
            stream_chunk_bytes: 64,
            ..NetConfig::default()
        };
        let handle = NetServer::bind("127.0.0.1:0", Arc::clone(&server), config)
            .unwrap()
            .spawn();
        // Default 256 KiB fragments: every response here is one fragment.
        let whole = NetServer::bind("127.0.0.1:0", Arc::clone(&server), NetConfig::default())
            .unwrap()
            .spawn();
        let batch = every_op_batch();
        let in_process = server.handle_batch(&batch);
        let mut streamed = Client::connect(handle.addr()).unwrap();
        let mut single = Client::connect(whole.addr()).unwrap();
        assert_eq!(
            streamed.batch(&batch).unwrap(),
            in_process,
            "streamed leg {leg}"
        );
        assert_eq!(
            single.batch(&batch).unwrap(),
            in_process,
            "one-fragment leg {leg}"
        );

        // Stats streams and reassembles too (its counters move with
        // every batch, so monotonicity is the invariant, not value
        // equality with the snapshots above).
        let a = streamed.stats().unwrap();
        let b = streamed.stats().unwrap();
        assert!(b.batches > a.batches, "{leg}");

        // The last response's counters land after the client has
        // already reassembled it; give the server a moment to settle.
        let settled = |h: &exaclim_serve::NetServerHandle, responses: u64| {
            let mut stats = h.net_stats();
            for _ in 0..200 {
                if stats.frames_per_response.iter().sum::<u64>() >= responses {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
                stats = h.net_stats();
            }
            stats
        };
        let stats = settled(&handle, 3);
        assert!(stats.streamed_responses >= 2, "{leg}: {stats:?}");
        assert!(
            stats.stream_frames_out > stats.streamed_responses,
            "{leg}: fragments must outnumber streamed responses: {stats:?}"
        );
        assert!(
            stats.frames_per_response.iter().sum::<u64>() >= 3,
            "{leg}: histogram not populated: {stats:?}"
        );
        assert_eq!(stats.wire_errors, 0, "{leg}");
        // One fragment, counted as one frame and not as a stream.
        let stats = settled(&whole, 1);
        assert_eq!(stats.frames_per_response[0], 1, "{leg}: {stats:?}");
        assert_eq!(
            (stats.streamed_responses, stats.stream_frames_out),
            (0, 0),
            "{leg}"
        );
        handle.shutdown();
        whole.shutdown();
    }
    std::fs::remove_file(&path).ok();
}

/// Write every byte of `frames` to `stream`.
fn write_all_frames(stream: &mut TcpStream, frames: &[Vec<u8>]) {
    for f in frames {
        stream.write_all(f).unwrap();
    }
    stream.flush().unwrap();
}

/// Cut a response body into raw stream-frame bytes for frame id `id`.
fn fake_stream_frames(id: u64, chunk: usize) -> Vec<Vec<u8>> {
    let values: Vec<f64> = (0..512).map(|i| i as f64 * 0.5).collect();
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
    assert!(frames.len() >= 3, "fake stream must span several frames");
    frames
}

/// Mid-stream failure modes, forced by a fake raw-socket server (a real
/// server never emits them): an error frame interrupting a stream is
/// honored as the remote failure it reports, and a hard close mid-stream
/// is `StreamTruncated`. A frame of the retired single-response kind 2,
/// sent in place of the first fragment, is `BadFrameKind(2)`.
#[test]
fn mid_stream_errors_and_truncation_are_typed() {
    #[derive(Clone, Copy)]
    enum Fault {
        ErrorFrame,
        KindTwo,
        HardClose,
    }
    for fault in [Fault::ErrorFrame, Fault::KindTwo, Fault::HardClose] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Consume the client's request; its id keys every reply.
            let (header, _) = wire::read_frame(&mut stream).unwrap();
            let frames = fake_stream_frames(header.id, 8);
            match fault {
                Fault::KindTwo => {
                    let mut resp = frames[0].clone();
                    resp[5] = 2;
                    stream.write_all(&resp).unwrap();
                }
                Fault::ErrorFrame => {
                    // Two in-order fragments, FIN withheld, then the error.
                    write_all_frames(&mut stream, &frames[..2]);
                    let err = wire::encode_frame(
                        FrameKind::Error,
                        header.id,
                        &wire::encode_error_payload("boom mid-stream"),
                    )
                    .unwrap();
                    stream.write_all(&err).unwrap();
                }
                Fault::HardClose => write_all_frames(&mut stream, &frames[..2]),
            }
            drop(stream);
        });
        let mut client = Client::connect(addr).unwrap();
        let err = client.batch(&[Request::Stats]).unwrap_err();
        match fault {
            Fault::ErrorFrame => {
                let WireError::Remote(msg) = &err else {
                    panic!("error frame mid-stream: {err:?}");
                };
                assert!(msg.contains("boom mid-stream"), "{msg}");
            }
            Fault::KindTwo => {
                assert_eq!(err, WireError::BadFrameKind(2));
            }
            Fault::HardClose => {
                assert!(
                    matches!(err, WireError::StreamTruncated),
                    "mid-stream fault must truncate: {err:?}"
                );
            }
        }
        fake.join().unwrap();
    }
}

/// An out-of-order fragment from a (fake) server surfaces as the typed
/// sequencing violation, not silent corruption.
#[test]
fn out_of_order_fragment_is_a_typed_sequence_error() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let (header, _) = wire::read_frame(&mut stream).unwrap();
        let frames = fake_stream_frames(header.id, 8);
        // Fragment 0, then fragment 2: seq 1 went missing.
        write_all_frames(&mut stream, &[frames[0].clone(), frames[2].clone()]);
        drop(stream);
    });
    let mut client = Client::connect(addr).unwrap();
    let err = client.batch(&[Request::Stats]).unwrap_err();
    assert!(
        matches!(
            err,
            WireError::StreamSequence {
                expected: 1,
                got: 2
            }
        ),
        "{err:?}"
    );
    fake.join().unwrap();
}

/// The memory-bound regression test: a slice orders of magnitude larger
/// than one stream fragment drains through a 1-byte-per-read trickle
/// client, and the server's per-connection owned bytes (header + copied
/// metadata — the `peak_conn_buffered_bytes` gauge) never exceed one
/// fragment plus small change.
#[test]
fn per_connection_memory_is_bounded_by_one_fragment_under_trickle() {
    const BIG_VPS: usize = 256;
    const BIG_T: u64 = 256;
    const FRAGMENT: usize = 4096;
    let data: Vec<f64> = (0..BIG_VPS * BIG_T as usize)
        .map(|i| (i as f64).sin())
        .collect();
    let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
    w.add_field(
        "big",
        Codec::Raw64,
        FieldMeta::default(),
        BIG_VPS,
        32,
        &data,
    )
    .unwrap();
    let bytes = w.finish().unwrap().0.into_inner();

    let mut catalog = Catalog::new();
    catalog.open_archive_bytes("a", bytes.clone()).unwrap();
    let server = Arc::new(Server::new(catalog, ServeConfig::default()));
    let config = NetConfig {
        stream_chunk_bytes: FRAGMENT,
        ..NetConfig::default()
    };
    let handle = NetServer::bind("127.0.0.1:0", Arc::clone(&server), config)
        .unwrap()
        .spawn();

    let request = Request::Slice(SliceRequest {
        archive: "a".to_string(),
        member: "big".to_string(),
        range: 0..BIG_T,
    });
    let payload = wire::encode_request_batch(std::slice::from_ref(&request));
    let frame = wire::encode_frame(FrameKind::Request, 1, &payload).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(&frame).unwrap();
    stream.flush().unwrap();

    // Trickle: one byte per read. The response is ~512 KiB — far
    // beyond every socket buffer — so the server spends most of this
    // blocked on a slow consumer, exactly when unbounded buffering
    // would show up.
    let mut one = [0u8; 1];
    let mut read_byte = |stream: &mut TcpStream| -> u8 {
        stream.read_exact(&mut one).unwrap();
        one[0]
    };
    let mut reasm = wire::StreamReassembler::new();
    let reassembled = loop {
        let mut head = [0u8; HEADER_LEN];
        for b in head.iter_mut() {
            *b = read_byte(&mut stream);
        }
        let header = wire::FrameHeader::decode(&head).unwrap();
        assert_eq!(header.kind, FrameKind::Stream, "big slice must stream");
        let mut payload = vec![0u8; header.len as usize];
        for b in payload.iter_mut() {
            *b = read_byte(&mut stream);
        }
        if let Some(done) = reasm.push(&header, payload).unwrap() {
            break done;
        }
    };
    let decoded = wire::decode_response_batch(&reassembled).unwrap();
    assert_eq!(decoded, server.handle_batch(std::slice::from_ref(&request)));

    let stats = handle.net_stats();
    let bound = (FRAGMENT + HEADER_LEN + 512) as u64;
    assert!(
        stats.peak_conn_buffered_bytes <= bound,
        "owned {} bytes exceeds one-fragment bound {bound}",
        stats.peak_conn_buffered_bytes
    );
    assert!(stats.streamed_responses >= 1);
    assert!(
        stats.stream_frames_out as usize >= (BIG_VPS * BIG_T as usize * 8) / FRAGMENT,
        "{stats:?}"
    );
    drop(stream);
    handle.shutdown();
}
