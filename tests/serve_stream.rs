//! Streaming failure cases the conformance matrix cannot express:
//! mid-stream failures (error frames, desyncs, hard closes) forced by a
//! fake server must surface as typed errors, and a server draining a
//! response orders of magnitude larger than its stream fragment must never
//! own more than about one fragment per connection. Streamed answers
//! reassemble bit-identical to the oracle for every op, at 64-byte and
//! default fragments: the conformance table's `NetServer` rows.

mod common;

use common::conformance::Front;
use common::*;
use exaclim_serve::wire::{self, FrameKind, HEADER_LEN};
use exaclim_serve::{Catalog, Client, NetConfig, Request, ServeConfig, Server, WireError};
use exaclim_store::Codec;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// Every op's answer, cut into 64-byte fragments or sent whole,
/// reassembles into the oracle's; stream counters and the
/// frames-per-response histogram account for every response.
#[test]
fn streamed_responses_reassemble_bit_identical_for_every_op() {
    conformance::run(|row| matches!(row.front, Front::Net(_)) && !row.chaos);
}

/// Write every byte of `frames` to `stream`.
fn write_all_frames(stream: &mut TcpStream, frames: &[Vec<u8>]) {
    for f in frames {
        stream.write_all(f).unwrap();
    }
    stream.flush().unwrap();
}

/// Ask a fake raw-socket server for stats; it answers with `reply`,
/// given the request's frame id and a slice answer cut into 8-byte
/// stream fragments of that id. Returns the client's error.
fn fake_reply(reply: impl FnOnce(&mut TcpStream, u64, Vec<Vec<u8>>) + Send + 'static) -> WireError {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let (header, _) = wire::read_frame(&mut stream).unwrap();
        let frames = response_frames(oracle().handle_batch(&[slice("t2m", 0..8)]), header.id, 8);
        assert!(frames.len() >= 3, "fake stream must span several frames");
        reply(&mut stream, header.id, frames);
    });
    let err = Client::connect(addr)
        .unwrap()
        .batch(&[Request::Stats])
        .unwrap_err();
    fake.join().unwrap();
    err
}

/// Mid-stream failure modes, forced by a fake server (a real server never
/// emits them): an error frame interrupting a stream is honored as the
/// remote failure it reports, and a hard close mid-stream is
/// `StreamTruncated`. A frame of the retired single-response kind 2, sent
/// in place of the first fragment, is `BadFrameKind(2)`.
#[test]
fn mid_stream_errors_and_truncation_are_typed() {
    let err = fake_reply(|stream, _, mut frames| {
        frames[0][5] = 2;
        stream.write_all(&frames[0]).unwrap();
    });
    assert_eq!(err, WireError::BadFrameKind(2));

    // Two in-order fragments, FIN withheld, then the error.
    let err = fake_reply(|stream, id, frames| {
        let boom = wire::encode_error_payload("boom mid-stream");
        let error = wire::encode_frame(FrameKind::Error, id, &boom).unwrap();
        write_all_frames(stream, &[&frames[..2], &[error]].concat());
    });
    let WireError::Remote(msg) = &err else {
        panic!("error frame mid-stream: {err:?}");
    };
    assert!(msg.contains("boom mid-stream"), "{msg}");

    let err = fake_reply(|stream, _, frames| write_all_frames(stream, &frames[..2]));
    let truncated = matches!(err, WireError::StreamTruncated);
    assert!(truncated, "mid-stream fault must truncate: {err:?}");
}

/// An out-of-order fragment from a (fake) server surfaces as the typed
/// sequencing violation, not silent corruption.
#[test]
fn out_of_order_fragment_is_a_typed_sequence_error() {
    // Fragment 0, then fragment 2: seq 1 went missing.
    let err = fake_reply(|stream, _, frames| {
        write_all_frames(stream, &[frames[0].clone(), frames[2].clone()])
    });
    let expected = WireError::StreamSequence {
        expected: 1,
        got: 2,
    };
    assert_eq!(err, expected);
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
    let mut catalog = Catalog::new();
    let big = build_archive(BIG_VPS, BIG_T, 32, [Codec::Raw64; 2]);
    catalog.open_archive_bytes(ARCHIVE, big).unwrap();
    let server = Arc::new(Server::new(catalog, ServeConfig::default()));
    let handle = spawn(
        &server,
        NetConfig {
            stream_chunk_bytes: FRAGMENT,
            ..NetConfig::default()
        },
    );

    let request = slice("t2m", 0..BIG_T);
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
