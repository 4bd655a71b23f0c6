//! The three serving workloads over one archive member.
//!
//! All three read the same thing — 2048 daily fields at band-limit 32
//! (34 × 65 grid, 35 MiB as f64) stored as one `F32Shuffle` member in
//! 16-step chunks — through different halves of the serving stack:
//!
//! * `serve_cold`: in-process `Server::handle_batch`, chunk cache off.
//!   Every op fetches, checksums and decodes its chunks; no socket.
//! * `serve_net_bulk`: one 256-step slice per round trip over loopback,
//!   cache fully warm. No decode; wire encode, stream fragmentation, the
//!   write drain and client reassembly do the work.
//! * `serve_net_small`: 256 sequential one-step round trips per op, cache
//!   warm. Almost no bytes; per-frame cost is everything.

use crate::env::out_dir;
use crate::gen::{self, hash_f64s, Shape, ARCHIVE, MEMBER};
use crate::harness::{BaseCounts, LayerValues, Quality, Workload};
use crate::stats::median;
use crate::trace::Tracer;
use exaclim_climate::{SyntheticEra5, SyntheticEra5Config};
use exaclim_serve::wire::{
    decode_request_batch, decode_response_batch, encode_request_batch, encode_response_batch,
    HEADER_LEN,
};
use exaclim_serve::{
    BatchPlan, Catalog, Client, NetConfig, NetServer, NetServerHandle, NetStats, Request, Response,
    ServeConfig, ServeError, Server, SliceRequest,
};
use exaclim_store::{crc32, Archive, ArchiveWriter, Codec, FieldMeta};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

/// Band-limit of the served field.
pub const LMAX: usize = 32;
/// Time steps of the served member.
pub const T_MAX: usize = 2048;
/// Time steps per chunk.
pub const CHUNK_T: usize = 16;
const SHAPE: Shape = Shape {
    t_max: T_MAX as u64,
    chunk_t: CHUNK_T as u64,
};
/// Distinct seeded ops per workload; timed ops cycle through them.
const POOL: usize = 64;

type Responses = Vec<Result<Response, ServeError>>;

/// The archive file of a run, removed when the workload is dropped.
struct ArchiveFile {
    path: PathBuf,
    total_len: u64,
    /// The f64 field the archive was written from.
    source: Vec<f64>,
    values_per_slice: usize,
}

impl Drop for ArchiveFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl ArchiveFile {
    /// Generate the member and write it with `ArchiveWriter`. The field is
    /// the same at every `--seed` (the seed picks the request windows), so
    /// the archive's size and the codec's error repeat exactly.
    fn write(workload: &str, tr: &mut Tracer) -> Result<Self, String> {
        let gen_cfg = SyntheticEra5Config::small_daily(LMAX);
        let data = SyntheticEra5::new(gen_cfg).generate_member(0, T_MAX);
        let vps = data.npoints;
        if tr.enabled() {
            // The codec and checksum inside `add_field`, on their own, over
            // the first eight chunks.
            let sample = &data.data[..8 * CHUNK_T * vps];
            let encoded = tr.time("store.encode", || Codec::F32Shuffle.encode(sample));
            tr.time("store.crc32", || std::hint::black_box(crc32(&encoded)));
        }
        let path = out_dir()?.join(format!("{workload}-{}.eca1", std::process::id()));
        let meta = FieldMeta {
            ntheta: data.ntheta,
            nphi: data.nphi,
            start_year: data.start_year,
            tau: data.tau,
        };
        let total_len = tr
            .time("store.write", || {
                let mut w = ArchiveWriter::create(&path)?;
                w.add_field(MEMBER, Codec::F32Shuffle, meta, vps, CHUNK_T, &data.data)?;
                w.finish().map(|(_, total)| total)
            })
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(Self {
            path,
            total_len,
            source: data.data,
            values_per_slice: vps,
        })
    }

    /// Open the file in a fresh catalog and put a server over it.
    fn serve(&self, cache_bytes: usize, tr: &mut Tracer) -> Result<Server, String> {
        let mut catalog = Catalog::new();
        tr.time("store.open", || {
            catalog.open_archive_file(ARCHIVE, &self.path).map(|_| ())
        })
        .map_err(|e| e.to_string())?;
        let config = ServeConfig {
            cache_bytes,
            ..ServeConfig::default()
        };
        Ok(Server::new(catalog, config))
    }

    /// max |decoded − source| ÷ max |source| over the whole member. Every
    /// served value is verified bit-equal to a slice of this decode, so it
    /// is the error of what the ops return.
    fn rel_error(&self, decoded: &[f64]) -> Result<f64, String> {
        if decoded.len() != self.source.len() {
            return Err(format!(
                "member decodes to {} values, source has {}",
                decoded.len(),
                self.source.len()
            ));
        }
        let (max_err, max_abs) = self
            .source
            .iter()
            .zip(decoded)
            .fold((0.0f64, 0.0f64), |(err, abs), (s, v)| {
                (err.max((s - v).abs()), abs.max(s.abs()))
            });
        Ok(max_err / max_abs)
    }

    fn stored_bytes_per_user_byte(&self) -> f64 {
        self.total_len as f64 / (self.source.len() * 8) as f64
    }

    /// Write-path metrics, measured where set-up already pays for them.
    fn write_path_metrics(&self, tr: &Tracer, layer: &mut LayerValues) {
        let sample_mib = (8 * CHUNK_T * self.values_per_slice * 8) as f64 / (1 << 20) as f64;
        let encode_ms = tr.setup_ms("store.encode");
        layer.insert("store.encode_ms", encode_ms);
        layer.insert("store.encode_mib_per_s", sample_mib / (encode_ms / 1e3));
        // The checksum runs over the *stored* bytes; report it against them.
        let stored_mib = self.stored_bytes_per_user_byte() * sample_mib;
        layer.insert(
            "store.crc32_mib_per_s",
            stored_mib / (tr.setup_ms("store.crc32") / 1e3),
        );
        layer.insert("store.write_ms", tr.setup_ms("store.write"));
        layer.insert("store.open_ms", tr.setup_ms("store.open"));
    }
}

fn slice_of(request: &Request) -> &SliceRequest {
    match request {
        Request::Slice(s) => s,
        other => unreachable!("the generators only make slice requests, got {other:?}"),
    }
}

/// Hash every response of a batch, or `None` if any is not a slice.
fn response_hashes(responses: &Responses) -> Option<Vec<u64>> {
    responses
        .iter()
        .map(|r| match r {
            Ok(Response::Slice(d)) => Some(hash_f64s(&d.values)),
            _ => None,
        })
        .collect()
}

/// The serve-layer counters the per-op metrics are made of.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    touches: u64,
    fetches: u64,
    decodes: u64,
    hits: u64,
    misses: u64,
}

impl Counters {
    fn read(server: &Server) -> Self {
        let (s, c) = (server.stats(), server.cache_stats());
        Self {
            touches: s.chunk_touches,
            fetches: s.chunk_fetches,
            decodes: s.chunk_decodes,
            hits: c.hits,
            misses: c.misses,
        }
    }

    fn minus(self, other: Self) -> Self {
        Self {
            touches: self.touches - other.touches,
            fetches: self.fetches - other.fetches,
            decodes: self.decodes - other.decodes,
            hits: self.hits - other.hits,
            misses: self.misses - other.misses,
        }
    }

    fn plus(self, other: Self) -> Self {
        Self {
            touches: self.touches + other.touches,
            fetches: self.fetches + other.fetches,
            decodes: self.decodes + other.decodes,
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
        }
    }

    /// Insert the per-op metrics of a delta over `timed` ops; returns
    /// `(hit rate, decodes per op)` for the workload's invariants.
    fn report(self, timed: usize, layer: &mut LayerValues) -> (f64, f64) {
        let per_op = |n: u64| n as f64 / timed as f64;
        let lookups = self.hits + self.misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        };
        layer.insert("serve.cache_hit_rate", hit_rate);
        layer.insert("serve.chunk_decodes_per_op", per_op(self.decodes));
        layer.insert("serve.chunk_touches_per_op", per_op(self.touches));
        layer.insert("serve.chunk_fetches_per_op", per_op(self.fetches));
        (hit_rate, per_op(self.decodes))
    }
}

// ---------------------------------------------------------------- serve_cold

/// `serve_cold`: one op is one in-process batch of 8 × 48-step slices.
pub struct ServeCold {
    file: ArchiveFile,
    server: Server,
    /// A second handle on the same file, read sequentially: the oracle,
    /// and the chunk source of the layer replay.
    reference: Archive,
    pool: Vec<Vec<Request>>,
    oracle: Vec<Vec<u64>>,
    rel_error: f64,
    before: Counters,
    decoded_mib_per_op: f64,
}

impl Workload for ServeCold {
    type Output = Responses;

    // ≈ 6.4 ms per op on the reference box.
    const BASE: BaseCounts = BaseCounts {
        timed: 2400,
        warmup: 260,
    };

    fn setup(seed: u64, warmup: usize, tr: &mut Tracer) -> Result<Self, String> {
        let file = ArchiveFile::write("serve_cold", tr)?;
        // Cache off: a small non-zero budget thrashes on worker timing and
        // makes the hit count — and the latency — a coin toss.
        let server = file.serve(0, tr)?;
        let reference = Archive::open(&file.path).map_err(|e| e.to_string())?;
        let whole = reference
            .read_field_all(MEMBER)
            .map_err(|e| e.to_string())?;
        let rel_error = file.rel_error(&whole)?;
        drop(whole);
        let pool = gen::cold_batches(seed, POOL, SHAPE);
        let mut oracle = Vec::with_capacity(pool.len());
        for batch in &pool {
            let mut hashes = Vec::with_capacity(batch.len());
            for request in batch {
                let range = &slice_of(request).range;
                let values = reference
                    .read_field_slices(MEMBER, range.clone())
                    .map_err(|e| e.to_string())?;
                hashes.push(hash_f64s(&values));
            }
            oracle.push(hashes);
        }
        for k in 0..warmup {
            let responses = server.handle_batch(&pool[k % pool.len()]);
            if response_hashes(&responses).as_ref() != Some(&oracle[k % pool.len()]) {
                return Err(format!("warm-up op {k} disagrees with the oracle"));
            }
        }
        let before = Counters::read(&server);
        Ok(Self {
            file,
            server,
            reference,
            pool,
            oracle,
            rel_error,
            before,
            decoded_mib_per_op: 0.0,
        })
    }

    fn begin_timed(&mut self) {
        self.before = Counters::read(&self.server);
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<Responses, String> {
        let batch = &self.pool[i % self.pool.len()];
        Ok(tr.time("serve.handle_batch", || self.server.handle_batch(batch)))
    }

    fn verify(&mut self, i: usize, out: Responses, _traced: bool) -> bool {
        response_hashes(&out).as_ref() == Some(&self.oracle[i % self.oracle.len()])
    }

    /// The op's layers one at a time on one thread: plan, then fetch and
    /// decode each distinct chunk, then assemble each response.
    fn replay(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String> {
        let requests: Vec<SliceRequest> = self.pool[i % self.pool.len()]
            .iter()
            .map(|r| slice_of(r).clone())
            .collect();
        let catalog = self.server.catalog();
        let plan = tr.time("serve.batch_plan", || BatchPlan::build(catalog, &requests));
        let mut chunks: Vec<Arc<[f64]>> = Vec::with_capacity(plan.fetches.len());
        for key in &plan.fetches {
            let (member, chunk) = (key.member as usize, key.chunk as usize);
            let entry = &self.reference.members()[member];
            let n_values = entry.chunks[chunk].t_len as usize * entry.values_per_slice as usize;
            let codec = Codec::from_id(entry.codec).map_err(|e| e.to_string())?;
            let stored = tr
                .time("store.chunk_fetch", || {
                    self.reference.read_chunk_stored(member, chunk)
                })
                .map_err(|e| e.to_string())?;
            let values = tr
                .time("store.decode", || codec.decode(&stored, n_values))
                .map_err(|e| e.to_string())?;
            chunks.push(values.into());
        }
        self.decoded_mib_per_op =
            chunks.iter().map(|c| c.len() * 8).sum::<usize>() as f64 / (1 << 20) as f64;
        // Like `handle_batch`, keep every response alive until the batch is
        // done: fresh pages for 6.5 MiB of output are part of the cost.
        let mut responses = Vec::with_capacity(plan.per_request.len());
        for slice_plan in &plan.per_request {
            let slice_plan = slice_plan.as_ref().map_err(|e| e.to_string())?;
            responses.push(tr.time("serve.assemble", || {
                plan.assemble(catalog, slice_plan, &chunks)
            }));
        }
        std::hint::black_box(&responses);
        Ok(())
    }

    fn finish(self, timed: usize, tr: &Tracer, layer: &mut LayerValues) -> Result<Quality, String> {
        let (hit_rate, decodes) = Counters::read(&self.server)
            .minus(self.before)
            .report(timed, layer);
        let mut violations = Vec::new();
        if hit_rate != 0.0 {
            violations.push(format!("cold workload hit the cache (rate {hit_rate})"));
        }
        if decodes != 20.0 {
            violations.push(format!("{decodes} chunk decodes per op, expected 20"));
        }
        if tr.enabled() {
            let parts = [
                ("store.chunk_fetch", "store.chunk_fetch_ms"),
                ("store.decode", "store.decode_ms"),
                ("serve.batch_plan", "serve.batch_plan_ms"),
                ("serve.assemble", "serve.assemble_ms"),
            ];
            let handle = tr.per_op_ms("serve.handle_batch");
            let mut replay = vec![0.0; handle.len()];
            for (span, metric) in parts {
                layer.insert(metric, tr.p50_ms(span));
                for (r, ms) in replay.iter_mut().zip(tr.per_op_ms(span)) {
                    *r += ms;
                }
            }
            let gain: Vec<f64> = replay.iter().zip(&handle).map(|(r, h)| r / h).collect();
            layer.insert("serve.handle_batch_ms", median(&handle));
            layer.insert("serve.replay_ms", median(&replay));
            layer.insert("serve.fanout_gain", median(&gain));
            layer.insert(
                "store.decode_mib_per_s",
                self.decoded_mib_per_op / (tr.p50_ms("store.decode") / 1e3),
            );
            self.file.write_path_metrics(tr, layer);
        }
        Ok(Quality {
            stored_bytes_per_user_byte: self.file.stored_bytes_per_user_byte(),
            rel_error: self.rel_error,
            violations,
            warnings: Vec::new(),
        })
    }
}

// ------------------------------------------------------- serve_net_{bulk,small}

/// A bare loopback socket pair that moves the same byte counts as a round
/// trip and does nothing else: the kernel's share of `net.round_trip_ms`.
struct Echo {
    stream: TcpStream,
    thread: Option<std::thread::JoinHandle<()>>,
    scratch: Vec<u8>,
}

impl Echo {
    fn start() -> Result<Self, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let thread = std::thread::spawn(move || {
            let Ok((mut peer, _)) = listener.accept() else {
                return;
            };
            let _ = peer.set_nodelay(true);
            let mut buf = Vec::new();
            let mut head = [0u8; 8];
            // Ends when the client half closes.
            while peer.read_exact(&mut head).is_ok() {
                let up = u32::from_le_bytes(head[..4].try_into().expect("4 bytes")) as usize;
                let down = u32::from_le_bytes(head[4..].try_into().expect("4 bytes")) as usize;
                buf.resize(up.max(down), 0);
                if peer.read_exact(&mut buf[..up]).is_err() || peer.write_all(&buf[..down]).is_err()
                {
                    return;
                }
            }
        });
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Self {
            stream,
            thread: Some(thread),
            scratch: Vec::new(),
        })
    }

    /// Send `up` bytes, receive `down` bytes.
    fn round_trip(&mut self, up: usize, down: usize) -> Result<(), String> {
        self.scratch.clear();
        self.scratch.extend_from_slice(&(up as u32).to_le_bytes());
        self.scratch.extend_from_slice(&(down as u32).to_le_bytes());
        self.scratch.resize(8 + up.max(down), 0);
        self.stream
            .write_all(&self.scratch[..8 + up])
            .and_then(|()| self.stream.read_exact(&mut self.scratch[..down]))
            .map_err(|e| format!("echo pair: {e}"))
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// `serve_net_bulk` (`SMALL == false`) and `serve_net_small` (`true`):
/// one connection to a `NetServer` with default `NetConfig` over a server
/// whose default 256 MiB cache set-up has fully warmed.
pub struct ServeNet<const SMALL: bool> {
    // Field order is drop order: the client hangs up before the server
    // shuts down, the file goes last.
    client: Client,
    echo: Option<Echo>,
    handle: NetServerHandle,
    file: ArchiveFile,
    /// Per op, the batches sent one round trip each.
    pool: Vec<Vec<Vec<Request>>>,
    /// Per op, per round trip, the hash of the expected slice.
    oracle: Vec<Vec<u64>>,
    rel_error: f64,
    before: (Counters, NetStats),
    /// What the replay's own in-process batches added to the counters.
    replayed: Counters,
}

/// `serve_net_bulk`.
pub type ServeNetBulk = ServeNet<false>;
/// `serve_net_small`.
pub type ServeNetSmall = ServeNet<true>;

impl<const SMALL: bool> ServeNet<SMALL> {
    fn snapshot(handle: &NetServerHandle) -> (Counters, NetStats) {
        (Counters::read(handle.server()), handle.net_stats())
    }

    fn round_trips(&mut self, i: usize, tr: &mut Tracer) -> Result<Vec<Responses>, String> {
        let calls = &self.pool[i % self.pool.len()];
        let mut out = Vec::with_capacity(calls.len());
        for call in calls {
            let responses = tr
                .time("net.round_trip", || self.client.batch(call))
                .map_err(|e| e.to_string())?;
            out.push(responses);
        }
        Ok(out)
    }

    fn matches_oracle(&self, i: usize, out: &[Responses]) -> bool {
        let want = &self.oracle[i % self.oracle.len()];
        out.len() == want.len()
            && out.iter().zip(want).all(|(responses, h)| {
                response_hashes(responses).as_deref() == Some(std::slice::from_ref(h))
            })
    }
}

impl<const SMALL: bool> Workload for ServeNet<SMALL> {
    type Output = Vec<Responses>;

    // ≈ 6.1 ms per bulk op, ≈ 36 ms per 256-round-trip small op on the
    // reference box.
    const BASE: BaseCounts = if SMALL {
        BaseCounts {
            timed: 430,
            warmup: 56,
        }
    } else {
        BaseCounts {
            timed: 2500,
            warmup: 280,
        }
    };

    fn setup(seed: u64, warmup: usize, tr: &mut Tracer) -> Result<Self, String> {
        let name = if SMALL {
            "serve_net_small"
        } else {
            "serve_net_bulk"
        };
        let file = ArchiveFile::write(name, tr)?;
        let server = Arc::new(file.serve(ServeConfig::default().cache_bytes, tr)?);
        let pool: Vec<Vec<Vec<Request>>> = if SMALL {
            gen::small_ops(seed, POOL / 4, SHAPE)
                .into_iter()
                .map(|op| op.into_iter().map(|r| vec![r]).collect())
                .collect()
        } else {
            gen::bulk_batches(seed, POOL, SHAPE)
                .into_iter()
                .map(|batch| vec![batch])
                .collect()
        };
        // Oracle: the same requests answered in process. Reading the whole
        // member first leaves every chunk decoded in the cache.
        let rel_error = match server
            .handle_batch(&[gen::slice(0..T_MAX as u64)])
            .as_slice()
        {
            [Ok(Response::Slice(d))] => file.rel_error(&d.values)?,
            other => return Err(format!("cache warm-up read failed: {other:?}")),
        };
        let mut oracle = Vec::with_capacity(pool.len());
        for calls in &pool {
            let mut hashes = Vec::with_capacity(calls.len());
            for call in calls {
                match server.handle_batch(call).as_slice() {
                    [Ok(Response::Slice(d))] => hashes.push(hash_f64s(&d.values)),
                    other => return Err(format!("oracle read failed: {other:?}")),
                }
            }
            oracle.push(hashes);
        }

        let handle = NetServer::bind("127.0.0.1:0", server, NetConfig::default())
            .map_err(|e| format!("bind: {e}"))?
            .spawn();
        let client = tr
            .time("net.connect", || Client::connect(handle.addr()))
            .map_err(|e| format!("connect: {e}"))?;
        let echo = if tr.enabled() {
            Some(Echo::start()?)
        } else {
            None
        };
        let before = Self::snapshot(&handle);
        let mut w = Self {
            client,
            echo,
            handle,
            file,
            pool,
            oracle,
            rel_error,
            before,
            replayed: Counters::default(),
        };
        for k in 0..warmup {
            let out = w.round_trips(k, tr)?;
            if !w.matches_oracle(k, &out) {
                return Err(format!("warm-up op {k} disagrees with the oracle"));
            }
        }
        Ok(w)
    }

    fn begin_timed(&mut self) {
        self.before = Self::snapshot(&self.handle);
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<Self::Output, String> {
        self.round_trips(i, tr)
    }

    fn verify(&mut self, i: usize, out: Self::Output, _traced: bool) -> bool {
        self.matches_oracle(i, &out)
    }

    /// What a round trip is made of, one piece at a time: the in-process
    /// answer, the four wire codecs on the op's own payloads (the
    /// contiguous response encoder is an upper bound for the server's
    /// zero-copy path), and the bare-socket floor for the same byte counts.
    fn replay(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String> {
        let server = Arc::clone(self.handle.server());
        let echo = self
            .echo
            .as_mut()
            .ok_or("traced run without an echo pair")?;
        let before = Counters::read(&server);
        for call in &self.pool[i % self.pool.len()] {
            let responses = tr.time("serve.handle_batch", || server.handle_batch(call));
            let up = tr.time("wire.encode_request", || encode_request_batch(call));
            tr.time("wire.decode_request", || decode_request_batch(&up))
                .map_err(|e| e.to_string())?;
            let down = tr.time("wire.encode_response", || encode_response_batch(&responses));
            tr.time("wire.decode_response", || decode_response_batch(&down))
                .map_err(|e| e.to_string())?;
            tr.time("net.socket_floor", || {
                echo.round_trip(HEADER_LEN + up.len(), HEADER_LEN + down.len())
            })?;
        }
        self.replayed = self.replayed.plus(Counters::read(&server).minus(before));
        Ok(())
    }

    fn finish(self, timed: usize, tr: &Tracer, layer: &mut LayerValues) -> Result<Quality, String> {
        let after = Self::snapshot(&self.handle);
        let (hit_rate, decodes) = after
            .0
            .minus(self.before.0)
            .minus(self.replayed)
            .report(timed, layer);
        let mut violations = Vec::new();
        if decodes != 0.0 {
            violations.push(format!("warm workload decoded {decodes} chunks per op"));
        }
        if hit_rate != 1.0 {
            violations.push(format!("warm workload missed the cache (rate {hit_rate})"));
        }
        let (n0, n1) = (self.before.1, after.1);
        let per_op = |a: u64, b: u64| (b - a) as f64 / timed as f64;
        let responses = (n1.frames_in - n0.frames_in).max(1) as f64;
        layer.insert("net.bytes_out_per_op", per_op(n0.bytes_out, n1.bytes_out));
        layer.insert(
            "net.frames_out_per_op",
            per_op(n0.frames_out, n1.frames_out),
        );
        layer.insert(
            "net.stream_frames_per_response",
            (n1.stream_frames_out - n0.stream_frames_out) as f64 / responses,
        );
        layer.insert(
            "net.reactor_wakeups_per_op",
            per_op(n0.reactor_wakeups, n1.reactor_wakeups),
        );
        layer.insert(
            "net.peak_conn_buffered_bytes",
            n1.peak_conn_buffered_bytes as f64,
        );
        if n1.wire_errors != 0 || n1.shed != 0 {
            violations.push(format!(
                "transport reported {} wire errors, {} shed requests",
                n1.wire_errors, n1.shed
            ));
        }
        if tr.enabled() {
            let round_trip = tr.per_op_ms("net.round_trip");
            let mut transport = round_trip.clone();
            let inside = [
                ("serve.handle_batch", "serve.handle_batch_ms"),
                ("wire.encode_request", "wire.encode_request_ms"),
                ("wire.decode_request", "wire.decode_request_ms"),
                ("wire.encode_response", "wire.encode_response_ms"),
                ("wire.decode_response", "wire.decode_response_ms"),
            ];
            for (span, metric) in inside {
                layer.insert(metric, tr.p50_ms(span));
                for (t, ms) in transport.iter_mut().zip(tr.per_op_ms(span)) {
                    *t -= ms;
                }
            }
            layer.insert("net.round_trip_ms", median(&round_trip));
            layer.insert("net.transport_ms", median(&transport));
            layer.insert("net.socket_floor_ms", tr.p50_ms("net.socket_floor"));
            layer.insert("net.connect_ms", tr.setup_ms("net.connect"));
            self.file.write_path_metrics(tr, layer);
        }
        Ok(Quality {
            stored_bytes_per_user_byte: self.file.stored_bytes_per_user_byte(),
            rel_error: self.rel_error,
            violations,
            warnings: Vec::new(),
        })
    }
}
