//! The request/response server: catalog + cache + batcher over the pool.
//!
//! [`Server::handle_batch`] is the core entry point. A batch runs in two
//! parallel phases on the process-wide
//! [`exaclim_runtime::pool`] worker pool:
//!
//! 1. **Fetch** — the batch's slice requests are planned
//!    ([`crate::batch::BatchPlan`]) and the deduplicated set of touched
//!    chunks is resolved in parallel: cache hit → shared `Arc` of the
//!    decoded values; miss → the single-flight reservation map elects one
//!    leader per chunk (cross-batch stampedes coalesce onto it), which
//!    fetches the stored bytes — a lock-free borrowed view on mapped and
//!    in-memory archives, a mutex-serialized read on stream archives —
//!    and decodes them on its own worker, outside any lock.
//! 2. **Answer** — every request is answered in parallel: slice responses
//!    are assembled from the shared decoded chunks, emulation requests run
//!    the registered model (its internal data parallelism nests safely —
//!    pool calls from workers run inline), and catalog queries read the
//!    immutable catalog.
//!
//! Both phases use the same pool the training/emulation hot paths use, so
//! `EXACLIM_THREADS` bounds serve concurrency the same way it bounds
//! compute parallelism: `EXACLIM_THREADS=1` serves every batch on the
//! caller thread, bit-identically to the concurrent configuration. The
//! one exception is a slice batch whose chunks are all cached, which the
//! network reactor answers itself (`Server::resident_batch`): it takes
//! the chunks in its residency check, so it skips phase 1, and runs
//! phase 2 on its own thread.

use crate::batch::{BatchPlan, SliceRequest};
use crate::cache::{CacheStats, ChunkCache, ChunkKey, Fetch, ProductCache};
use crate::catalog::Catalog;
use crate::error::ServeError;
use crate::product::{ProductData, ProductDescriptor, ScenarioSpec};
use exaclim_climate::Dataset;
use exaclim_store::{Codec, MemberKind};
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Byte budget of the decoded-chunk cache (0 disables caching).
    pub cache_bytes: usize,
    /// Number of independently locked cache shards.
    pub cache_shards: usize,
    /// Byte budget of the derived-product cache (0 disables it); products
    /// share the chunk cache's shard count.
    pub product_cache_bytes: usize,
}

impl Default for ServeConfig {
    /// 256 MiB of chunk cache across 16 shards, 64 MiB of product cache.
    fn default() -> Self {
        Self {
            cache_bytes: 256 << 20,
            cache_shards: 16,
            product_cache_bytes: 64 << 20,
        }
    }
}

/// A serving request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Read time slices of a field member.
    Slice(SliceRequest),
    /// Run a registered emulator forward.
    Emulate {
        /// Catalog name of the emulator.
        emulator: String,
        /// Steps to emulate.
        t_max: usize,
        /// Seed of the run (same seed ⇒ bit-identical output).
        seed: u64,
    },
    /// Query the catalog.
    Catalog(CatalogQuery),
    /// Snapshot the server's serving counters ([`ServeStats`]). Over the
    /// network front end this is the monitoring op: cheap, read-only, and
    /// answered from atomics without touching any archive.
    Stats,
    /// Evaluate a derived climate product server-side (scenario engine):
    /// windowed raw values, anomalies, ensemble mean/spread, trend,
    /// persistence, or Tukey tail extremes over an archive member or a
    /// fresh emulated ensemble. Results are cached by the descriptor's
    /// hash with single-flight stampede protection.
    Product(ProductDescriptor),
    /// Emulate an ensemble of stochastic realizations in one request,
    /// fanned over the worker pool with per-realization seeds. Sugar for
    /// a [`Request::Product`] with [`crate::product::ProductStat::Raw`]
    /// and no windows — both forms share one cache entry.
    Ensemble(ScenarioSpec),
    /// Wire-v4 deadline wrapper: answer the inner request only if less
    /// than `budget_ms` milliseconds have passed since the server
    /// *received* it; otherwise skip the work entirely and answer
    /// [`ServeError::DeadlineExpired`]. The budget covers queue time —
    /// under backlog, requests whose caller has certainly given up are
    /// dropped before they consume a worker. A zero budget is always
    /// expired (a deterministic probe of the deadline path). One level
    /// only: the wire decoder rejects a nested wrapper as malformed, and
    /// the server answers an in-process nested wrapper with
    /// [`ServeError::BadRequest`].
    WithDeadline {
        /// Milliseconds of budget from receipt to execution start.
        budget_ms: u32,
        /// The wrapped request (never itself a `WithDeadline`).
        request: Box<Request>,
    },
}

/// Metadata queries against the catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogQuery {
    /// Every open archive.
    ListArchives,
    /// Every member of one archive.
    ListMembers {
        /// Catalog name of the archive.
        archive: String,
    },
    /// One member's metadata.
    MemberInfo {
        /// Catalog name of the archive.
        archive: String,
        /// Member name.
        member: String,
    },
    /// Every registered emulator.
    ListEmulators,
}

/// A served field slice.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceData {
    /// Archive the slice came from.
    pub archive: String,
    /// Member the slice came from.
    pub member: String,
    /// The served time range.
    pub range: Range<u64>,
    /// Grid values per time slice.
    pub values_per_slice: u64,
    /// `(range.end − range.start) × values_per_slice` values, time-major —
    /// bit-identical to a sequential
    /// [`exaclim_store::Archive::read_field_slices`] read.
    pub values: Vec<f64>,
}

/// Summary of one open archive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchiveInfo {
    /// Catalog name.
    pub name: String,
    /// Member count.
    pub members: usize,
    /// Container length in bytes.
    pub total_len: u64,
}

/// Summary of one archive member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberInfo {
    /// Member name.
    pub name: String,
    /// Field or snapshot.
    pub kind: MemberKind,
    /// Wire codec id ([`exaclim_store::Codec`] for fields,
    /// [`exaclim_store::ByteCodec`] for snapshots).
    pub codec: u8,
    /// Time steps (fields) or payload bytes (snapshots).
    pub t_max: u64,
    /// Grid values per slice (0 for snapshots).
    pub values_per_slice: u64,
    /// Chunk count.
    pub chunks: usize,
    /// Snapshot schema version (0 for fields).
    pub snapshot_version: u32,
}

/// Summary of one registered emulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmulatorInfo {
    /// Catalog name.
    pub name: String,
    /// Spherical-harmonic band-limit of the model.
    pub lmax: usize,
    /// Grid rows × columns the model emulates.
    pub grid: (usize, usize),
    /// Bytes of the model's snapshot payload
    /// ([`exaclim::TrainedEmulator::parameter_bytes`]).
    pub parameter_bytes: usize,
}

/// Answer to a [`CatalogQuery`].
#[derive(Debug, Clone, PartialEq)]
pub enum CatalogAnswer {
    /// Reply to [`CatalogQuery::ListArchives`].
    Archives(Vec<ArchiveInfo>),
    /// Reply to [`CatalogQuery::ListMembers`].
    Members(Vec<MemberInfo>),
    /// Reply to [`CatalogQuery::MemberInfo`].
    Member(MemberInfo),
    /// Reply to [`CatalogQuery::ListEmulators`].
    Emulators(Vec<EmulatorInfo>),
}

/// A serving response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Slice`].
    Slice(SliceData),
    /// Reply to [`Request::Emulate`]: the emulated dataset.
    Emulate(Dataset),
    /// Reply to [`Request::Catalog`].
    Catalog(CatalogAnswer),
    /// Reply to [`Request::Stats`]: the counters at answer time.
    Stats(ServeStats),
    /// Reply to [`Request::Product`] and [`Request::Ensemble`]: the
    /// evaluated product block.
    Product(ProductData),
}

crate::metrics::counters! {
    /// Point-in-time serving counters (see [`Server::stats`]).
    pub struct ServeStats {
        /// Slice requests answered successfully.
        pub slices: u64,
        /// Emulation requests answered successfully.
        pub emulations: u64,
        /// Catalog queries and [`Request::Stats`] snapshots answered
        /// successfully.
        pub catalog_queries: u64,
        /// Requests that returned an error.
        pub errors: u64,
        /// Batches processed (single `handle` calls count as 1-batches).
        pub batches: u64,
        /// Chunk touches across all slice requests, before coalescing.
        pub chunk_touches: u64,
        /// Unique chunks actually resolved after coalescing; the difference
        /// to [`ServeStats::chunk_touches`] is work the batcher saved.
        pub chunk_fetches: u64,
        /// Chunks actually read and decoded from an archive — what remains
        /// after the cache absorbs hits and the single-flight reservation map
        /// collapses cross-batch stampedes. Under a hot-chunk stampede this
        /// counts exactly one decode per distinct chunk.
        pub chunk_decodes: u64,
        /// Derived-product requests answered successfully
        /// ([`Request::Product`] and [`Request::Ensemble`]).
        pub products: u64,
        /// Products actually evaluated — what remains after the product
        /// cache absorbs hits and its single-flight map collapses stampedes.
        /// A stampede on one descriptor counts exactly one compute.
        pub product_computes: u64,
        /// Wall-clock nanoseconds spent inside `handle_batch`.
        pub busy_nanos: u64,
        /// Requests skipped because their [`Request::WithDeadline`] budget
        /// had already expired when the batch started executing. Each also
        /// counts in [`ServeStats::errors`] (the request drew
        /// [`ServeError::DeadlineExpired`]).
        pub deadline_expired: u64,
    }

    /// The live counters behind [`Server::stats`].
    pub(crate) struct ServeCounters;
}

/// One request's answer before materialization: either a finished
/// [`Response`], or a slice answer held as references into the batch's
/// decoded chunks. The wire layer encodes the latter without ever
/// concatenating the values ([`crate::wire::encode_reply_batch`]), which
/// is what lets slice responses stream out of the chunk cache with zero
/// copies; [`Reply::into_response`] materializes it for in-process
/// callers, reproducing [`crate::batch::BatchPlan::assemble`] exactly.
pub(crate) enum Reply {
    /// A fully materialized answer.
    Full(Result<Response, ServeError>),
    /// A slice answer with its `values` left empty, and the
    /// `(decoded chunk, value range)` parts whose in-order concatenation
    /// they are.
    Slice(SliceData, Vec<(Arc<[f64]>, Range<usize>)>),
}

impl Reply {
    /// Materialize into the classic response form (copies slice values).
    pub(crate) fn into_response(self) -> Result<Response, ServeError> {
        match self {
            Reply::Full(r) => r,
            Reply::Slice(mut data, parts) => {
                let total: usize = parts.iter().map(|(_, r)| r.len()).sum();
                data.values.reserve_exact(total);
                for (chunk, r) in parts {
                    data.values.extend_from_slice(&chunk[r]);
                }
                Ok(Response::Slice(data))
            }
        }
    }
}

/// A batch with its deadline wrappers resolved and its live slice
/// requests planned together ([`Server::plan_batch`]).
struct PlannedBatch<'r> {
    /// Each request with its deadline wrapper stripped; `None` when its
    /// budget was spent by `t0`.
    effective: Vec<Option<&'r Request>>,
    plan: BatchPlan,
    /// When the batch began executing.
    t0: std::time::Instant,
}

/// A planned batch holding every chunk it needs, which the network
/// reactor answers itself ([`Server::resident_batch`]).
pub(crate) struct ResidentBatch<'r> {
    batch: PlannedBatch<'r>,
    /// Aligned with the plan's fetches.
    chunks: Vec<Result<Arc<[f64]>, ServeError>>,
}

/// `f(i)` for every `i < n`, in order: across the process-wide worker
/// pool, or on this thread when `serial`.
fn fill<T: Send>(n: usize, serial: bool, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if serial {
        return (0..n).map(f).collect();
    }
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    exaclim_runtime::pool::global().parallel_chunks_mut(&mut slots, 1, |i, slot| {
        slot[0] = Some(f(i));
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every slot filled"))
        .collect()
}

/// A serving instance: an immutable [`Catalog`] fronted by a
/// [`ChunkCache`], answering requests concurrently on the shared worker
/// pool.
///
/// ```
/// use exaclim_serve::{Catalog, Request, Response, ServeConfig, Server, SliceRequest};
/// use exaclim_store::{ArchiveWriter, Codec, FieldMeta};
/// use std::io::Cursor;
///
/// // A single-member archive in memory.
/// let data: Vec<f64> = (0..4 * 12).map(f64::from).collect();
/// let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
/// w.add_field("t2m", Codec::Raw64, FieldMeta::default(), 4, 5, &data).unwrap();
/// let (cursor, _) = w.finish().unwrap();
///
/// let mut catalog = Catalog::new();
/// catalog.open_archive_bytes("era5", cursor.into_inner()).unwrap();
/// let server = Server::new(catalog, ServeConfig::default());
///
/// let request = Request::Slice(SliceRequest {
///     archive: "era5".to_string(),
///     member: "t2m".to_string(),
///     range: 3..7,
/// });
/// let Ok(Response::Slice(slice)) = server.handle(&request) else { panic!() };
/// assert_eq!(slice.values, data[3 * 4..7 * 4]);
/// assert_eq!(server.stats().slices, 1);
/// ```
pub struct Server {
    pub(crate) catalog: Catalog,
    pub(crate) cache: ChunkCache,
    pub(crate) product_cache: ProductCache,
    pub(crate) stats: ServeCounters,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("archives", &self.catalog.archives().len())
            .field("emulators", &self.catalog.emulators().len())
            .field("cache", &self.cache)
            .finish()
    }
}

impl Server {
    /// Build a server over `catalog` with the given cache configuration.
    pub fn new(catalog: Catalog, config: ServeConfig) -> Self {
        Self {
            catalog,
            cache: ChunkCache::new(config.cache_bytes, config.cache_shards),
            product_cache: ProductCache::new(config.product_cache_bytes, config.cache_shards),
            stats: ServeCounters::default(),
        }
    }

    /// The catalog being served.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Current chunk-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Current derived-product cache counters, separate from the chunk
    /// counters so bench reports can tell the two apart.
    pub fn product_cache_stats(&self) -> CacheStats {
        self.product_cache.stats()
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServeStats {
        self.stats.snapshot()
    }

    /// Answer one request (a 1-element batch).
    pub fn handle(&self, request: &Request) -> Result<Response, ServeError> {
        self.handle_batch(std::slice::from_ref(request))
            .pop()
            .expect("one response per request")
    }

    /// Answer a batch of requests, coalescing slice reads that touch the
    /// same chunk and spreading chunk resolution + response assembly
    /// across the worker pool. Responses align with the input order, and
    /// each request fails or succeeds individually.
    pub fn handle_batch(&self, requests: &[Request]) -> Vec<Result<Response, ServeError>> {
        self.handle_batch_replies(requests)
            .into_iter()
            .map(Reply::into_response)
            .collect()
    }

    /// The core of [`Server::handle_batch`]: answer a batch, but leave
    /// slice answers as chunk references ([`Reply::Slice`]) instead of
    /// concatenated value vectors — the network front end encodes these
    /// straight out of the chunk cache.
    pub(crate) fn handle_batch_replies(&self, requests: &[Request]) -> Vec<Reply> {
        self.handle_batch_replies_from(requests, std::time::Instant::now())
    }

    /// [`Server::handle_batch_replies`] with an explicit receipt time:
    /// `received` is when the batch *arrived* (for the network front
    /// end, when its request frame was read off the socket), so
    /// [`Request::WithDeadline`] budgets cover dispatch-queue time, not
    /// just execution. Expired requests are answered
    /// [`ServeError::DeadlineExpired`] without planning, fetching, or
    /// computing anything on their behalf.
    pub(crate) fn handle_batch_replies_from(
        &self,
        requests: &[Request],
        received: std::time::Instant,
    ) -> Vec<Reply> {
        let batch = self.plan_batch(requests, received);
        // Phase 1: resolve the deduplicated chunk set in parallel.
        let fetched = fill(batch.plan.fetches.len(), false, |i| {
            self.resolve_chunk(batch.plan.fetches[i])
        });
        self.answer_planned(batch, &fetched, false)
    }

    /// Strip a batch's deadline wrappers and plan its live slice requests
    /// together — the step [`Server::handle_batch_replies_from`] and
    /// [`Server::resident_batch`] share.
    fn plan_batch<'r>(
        &self,
        requests: &'r [Request],
        received: std::time::Instant,
    ) -> PlannedBatch<'r> {
        let t0 = std::time::Instant::now();
        // An expired request becomes `None` (answered without touching
        // any archive), a live one contributes its inner request to
        // planning and execution.
        let waited = t0.saturating_duration_since(received);
        let effective: Vec<Option<&Request>> = requests
            .iter()
            .map(|r| match r {
                Request::WithDeadline { budget_ms, request } => {
                    if waited >= std::time::Duration::from_millis(u64::from(*budget_ms)) {
                        None
                    } else {
                        Some(request.as_ref())
                    }
                }
                other => Some(other),
            })
            .collect();
        let slice_reqs: Vec<SliceRequest> = effective
            .iter()
            .filter_map(|r| match r {
                Some(Request::Slice(s)) => Some(s.clone()),
                _ => None,
            })
            .collect();
        let plan = BatchPlan::build(&self.catalog, &slice_reqs);
        PlannedBatch {
            effective,
            plan,
            t0,
        }
    }

    /// Phase 2 and bookkeeping: answer every request of `batch` from its
    /// resolved chunks (`fetched`, aligned with the plan's fetches) —
    /// across the worker pool, or on this thread when `serial`.
    fn answer_planned(
        &self,
        batch: PlannedBatch<'_>,
        fetched: &[Result<Arc<[f64]>, ServeError>],
        serial: bool,
    ) -> Vec<Reply> {
        let PlannedBatch {
            effective,
            plan,
            t0,
        } = batch;
        let mut slice_no = 0usize;
        let slice_order: Vec<usize> = effective
            .iter()
            .map(|r| match r {
                Some(Request::Slice(_)) => {
                    slice_no += 1;
                    slice_no - 1
                }
                _ => usize::MAX,
            })
            .collect();
        let replies = fill(effective.len(), serial, |i| match effective[i] {
            None => Reply::Full(Err(ServeError::DeadlineExpired)),
            Some(Request::Slice(req)) => self.answer_slice(req, &plan, slice_order[i], fetched),
            Some(Request::Emulate {
                emulator,
                t_max,
                seed,
            }) => Reply::Full(self.answer_emulate(emulator, *t_max, *seed)),
            Some(Request::Catalog(query)) => Reply::Full(self.answer_catalog(query)),
            Some(Request::Stats) => Reply::Full(Ok(Response::Stats(self.stats()))),
            Some(Request::Product(descriptor)) => Reply::Full(self.answer_product(descriptor)),
            Some(Request::Ensemble(spec)) => {
                Reply::Full(self.answer_product(&crate::scenario::ensemble_descriptor(spec)))
            }
            // The wire decoder rejects nesting; an in-process caller
            // that builds one gets a typed refusal.
            Some(Request::WithDeadline { .. }) => Reply::Full(Err(ServeError::BadRequest(
                "nested deadline wrapper".to_string(),
            ))),
        });

        // Bookkeeping.
        for r in &replies {
            let cell = match r {
                Reply::Slice(..) | Reply::Full(Ok(Response::Slice(_))) => &self.stats.slices,
                Reply::Full(Ok(Response::Emulate(_))) => &self.stats.emulations,
                Reply::Full(Ok(Response::Catalog(_))) | Reply::Full(Ok(Response::Stats(_))) => {
                    &self.stats.catalog_queries
                }
                Reply::Full(Ok(Response::Product(_))) => &self.stats.products,
                Reply::Full(Err(_)) => &self.stats.errors,
            };
            cell.fetch_add(1, Ordering::Relaxed);
        }
        let expired = effective.iter().filter(|r| r.is_none()).count() as u64;
        if expired > 0 {
            self.stats
                .deadline_expired
                .fetch_add(expired, Ordering::Relaxed);
        }
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats
            .chunk_touches
            .fetch_add(plan.touches as u64, Ordering::Relaxed);
        self.stats
            .chunk_fetches
            .fetch_add(plan.fetches.len() as u64, Ordering::Relaxed);
        self.stats
            .busy_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        replies
    }

    /// Plan a batch the network reactor may answer on its own thread:
    /// every request a slice (deadline-wrapped or not), every planned
    /// chunk resident in the chunk cache, and an encoded response of at
    /// most `max_bytes`, to within a few dozen bytes per request. The
    /// resident chunks are taken here, counted as cache hits, so no
    /// eviction can take them back before [`Server::answer_resident`].
    /// `None` for any other batch, with no cache counter moved: the
    /// caller hands it to [`Server::handle_batch_replies_from`].
    pub(crate) fn resident_batch<'r>(
        &self,
        requests: &'r [Request],
        received: std::time::Instant,
        max_bytes: usize,
    ) -> Option<ResidentBatch<'r>> {
        /// Result and response tags, two string lengths, range,
        /// geometry and value count — or an error's tags and message.
        const PER_REPLY: usize = 64;
        let is_slice = |r: &Request| matches!(r, Request::Slice(_));
        if !requests.iter().all(|r| match r {
            Request::WithDeadline { request, .. } => is_slice(request),
            other => is_slice(other),
        }) {
            return None;
        }
        let batch = self.plan_batch(requests, received);
        let mut plans = batch.plan.per_request.iter();
        let bytes: usize = batch
            .effective
            .iter()
            .map(|r| match r {
                Some(Request::Slice(req)) => {
                    let values = plans
                        .next()
                        .expect("one plan per live slice")
                        .as_ref()
                        .map_or(0, |sp| {
                            (sp.range.end - sp.range.start) as usize * sp.values_per_slice as usize
                        });
                    PER_REPLY + req.archive.len() + req.member.len() + 8 * values
                }
                _ => PER_REPLY,
            })
            .sum();
        if 4 + bytes > max_bytes {
            return None;
        }
        let chunks = self.cache.get_resident(&batch.plan.fetches)?;
        Some(ResidentBatch {
            chunks: chunks.into_iter().map(Ok).collect(),
            batch,
        })
    }

    /// Answer a [`Server::resident_batch`] on this thread from the chunks
    /// it holds: no fetch, no wait, no worker pool. Same replies and
    /// counters as [`Server::handle_batch_replies_from`].
    pub(crate) fn answer_resident(&self, resident: ResidentBatch<'_>) -> Vec<Reply> {
        self.answer_planned(resident.batch, &resident.chunks, true)
    }

    /// Resolve one chunk: cache hit, single-flight wait, or lead the
    /// (exactly one) decode.
    pub(crate) fn resolve_chunk(&self, key: ChunkKey) -> Result<Arc<[f64]>, ServeError> {
        match self.cache.begin_fetch(key) {
            Fetch::Ready(values) => Ok(values),
            // Another worker (possibly in a different batch) is decoding
            // this very chunk: share its result instead of redecoding.
            Fetch::Wait(flight) => flight.wait(),
            Fetch::Lead(lead) => {
                let result = self.decode_chunk(key);
                lead.finish(result.clone());
                result
            }
        }
    }

    /// Fetch and decode one chunk from its archive. Over a zero-copy
    /// backend (mmap, in-memory) the stored bytes are a borrowed view —
    /// no lock, no copy; over a stream backend the read serializes on the
    /// source's internal mutex. Decode always runs on this worker,
    /// outside any lock.
    fn decode_chunk(&self, key: ChunkKey) -> Result<Arc<[f64]>, ServeError> {
        let archive = &self.catalog.archives()[key.archive as usize];
        let m = &archive.members()[key.member as usize];
        // Fault site `decode`: chunk fetch+decode. Corrupt surfaces as a
        // checksum failure (retryable; the single-flight map never caches
        // errors, so a retry re-decodes cleanly); other actions degrade
        // to a delay or no-op.
        if let Some(action) = exaclim_runtime::faults::check("decode") {
            use exaclim_runtime::FaultAction;
            match action {
                FaultAction::Delay(d) | FaultAction::Stall(d) => std::thread::sleep(d),
                FaultAction::Corrupt => {
                    return Err(ServeError::Archive(
                        exaclim_store::ArchiveError::ChecksumMismatch {
                            member: m.name.clone(),
                            chunk: key.chunk as usize,
                        },
                    ));
                }
                FaultAction::Error => {
                    return Err(ServeError::Internal("injected decode fault".to_string()));
                }
                _ => {}
            }
        }
        let codec = Codec::from_id(m.codec)?;
        let entry = m.chunks[key.chunk as usize];
        let stored = archive.fetch_chunk_stored(key.member as usize, key.chunk as usize)?;
        let n_values = entry.t_len as usize * m.values_per_slice as usize;
        let values: Arc<[f64]> = codec.decode(&stored, n_values)?.into();
        self.stats.chunk_decodes.fetch_add(1, Ordering::Relaxed);
        Ok(values)
    }

    /// Answer one slice request as chunk references — no values are
    /// copied here; [`Reply::into_response`] or the wire encoder
    /// concatenate (or stream) the parts later.
    fn answer_slice(
        &self,
        req: &SliceRequest,
        plan: &BatchPlan,
        slice_idx: usize,
        fetched: &[Result<Arc<[f64]>, ServeError>],
    ) -> Reply {
        let sp = match plan.per_request[slice_idx].as_ref() {
            Ok(sp) => sp,
            Err(e) => return Reply::Full(Err(e.clone())),
        };
        for &fi in &sp.fetch_indices {
            if let Err(e) = &fetched[fi] {
                return Reply::Full(Err(e.clone()));
            }
        }
        let parts = plan
            .assemble_parts(&self.catalog, sp)
            .into_iter()
            .map(|(fi, r)| {
                let chunk = fetched[fi].as_ref().expect("errors returned above");
                (Arc::clone(chunk), r)
            })
            .collect();
        let data = SliceData {
            archive: req.archive.clone(),
            member: req.member.clone(),
            range: sp.range.clone(),
            values_per_slice: sp.values_per_slice,
            values: Vec::new(),
        };
        Reply::Slice(data, parts)
    }

    /// Run a registered emulator forward; a run above the value budget
    /// is a bad request.
    fn answer_emulate(
        &self,
        emulator: &str,
        t_max: usize,
        seed: u64,
    ) -> Result<Response, ServeError> {
        let served = self.catalog.emulator(emulator)?;
        crate::scenario::check_emulation_size(t_max as u64, served.emulator.npoints())?;
        let dataset = served.emulator.emulate(t_max, seed)?;
        Ok(Response::Emulate(dataset))
    }

    /// Answer a catalog/metadata query.
    fn answer_catalog(&self, query: &CatalogQuery) -> Result<Response, ServeError> {
        let member_info = |m: &exaclim_store::MemberEntry| MemberInfo {
            name: m.name.clone(),
            kind: m.kind,
            codec: m.codec,
            t_max: m.t_max,
            values_per_slice: m.values_per_slice,
            chunks: m.chunks.len(),
            snapshot_version: m.snapshot_version,
        };
        let answer = match query {
            CatalogQuery::ListArchives => CatalogAnswer::Archives(
                self.catalog
                    .archives()
                    .iter()
                    .map(|a| ArchiveInfo {
                        name: a.name().to_string(),
                        members: a.members().len(),
                        total_len: a.total_len(),
                    })
                    .collect(),
            ),
            CatalogQuery::ListMembers { archive } => {
                let a = self.catalog.archive(archive)?;
                CatalogAnswer::Members(a.members().iter().map(member_info).collect())
            }
            CatalogQuery::MemberInfo { archive, member } => {
                let a = self.catalog.archive(archive)?;
                let idx = a.member_index(member)?;
                CatalogAnswer::Member(member_info(&a.members()[idx]))
            }
            CatalogQuery::ListEmulators => CatalogAnswer::Emulators(
                self.catalog
                    .emulators()
                    .iter()
                    .map(|e| EmulatorInfo {
                        name: e.name.clone(),
                        lmax: e.emulator.config.lmax,
                        grid: (e.emulator.ntheta, e.emulator.nphi),
                        parameter_bytes: e.parameter_bytes,
                    })
                    .collect(),
            ),
        };
        Ok(Response::Catalog(answer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaclim_store::{Archive, ArchiveWriter, FieldMeta};
    use std::io::Cursor;

    fn archive_bytes(codec: Codec, vps: usize, t_max: usize, chunk_t: usize) -> Vec<u8> {
        let data: Vec<f64> = (0..vps * t_max)
            .map(|i| 260.0 + 30.0 * (i as f64 * 0.013).sin())
            .collect();
        let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
        w.add_field("t2m", codec, FieldMeta::default(), vps, chunk_t, &data)
            .unwrap();
        w.finish().unwrap().0.into_inner()
    }

    fn server_with(codec: Codec, cache_bytes: usize) -> (Server, Vec<u8>) {
        let bytes = archive_bytes(codec, 6, 23, 4);
        let mut catalog = Catalog::new();
        catalog.open_archive_bytes("a", bytes.clone()).unwrap();
        (
            Server::new(
                catalog,
                ServeConfig {
                    cache_bytes,
                    cache_shards: 4,
                    ..ServeConfig::default()
                },
            ),
            bytes,
        )
    }

    fn slice(range: Range<u64>) -> Request {
        Request::Slice(SliceRequest {
            archive: "a".to_string(),
            member: "t2m".to_string(),
            range,
        })
    }

    #[test]
    fn batched_slices_match_sequential_reader_bitwise() {
        for codec in Codec::ALL {
            let (server, bytes) = server_with(codec, 1 << 20);
            let reader = Archive::from_reader(Cursor::new(bytes)).unwrap();
            let ranges = [0..23u64, 2..9, 8..9, 0..4, 20..23, 5..5];
            let batch: Vec<Request> = ranges.iter().map(|r| slice(r.clone())).collect();
            for r in server.handle_batch(&batch).into_iter().zip(&ranges) {
                let (Ok(Response::Slice(got)), range) = r else {
                    panic!("slice failed");
                };
                let want = reader.read_field_slices("t2m", range.clone()).unwrap();
                assert_eq!(got.values, want, "{} {range:?}", codec.label());
            }
        }
    }

    #[test]
    fn warm_reads_hit_the_cache() {
        let (server, _) = server_with(Codec::F32Shuffle, 1 << 20);
        let batch = vec![slice(0..23)];
        server.handle_batch(&batch);
        let cold = server.cache_stats();
        assert_eq!(cold.hits, 0);
        assert_eq!(cold.misses, 6); // ceil(23 / 4) chunks
        server.handle_batch(&batch);
        let warm = server.cache_stats();
        assert_eq!(warm.hits, 6);
        assert_eq!(warm.misses, 6, "no new misses on the warm pass");
    }

    #[test]
    fn mixed_batch_answers_everything_in_order() {
        let (server, _) = server_with(Codec::F32, 1 << 20);
        let batch = vec![
            Request::Catalog(CatalogQuery::ListArchives),
            slice(1..6),
            Request::Catalog(CatalogQuery::MemberInfo {
                archive: "a".to_string(),
                member: "t2m".to_string(),
            }),
            Request::Emulate {
                emulator: "none".to_string(),
                t_max: 10,
                seed: 0,
            },
        ];
        let responses = server.handle_batch(&batch);
        assert!(matches!(
            responses[0],
            Ok(Response::Catalog(CatalogAnswer::Archives(_)))
        ));
        assert!(matches!(responses[1], Ok(Response::Slice(_))));
        let Ok(Response::Catalog(CatalogAnswer::Member(info))) = &responses[2] else {
            panic!("member info failed");
        };
        assert_eq!((info.t_max, info.values_per_slice, info.chunks), (23, 6, 6));
        assert!(matches!(responses[3], Err(ServeError::UnknownEmulator(_))));
        let stats = server.stats();
        assert_eq!(
            (stats.slices, stats.catalog_queries, stats.errors),
            (1, 2, 1)
        );
    }

    #[test]
    fn coalescing_is_visible_in_stats() {
        let (server, _) = server_with(Codec::Raw64, 1 << 20);
        // 8 requests over the same two chunks.
        let batch: Vec<Request> = (0..8).map(|_| slice(0..8)).collect();
        server.handle_batch(&batch);
        let stats = server.stats();
        assert_eq!(stats.chunk_touches, 16);
        assert_eq!(stats.chunk_fetches, 2);
    }

    #[test]
    fn per_request_errors_do_not_poison_the_batch() {
        let (server, _) = server_with(Codec::F16, 1 << 20);
        let batch = vec![slice(0..5), slice(4..99), slice(6..8)];
        let responses = server.handle_batch(&batch);
        assert!(responses[0].is_ok());
        assert!(matches!(responses[1], Err(ServeError::Archive(_))));
        assert!(responses[2].is_ok());
    }

    #[test]
    fn expired_deadlines_are_skipped_and_counted() {
        let (server, _) = server_with(Codec::Raw64, 1 << 20);
        let batch = vec![
            // Zero budget ⇒ always expired, even in-process.
            Request::WithDeadline {
                budget_ms: 0,
                request: Box::new(slice(0..4)),
            },
            // A generous budget ⇒ answered normally.
            Request::WithDeadline {
                budget_ms: 60_000,
                request: Box::new(slice(0..4)),
            },
            Request::WithDeadline {
                budget_ms: 60_000,
                request: Box::new(Request::WithDeadline {
                    budget_ms: 60_000,
                    request: Box::new(Request::Stats),
                }),
            },
        ];
        let responses = server.handle_batch(&batch);
        assert_eq!(responses[0], Err(ServeError::DeadlineExpired));
        assert!(matches!(responses[1], Ok(Response::Slice(_))));
        assert!(matches!(responses[2], Err(ServeError::BadRequest(_))));
        let stats = server.stats();
        assert_eq!(stats.deadline_expired, 1);
        assert_eq!(stats.errors, 2);
        assert_eq!(stats.slices, 1);
    }

    #[test]
    fn zero_budget_cache_still_serves_correct_bytes() {
        let (server, bytes) = server_with(Codec::F32Shuffle, 0);
        let reader = Archive::from_reader(Cursor::new(bytes)).unwrap();
        for _ in 0..3 {
            let responses = server.handle_batch(&[slice(3..17)]);
            let Ok(Response::Slice(got)) = &responses[0] else {
                panic!()
            };
            assert_eq!(got.values, reader.read_field_slices("t2m", 3..17).unwrap());
        }
        assert_eq!(server.cache_stats().hits, 0);
    }
}
