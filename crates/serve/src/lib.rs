//! # exaclim-serve
//!
//! The serving layer of the reproduction — the ROADMAP's north-star
//! workload. A long-running process opens ECA1 archives and trained
//! emulator snapshots once, then answers three request kinds at scale:
//!
//! * **field slices** — `(archive, member, time-range)` reads, assembled
//!   from whole decoded chunks,
//! * **emulation runs** — a registered [`exaclim::TrainedEmulator`] run
//!   forward for `(t_max, seed)`,
//! * **catalog queries** — archive, member, and emulator metadata,
//! * **derived products** — the scenario engine: ensemble fan-out and
//!   server-side statistics (anomaly, mean/std, trend, persistence,
//!   Tukey extremes) over archive members or fresh ensemble output,
//!   described by a [`ProductDescriptor`] and cached by content hash.
//!
//! The architecture is the one `exaclim-store`'s chunk granularity was
//! designed for:
//!
//! * [`catalog`] — the name space of opened archives and registered
//!   emulators; each archive is an [`exaclim_store::Archive`] over a
//!   byte source: memory-mapped files and in-memory buffers serve
//!   **lock-free zero-copy** chunk fetches, arbitrary streams fall back
//!   to a mutex inside the source (decode always outside any lock),
//! * [`cache`] — a sharded LRU of **decoded** chunks keyed by
//!   `(archive, member, chunk)` with byte-budget eviction; entries are
//!   immutable `Arc<[f64]>` values, so hits are zero-copy and eviction can
//!   never tear a response in flight; a **single-flight** reservation map
//!   collapses concurrent cross-batch misses on one chunk into exactly
//!   one decode,
//! * [`batch`] — request coalescing: a batch's slice requests are planned
//!   together and each distinct chunk is fetched and decoded once,
//! * [`product`] / [`scenario`] — the scenario engine:
//!   [`ProductDescriptor`]s hash to [`ProductKey`]s, and evaluation
//!   (ensemble fan-out with decorrelated per-realization seeds, then a
//!   statistic kernel) flows through a product-level single-flight cache
//!   so a stampede on one descriptor computes it exactly once,
//! * [`server`] — the request/response front end, dispatching chunk
//!   resolution and response assembly over the
//!   [`exaclim_runtime::pool`] worker pool (`EXACLIM_THREADS` bounds serve
//!   concurrency exactly as it bounds compute),
//! * [`wire`] — the dependency-free `ECN1` framed wire protocol:
//!   24-byte headers of one protocol version, CRC32-protected
//!   length-capped payloads, a full request/response codec whose round
//!   trip is bit-identical, and a zero-copy streaming encoder that cuts
//!   every response into sequenced, FIN-terminated fragments whose payload
//!   bytes are borrowed straight from the chunk cache's value buffers,
//! * [`net`] — the TCP front end over [`wire`]: a [`net::NetServer`]
//!   whose connections are nonblocking frame state machines multiplexed
//!   over the [`exaclim_runtime::reactor`] (thread count constant in the
//!   connection count, per-connection back-pressure with memory bounded
//!   by about one stream fragment, idle reaping, graceful drain via the
//!   wakeup fd; unix-only, like the reactor), and a blocking, portable
//!   [`net::Client`] with connection reuse, pipelining, and transparent
//!   stream reassembly.
//!
//! The serving stack is built to **survive chaos**: a seeded fault plan
//! ([`exaclim_runtime::faults`], armed via `EXACLIM_FAULTS`) injects
//! socket failures, decode corruption, and worker panics at named
//! sites; the server contains dispatch panics as typed
//! [`ServeError::Internal`] responses, sheds work past a configurable
//! backlog as retryable [`ServeError::Overloaded`] hints, and skips
//! requests whose (v4) deadline wrapper already expired; the client
//! self-heals with capped decorrelated-jitter retries and
//! reconnect-with-replay when a [`RetryPolicy`] is armed — sound
//! because every serving operation is read-only.
//!
//! Served bytes are **bit-identical** to sequential
//! [`exaclim_store::Archive`] reads at any thread count and any
//! cache budget — caching and batching change performance, never values.
//!
//! ## Example
//!
//! ```
//! use exaclim_serve::{Catalog, Request, Response, ServeConfig, Server, SliceRequest};
//! use exaclim_store::{ArchiveWriter, Codec, FieldMeta};
//! use std::io::Cursor;
//!
//! // Build a small in-memory archive: 8 time steps of a 6-value field.
//! let data: Vec<f64> = (0..6 * 8).map(|i| 280.0 + i as f64 * 0.1).collect();
//! let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
//! w.add_field("t2m", Codec::F32Shuffle, FieldMeta::default(), 6, 3, &data).unwrap();
//! let (cursor, _) = w.finish().unwrap();
//!
//! // Open it in a catalog and serve a batch of overlapping slices.
//! let mut catalog = Catalog::new();
//! catalog.open_archive_bytes("demo", cursor.into_inner()).unwrap();
//! let server = Server::new(catalog, ServeConfig::default());
//! let slice = |range| Request::Slice(SliceRequest {
//!     archive: "demo".to_string(),
//!     member: "t2m".to_string(),
//!     range,
//! });
//! let responses = server.handle_batch(&[slice(0..8), slice(2..5), slice(4..8)]);
//! assert!(responses.iter().all(|r| r.is_ok()));
//!
//! // The three requests touched 3 + 2 + 2 chunks but each of the three
//! // distinct chunks was fetched once; a repeat batch is all cache hits.
//! let stats = server.stats();
//! assert_eq!((stats.chunk_touches, stats.chunk_fetches), (7, 3));
//! server.handle_batch(&[slice(0..8)]);
//! assert_eq!(server.cache_stats().hits, 3);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod catalog;
pub mod error;
mod metrics;
pub mod net;
pub mod product;
pub mod scenario;
pub mod server;
pub mod wire;

pub use batch::{BatchPlan, SliceRequest};
pub use cache::{
    CacheKey, CacheStats, ChunkCache, ChunkKey, Fetch, Flight, FlightLead, ProductCache, ValueCache,
};
pub use catalog::{ByteSource, Catalog, ServedArchive, ServedEmulator};
pub use error::{ServeError, WireError};
pub use net::{Client, ClientConfig, ClientStats, NetConfig, NetStats, RetryPolicy};
#[cfg(unix)]
pub use net::{NetServer, NetServerHandle};
pub use product::{
    ProductData, ProductDescriptor, ProductKey, ProductSource, ProductStat, ScenarioSpec,
};
pub use server::{
    ArchiveInfo, CatalogAnswer, CatalogQuery, EmulatorInfo, MemberInfo, Request, Response,
    ServeConfig, ServeStats, Server, SliceData,
};
