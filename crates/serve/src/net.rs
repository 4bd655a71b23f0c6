//! The network front end: a framed-TCP server and client over
//! [`Server::handle_batch`], speaking the [`crate::wire`] protocol.
//!
//! ## Connection lifecycle
//!
//! [`NetServer::bind`] opens a nonblocking listener and registers it with
//! a fresh [`exaclim_runtime::reactor::Reactor`] (raw `epoll`/`poll(2)`
//! FFI, no dependencies); [`NetServer::spawn`] starts the server and
//! returns a [`NetServerHandle`]. The server is **event-driven** and,
//! like the reactor, unix-only ([`Client`] is portable): one reactor
//! thread multiplexes every connection as a nonblocking frame state
//! machine:
//!
//! * **header-scan** — bytes accumulate until the fixed 24-byte `ECN1`
//!   header is present and valid (bad magic/version/kind/cap frames are
//!   rejected from the header alone, before any payload is buffered),
//! * **payload-accumulate** — the checksummed payload fills,
//! * **dispatch** — a decoded batch made only of slice requests whose
//!   chunks are all resident in the chunk cache, and whose response fits
//!   one default stream fragment (256 KiB), is answered right here on
//!   the reactor thread, from the chunks the residency check took and
//!   without entering the worker pool: a cache hit costs microseconds,
//!   less than the hand-off to a worker and back. Every other batch —
//!   cache misses, products, emulations, catalog and stats queries, and
//!   any batch that drew a `dispatch` fault — is queued to a small fixed
//!   set of dispatch workers ([`NetConfig::dispatch_threads`]) that run
//!   the in-process batch
//!   (which fans out over the shared worker pool — `EXACLIM_THREADS`
//!   still bounds *compute*) and hand the encoded response **body** —
//!   segments referencing the chunk cache, not a copied frame — back
//!   through the reactor's wakeup fd. Both places plan and answer with
//!   the same code, so a batch's response bytes do not depend on where
//!   it ran,
//! * **write-drain** — the response leaves frame by frame through a
//!   [`crate::wire::FrameStream`]: each fragment is cut on demand and
//!   written with gathered `writev` straight from the shared chunk
//!   buffers, so per-connection owned memory is bounded by one fragment's
//!   header + metadata ([`NetConfig::stream_chunk_bytes`] governs the
//!   fragment size) no matter how large the slice. At most one response
//!   is in flight per connection, read interest stays off until it
//!   drains, and a write budget of a few frames per readiness round keeps
//!   one fat response from starving its neighbours.
//!
//! Thread count is a constant (reactor + dispatch workers + the shared
//! pool), not a function of connection count: mostly-idle keep-alive
//! fleets cost a registration and a deadline each, nothing more. Idle,
//! half-open, and slowloris connections are reaped when
//! [`NetConfig::idle_timeout`] passes without a complete frame (counted
//! in [`NetStats::reaped_idle`]); connections queued past
//! [`NetConfig::max_connections`] wait in the listener backlog. Because
//! buffered bytes are re-parsed each time a response finishes, a client
//! may **pipeline**: write several request frames before reading the
//! first response — responses come back in order. A connection answers
//! at most a few buffered frames per readiness round and resumes the
//! rest on the next, so one pipelining client cannot starve the others;
//! it reads at most 64 KiB per round, and nothing more until it has
//! parsed every complete frame, so a client that sends faster than it
//! is answered is held back by its own socket.
//!
//! Transport-level failures (bad magic, version mismatch, oversized or
//! corrupt frames) are answered best-effort with an error frame and then
//! the connection is closed — once framing is suspect, nothing after the
//! bad frame can be trusted. Per-request failures (unknown member, bad
//! range) travel *inside* a well-formed response frame and do not
//! disturb the connection or the rest of the batch.
//!
//! [`NetServerHandle::shutdown`] nudges the reactor through its wakeup
//! fd: the listener closes, idle connections close, connections with a
//! dispatched batch or a partially-written response drain first, and
//! every thread is joined before `shutdown` returns.
//!
//! ## Example
//!
//! ```
//! use exaclim_serve::net::{Client, NetConfig, NetServer};
//! use exaclim_serve::{Catalog, Request, Response, ServeConfig, Server, SliceRequest};
//! use exaclim_store::{ArchiveWriter, Codec, FieldMeta};
//! use std::io::Cursor;
//! use std::sync::Arc;
//!
//! // An in-memory archive behind an in-process server…
//! let data: Vec<f64> = (0..4 * 12).map(f64::from).collect();
//! let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
//! w.add_field("t2m", Codec::Raw64, FieldMeta::default(), 4, 5, &data).unwrap();
//! let (cursor, _) = w.finish().unwrap();
//! let mut catalog = Catalog::new();
//! catalog.open_archive_bytes("era5", cursor.into_inner()).unwrap();
//! let server = Arc::new(Server::new(catalog, ServeConfig::default()));
//!
//! // …served over loopback.
//! let handle = NetServer::bind("127.0.0.1:0", server, NetConfig::default())
//!     .unwrap()
//!     .spawn();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let responses = client
//!     .batch(&[Request::Slice(SliceRequest {
//!         archive: "era5".to_string(),
//!         member: "t2m".to_string(),
//!         range: 3..7,
//!     })])
//!     .unwrap();
//! let Ok(Response::Slice(slice)) = &responses[0] else { panic!() };
//! assert_eq!(slice.values, data[3 * 4..7 * 4]);
//! drop(client);
//! handle.shutdown();
//! ```

use crate::error::{ServeError, WireError};
use crate::product::{ProductData, ProductDescriptor, ScenarioSpec};
use crate::server::{Request, Response, ServeStats};
use crate::wire::{self, FrameKind};
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;
#[cfg(unix)]
use {
    crate::server::Server,
    exaclim_runtime::reactor::{Reactor, Waker},
    std::net::TcpListener,
    std::sync::atomic::{AtomicBool, Ordering},
    std::sync::Arc,
};

/// Tuning knobs of a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Maximum concurrently open connections; further clients queue in
    /// the listener backlog until a slot frees up. A connection costs a
    /// reactor registration, not a thread, so this is cheap to raise.
    pub max_connections: usize,
    /// Reap a connection that goes this long without completing a frame
    /// (while idle or dribbling — slowloris) or without draining any
    /// response bytes (dead peer). `None` disables reaping. Connections
    /// whose batch is still executing are never reaped.
    pub idle_timeout: Option<Duration>,
    /// Dispatch workers that execute decoded batches (each batch still
    /// fans out over the shared worker pool). `0` sizes automatically
    /// from the pool's thread count.
    pub dispatch_threads: usize,
    /// Payload bytes per response fragment. Responses larger than this
    /// go out as a sequence of CRC-checked stream fragments, which is
    /// what bounds per-connection server memory; smaller ones (and every
    /// response when this is `0`) go out as one fragment.
    pub stream_chunk_bytes: usize,
    /// Overload protection: when this many batches are already queued
    /// for the dispatch workers, new request frames are **shed** —
    /// answered immediately with one retryable
    /// [`ServeError::Overloaded`] per request instead of joining a queue
    /// they would time out in. The connection stays open; a client with
    /// a [`RetryPolicy`] backs off and resubmits. `0` disables shedding.
    /// The backlog is checked before the reactor decides whether it can
    /// answer a batch itself, so past it even a cache-resident slice
    /// batch is shed.
    pub max_dispatch_backlog: usize,
    /// Backoff hint carried in shed responses'
    /// [`ServeError::Overloaded::retry_after_ms`].
    pub shed_retry_after_ms: u32,
}

/// The default [`NetConfig::stream_chunk_bytes`], which is also the
/// largest response the reactor answers itself.
const DEFAULT_STREAM_CHUNK_BYTES: usize = 256 << 10;

impl Default for NetConfig {
    /// 4096 connections, 60 s idle deadline, auto-sized dispatch,
    /// 256 KiB stream fragments, shedding past 1024 queued batches with
    /// a 25 ms retry hint.
    fn default() -> Self {
        Self {
            max_connections: 4096,
            idle_timeout: Some(Duration::from_secs(60)),
            dispatch_threads: 0,
            stream_chunk_bytes: DEFAULT_STREAM_CHUNK_BYTES,
            max_dispatch_backlog: 1024,
            shed_retry_after_ms: 25,
        }
    }
}

crate::metrics::counters! {
    /// Point-in-time transport counters of a [`NetServer`] (see
    /// [`NetServerHandle::net_stats`]). Complements [`ServeStats`], which
    /// counts requests; these count connections, frames, and bytes.
    pub struct NetStats {
        /// Connections admitted over the server's lifetime.
        pub connections: u64,
        /// Connections open right now (gauge).
        pub open_connections: u64,
        /// High-water mark of concurrently open connections.
        pub peak_connections: u64,
        /// Request frames successfully read and decoded.
        pub frames_in: u64,
        /// Response frames written.
        pub frames_out: u64,
        /// Bytes received (headers + payloads of well-formed frames).
        pub bytes_in: u64,
        /// Bytes sent (headers + payloads).
        pub bytes_out: u64,
        /// Requests decoded out of request frames.
        pub requests: u64,
        /// Transport-level failures observed (malformed frames, socket
        /// errors); each also closed its connection.
        pub wire_errors: u64,
        /// Cross-thread reactor wakeups consumed (batch completions and
        /// shutdown nudges delivered through the wakeup fd). Batches the
        /// reactor answers itself — cache-resident slice batches, see the
        /// module docs — never wake it.
        pub reactor_wakeups: u64,
        /// Connections reaped by the [`NetConfig::idle_timeout`] deadline
        /// (idle keep-alives, half-open peers, slowloris dribblers).
        pub reaped_idle: u64,
        /// Accept errors (fd exhaustion, a reset mid-handshake) plus accepted
        /// connections that could not be made nonblocking or registered with
        /// the reactor; each is dropped and the listener keeps serving.
        pub rejected: u64,
        /// Responses that left as a sequence of stream fragments instead of
        /// one monolithic frame (see [`NetConfig::stream_chunk_bytes`]).
        pub streamed_responses: u64,
        /// Stream fragments written across all streamed responses.
        pub stream_frames_out: u64,
        /// High-water mark of bytes a single connection *owned*: its
        /// unparsed request bytes (at most one 64 KiB socket read plus the
        /// partial frame it completes), or while a response drained, frame
        /// header + copied metadata, excluding shared chunk-cache
        /// references. The streaming wire path bounds the latter by roughly
        /// one stream fragment regardless of response size.
        pub peak_conn_buffered_bytes: u64,
        /// Histogram of frames per completed response, bucketed 1, 2, 3–4,
        /// 5–8, 9–16, 17–32, 33–64, 65+.
        pub frames_per_response: [u64; 8],
        /// Requests shed by overload protection: answered
        /// [`ServeError::Overloaded`] because the dispatch backlog was over
        /// [`NetConfig::max_dispatch_backlog`] when their frame arrived.
        pub shed: u64,
        /// Faults injected process-wide since start
        /// ([`exaclim_runtime::faults::injected`]); zero unless a fault plan
        /// is armed. Snapshotted here so chaos harnesses can assert the
        /// schedule actually fired from the same place they read transport
        /// counters.
        pub faults_injected: u64,
    }

    /// The live counters behind [`NetServerHandle::net_stats`].
    /// `faults_injected` stays zero here: the snapshot reads it from
    /// [`exaclim_runtime::faults::injected`].
    #[cfg(unix)]
    pub(crate) struct NetCounters;
}

/// Histogram bucket of a frames-per-response count: 1, 2, 3–4, 5–8,
/// 9–16, 17–32, 33–64, 65+.
#[cfg(unix)]
fn frames_bucket(frames: u32) -> usize {
    match frames {
        0 | 1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        17..=32 => 5,
        33..=64 => 6,
        _ => 7,
    }
}

/// State shared between the serving threads (reactor + dispatch workers)
/// and the [`NetServerHandle`].
#[cfg(unix)]
struct NetShared {
    /// The in-process server every decoded batch executes on.
    server: Arc<Server>,
    stats: NetCounters,
    /// Set when shutdown begins; the reactor observes it on the wakeup
    /// that [`NetServerHandle::shutdown`] sends right after.
    shutdown: AtomicBool,
}

/// A bound-but-not-yet-serving network front end over a [`Server`]: the
/// listener is open and registered with its reactor, so clients queue in
/// the backlog until [`NetServer::spawn`].
#[cfg(unix)]
pub struct NetServer {
    listener: TcpListener,
    reactor: Reactor,
    addr: SocketAddr,
    shared: Arc<NetShared>,
    config: NetConfig,
}

#[cfg(unix)]
impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("max_connections", &self.config.max_connections)
            .finish()
    }
}

#[cfg(unix)]
impl NetServer {
    /// Bind a listener on `addr` (use port 0 for an ephemeral port) over
    /// an existing in-process server: open it, make it nonblocking and
    /// register it with a fresh reactor. Any failure is an error from
    /// `bind`, so a server that cannot accept never hands out a handle.
    pub fn bind(
        addr: impl ToSocketAddrs,
        server: Arc<Server>,
        config: NetConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let mut reactor = Reactor::new()?;
        event::listen(&mut reactor, &listener)?;
        Ok(Self {
            listener,
            reactor,
            addr,
            shared: Arc::new(NetShared {
                server,
                stats: NetCounters::default(),
                shutdown: AtomicBool::new(false),
            }),
            config,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Start serving and return the controlling handle: the reactor
    /// thread plus [`NetConfig::dispatch_threads`] dispatch workers (see
    /// the module docs).
    pub fn spawn(self) -> NetServerHandle {
        event::spawn_event(self)
    }
}

/// Controlling handle of a running [`NetServer`]: address, transport
/// stats, graceful shutdown. Dropping the handle shuts the server down.
#[cfg(unix)]
pub struct NetServerHandle {
    addr: SocketAddr,
    shared: Arc<NetShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// Nudges the parked reactor when shutdown begins.
    waker: Waker,
}

#[cfg(unix)]
impl std::fmt::Debug for NetServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServerHandle")
            .field("addr", &self.addr)
            .finish()
    }
}

#[cfg(unix)]
impl NetServerHandle {
    /// Address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The in-process server behind the wire.
    pub fn server(&self) -> &Arc<Server> {
        &self.shared.server
    }

    /// Current transport counters.
    pub fn net_stats(&self) -> NetStats {
        NetStats {
            faults_injected: exaclim_runtime::faults::injected(),
            ..self.shared.stats.snapshot()
        }
    }

    /// Stop accepting, drain every open connection, and join all
    /// threads. Dropping the handle does the same.
    pub fn shutdown(self) {
        drop(self);
    }
}

/// Flag, nudge the parked reactor through the wakeup fd, and join. The
/// reactor closes the listener, closes idle connections, lets dispatched
/// batches and half-written responses drain, then stops the dispatch
/// workers.
#[cfg(unix)]
impl Drop for NetServerHandle {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Nonblocking frame state machines over the reactor
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod event {
    use super::*;
    use crate::wire::HEADER_LEN;
    use exaclim_runtime::reactor::{Interest, Token};
    use exaclim_runtime::FaultAction;
    use parking_lot::{Condvar, Mutex};
    use std::collections::HashMap;
    use std::io::{ErrorKind, Read};
    use std::net::Shutdown;
    use std::os::unix::io::AsRawFd;
    use std::time::Instant;

    /// The listener's reactor token; connections count up from 1.
    const LISTENER: Token = Token(0);

    /// Arm (or re-arm) the listener's level-triggered read interest.
    pub(super) fn listen(reactor: &mut Reactor, listener: &TcpListener) -> std::io::Result<()> {
        reactor.register(listener.as_raw_fd(), LISTENER, Interest::READABLE)
    }

    /// A decoded request batch on its way to a dispatch worker.
    struct Job {
        token: u64,
        id: u64,
        requests: Vec<Request>,
        /// When the request frame was parsed off the socket. Per-request
        /// deadline budgets ([`Request::WithDeadline`]) count from here,
        /// so queue time under backlog spends the budget.
        received: Instant,
        /// The batch's draw at fault site `dispatch`, made at parse time
        /// and realized by the worker (see [`execute`]).
        fault: Option<FaultAction>,
    }

    /// A finished batch on its way back to the reactor: the encoded
    /// response *body* — segments referencing chunk-cache buffers, not a
    /// materialized frame. The reactor cuts it into wire frames on the
    /// connection's write-drain.
    struct Completion {
        token: u64,
        id: u64,
        body: wire::ResponseBody,
    }

    /// The bridge between the reactor thread and the dispatch workers:
    /// jobs flow out through a condvar queue, completions flow back
    /// through a mutexed vector plus a wakeup-fd nudge.
    struct Dispatch {
        jobs: Mutex<(VecDeque<Job>, bool)>,
        jobs_cv: Condvar,
        completions: Mutex<Vec<Completion>>,
        waker: Waker,
        shared: Arc<NetShared>,
    }

    impl Dispatch {
        fn push(&self, job: Job) {
            self.jobs.lock().0.push_back(job);
            self.jobs_cv.notify_one();
        }

        fn close(&self) {
            self.jobs.lock().1 = true;
            self.jobs_cv.notify_all();
        }
    }

    /// Answer one decoded batch of `n_requests` through `run` and encode
    /// its response body — slice values as chunk-cache references, zero
    /// copies. The dispatch workers and the reactor's inline path both
    /// run this.
    ///
    /// `fault` is the batch's draw at fault site `dispatch`: a delay
    /// sleeps and a panic unwinds here. Panic containment: a panic
    /// (injected or organic — a poisoned archive, a bug in a product
    /// kernel) must not strand the requester or kill the thread. Each
    /// request on the batch draws a typed retryable
    /// [`ServeError::Internal`] instead, and the thread survives to take
    /// the next batch.
    fn execute(
        n_requests: usize,
        fault: Option<FaultAction>,
        run: impl FnOnce() -> Vec<crate::server::Reply>,
    ) -> wire::ResponseBody {
        let replies = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            match fault {
                Some(FaultAction::Delay(dur) | FaultAction::Stall(dur)) => std::thread::sleep(dur),
                Some(FaultAction::Panic) => panic!("injected dispatch fault"),
                _ => {}
            }
            run()
        }))
        .unwrap_or_else(|_| {
            (0..n_requests)
                .map(|_| {
                    crate::server::Reply::Full(Err(ServeError::Internal(
                        "request execution panicked".to_string(),
                    )))
                })
                .collect()
        });
        wire::encode_reply_batch(replies)
    }

    /// Dispatch worker: pop a job, [`execute`] it (fanning out over the
    /// shared worker pool), hand the body back, nudge the reactor.
    fn dispatch_worker(d: &Dispatch) {
        loop {
            let job = {
                let mut q = d.jobs.lock();
                loop {
                    if let Some(job) = q.0.pop_front() {
                        break job;
                    }
                    if q.1 {
                        return;
                    }
                    d.jobs_cv.wait(&mut q);
                }
            };
            let body = execute(job.requests.len(), job.fault, || {
                d.shared
                    .server
                    .handle_batch_replies_from(&job.requests, job.received)
            });
            d.completions.lock().push(Completion {
                token: job.token,
                id: job.id,
                body,
            });
            d.waker.wake();
        }
    }

    /// Where a connection's state machine stands.
    enum Phase {
        /// Accumulating request bytes (header-scan / payload-accumulate).
        Reading,
        /// A decoded batch is executing on a dispatch worker; read
        /// interest is off (one batch in flight per connection).
        Dispatched,
    }

    /// A response (or error) mid-drain: a [`wire::FrameStream`] cutting
    /// the body into frames on demand, plus the frame currently leaving.
    /// Only `cur`'s header (and small copied metadata runs) is owned;
    /// payload bytes stay in the shared chunk cache until `writev` reads
    /// them, which is what bounds per-connection memory.
    struct Outgoing {
        stream: wire::FrameStream,
        /// The staged frame and how many of its bytes have left.
        cur: Option<(wire::OutFrame, usize)>,
        /// Response frames count toward `frames_out`/`bytes_out`;
        /// error frames do not.
        is_response: bool,
    }

    /// Frames a connection drains, and request frames it answers, per
    /// readiness round. A fat streamed response yields the reactor back
    /// after this many frames so its neighbours get their turn
    /// (level-triggered readiness re-announces the still-writable socket
    /// next round); so does a pipelined burst, whose leftover frames are
    /// resumed next round through [`EventLoop::resume`].
    const FRAMES_PER_ROUND: u32 = 8;

    /// One connection's nonblocking state machine.
    struct Conn {
        stream: TcpStream,
        /// Unparsed request bytes: at most one socket read plus the
        /// partial frame it completed. Nothing is read while a batch
        /// executes, a response drains, or complete frames may still be
        /// buffered ([`Conn::parse_pending`]), so a peer that sends
        /// faster than it is answered fills its own socket buffers, not
        /// this one.
        buf: Vec<u8>,
        /// The connection spent its [`FRAMES_PER_ROUND`] budget with
        /// frames possibly still buffered; it parses on next round
        /// ([`EventLoop::resume`]) before it reads again.
        parse_pending: bool,
        phase: Phase,
        write: Option<Outgoing>,
        /// Close once the pending write drains (error frames, shutdown).
        close_after: bool,
        /// The peer's write side closed; whatever is buffered is all
        /// there will ever be.
        eof: bool,
        interest: Interest,
        /// Last time this connection completed a frame in or pushed
        /// response bytes out. The idle wheel is re-armed lazily from
        /// this on expiry instead of on every frame (hot connections
        /// would otherwise churn the deadline structure per frame).
        last_activity: Instant,
    }

    impl Conn {
        fn new(stream: TcpStream) -> Self {
            Self {
                stream,
                buf: Vec::new(),
                parse_pending: false,
                phase: Phase::Reading,
                write: None,
                close_after: false,
                eof: false,
                interest: Interest::READABLE,
                last_activity: Instant::now(),
            }
        }

        /// No response draining and no batch executing: the connection
        /// may read and parse its next frame.
        fn ready(&self) -> bool {
            self.write.is_none() && matches!(self.phase, Phase::Reading)
        }
    }

    /// What the frame parser decided about the head of `Conn::buf`.
    enum Parsed {
        /// Not enough bytes yet; keep reading.
        NeedMore,
        /// The peer closed cleanly between frames.
        CleanClose,
        /// Transport-level violation: answer with an error frame carrying
        /// this id and message, then close.
        Fail { id: u64, msg: String },
        /// A complete, valid request frame of `total` bytes carrying
        /// this batch.
        Request {
            id: u64,
            total: usize,
            requests: Vec<Request>,
        },
    }

    /// The reactor thread's whole world.
    struct EventLoop {
        reactor: Reactor,
        listener: Option<TcpListener>,
        accepting: bool,
        conns: HashMap<u64, Conn>,
        next_token: u64,
        scratch: Vec<u8>,
        /// Connections that spent their [`FRAMES_PER_ROUND`] budget with
        /// pipelined frames possibly still buffered
        /// ([`Conn::parse_pending`]). Level-triggered readiness will not
        /// re-announce bytes already read, so the next round parses on
        /// for them, and polls without blocking until it has.
        resume: Vec<u64>,
        draining: bool,
        dispatch: Arc<Dispatch>,
        shared: Arc<NetShared>,
        config: NetConfig,
    }

    /// Launch the event-driven server: dispatch workers plus the reactor
    /// thread, all joined by [`NetServerHandle::shutdown`].
    pub(super) fn spawn_event(server: NetServer) -> NetServerHandle {
        let NetServer {
            listener,
            reactor,
            addr,
            shared,
            config,
        } = server;
        let waker = reactor.waker();
        let dispatch = Arc::new(Dispatch {
            jobs: Mutex::new((VecDeque::new(), false)),
            jobs_cv: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            waker: reactor.waker(),
            shared: Arc::clone(&shared),
        });
        let workers = if config.dispatch_threads == 0 {
            exaclim_runtime::pool::global().threads().clamp(1, 8)
        } else {
            config.dispatch_threads
        };
        let mut threads = Vec::with_capacity(workers + 1);
        for i in 0..workers {
            let d = Arc::clone(&dispatch);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("exaclim-net-dispatch-{i}"))
                    .spawn(move || dispatch_worker(&d))
                    .expect("spawn dispatch worker"),
            );
        }
        let loop_shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("exaclim-net-reactor".to_string())
                .spawn(move || {
                    let mut el = EventLoop {
                        reactor,
                        listener: Some(listener),
                        // `NetServer::bind` registered the listener.
                        accepting: true,
                        conns: HashMap::new(),
                        next_token: 1,
                        scratch: vec![0u8; 64 * 1024],
                        resume: Vec::new(),
                        draining: false,
                        dispatch,
                        shared: loop_shared,
                        config,
                    };
                    el.run();
                    // No connection can produce work anymore: release the
                    // dispatch workers so the handle can join them.
                    el.dispatch.close();
                })
                .expect("spawn reactor thread"),
        );
        NetServerHandle {
            addr,
            shared,
            threads,
            waker,
        }
    }

    impl EventLoop {
        fn run(&mut self) {
            let mut events = Vec::new();
            let mut expired = Vec::new();
            loop {
                let max_wait = if self.resume.is_empty() {
                    None
                } else {
                    Some(Duration::ZERO)
                };
                let woken = match self.reactor.poll(&mut events, &mut expired, max_wait) {
                    Ok(woken) => woken,
                    Err(_) => {
                        // EBADF and friends are unrecoverable program
                        // bugs; anything transient deserves a breather,
                        // not a hot spin.
                        std::thread::sleep(Duration::from_millis(1));
                        false
                    }
                };
                if woken {
                    self.shared
                        .stats
                        .reactor_wakeups
                        .fetch_add(1, Ordering::Relaxed);
                }
                // Completions first: they free connections back into
                // write-drain before this round's readiness is handled.
                let done: Vec<Completion> = std::mem::take(&mut *self.dispatch.completions.lock());
                for completion in done {
                    self.complete(completion);
                }
                if self.shared.shutdown.load(Ordering::SeqCst) && !self.draining {
                    self.begin_drain();
                }
                for ev in events.drain(..) {
                    if ev.token == LISTENER {
                        self.accept_burst();
                    } else {
                        self.conn_event(ev);
                    }
                }
                for token in expired.drain(..) {
                    self.expire(token.0);
                }
                for token in std::mem::take(&mut self.resume) {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.parse_pending = false;
                    }
                    self.advance(token);
                }
                self.resume_accepting_if_room();
                if self.draining && self.conns.is_empty() {
                    return;
                }
            }
        }

        /// A dispatch worker finished a batch for `token`: stage the body
        /// on the connection's write-drain, then parse on if it all left.
        fn complete(&mut self, completion: Completion) {
            self.respond(completion.token, completion.id, completion.body);
            self.advance(completion.token);
        }

        /// Stage a response body as a frame stream on the connection's
        /// write-drain and start draining it.
        fn respond(&mut self, token: u64, id: u64, body: wire::ResponseBody) {
            let Some(conn) = self.conns.get_mut(&token) else {
                return; // connection died while its batch executed
            };
            match wire::FrameStream::response(body, id, self.config.stream_chunk_bytes) {
                Ok(stream) => {
                    conn.phase = Phase::Reading;
                    conn.write = Some(Outgoing {
                        stream,
                        cur: None,
                        is_response: true,
                    });
                    // Optimistic drain: the socket is almost always
                    // writable, so most responses leave without waiting
                    // for a readiness round trip.
                    self.conn_write(token);
                }
                // Response over the payload cap: nothing valid can be
                // sent, so close.
                Err(_) => self.close_conn(token),
            }
        }

        /// Shutdown observed: stop accepting, close idle connections,
        /// and mark the busy ones to close as soon as they drain.
        fn begin_drain(&mut self) {
            self.draining = true;
            self.pause_accepting();
            // Dropping the listener refuses new connections outright.
            self.listener = None;
            let idle: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| c.ready())
                .map(|(&t, _)| t)
                .collect();
            for token in idle {
                self.close_conn(token);
            }
            // Busy connections drain (dispatched batch → response write →
            // close). A deadline bounds the drain even when no idle
            // timeout is configured, so a dead peer cannot hang shutdown.
            let drain_deadline =
                Instant::now() + self.config.idle_timeout.unwrap_or(Duration::from_secs(5));
            let busy: Vec<u64> = self.conns.keys().copied().collect();
            for token in busy {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.close_after = true;
                }
                self.reactor.set_deadline(Token(token), drain_deadline);
            }
        }

        fn pause_accepting(&mut self) {
            if self.accepting {
                let _ = self.reactor.deregister(LISTENER);
                self.accepting = false;
            }
        }

        fn resume_accepting_if_room(&mut self) {
            if self.accepting || self.draining || self.conns.len() >= self.config.max_connections {
                return;
            }
            if let Some(listener) = &self.listener {
                self.accepting = listen(&mut self.reactor, listener).is_ok();
            }
        }

        /// Accept everything the backlog has, up to the connection cap.
        fn accept_burst(&mut self) {
            loop {
                if self.draining {
                    return;
                }
                if self.conns.len() >= self.config.max_connections {
                    // At capacity: stop listening so a level-triggered
                    // backlog does not spin the loop; the backlog itself
                    // is the admission queue.
                    self.pause_accepting();
                    return;
                }
                let Some(listener) = &self.listener else {
                    return;
                };
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                            continue; // dropped → closed
                        }
                        let _ = stream.set_nodelay(true);
                        let token = self.next_token;
                        self.next_token += 1;
                        if self
                            .reactor
                            .register(stream.as_raw_fd(), Token(token), Interest::READABLE)
                            .is_err()
                        {
                            self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        let stats = &self.shared.stats;
                        stats.connections.fetch_add(1, Ordering::Relaxed);
                        let open = stats.open_connections.fetch_add(1, Ordering::Relaxed) + 1;
                        stats.peak_connections.fetch_max(open, Ordering::Relaxed);
                        self.conns.insert(token, Conn::new(stream));
                        self.reset_deadline(token);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        // fd exhaustion or a reset mid-handshake: the
                        // connection is lost but the listener survives.
                        self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
            }
        }

        /// Route one readiness event to the connection's state machine.
        fn conn_event(&mut self, ev: exaclim_runtime::reactor::Event) {
            let token = ev.token.0;
            let Some(conn) = self.conns.get(&token) else {
                return; // closed earlier this round
            };
            if ev.error {
                self.shared
                    .stats
                    .wire_errors
                    .fetch_add(1, Ordering::Relaxed);
                self.close_conn(token);
                return;
            }
            if ev.writable && conn.write.is_some() {
                self.conn_write(token);
                // A response that fully left frees the connection for
                // whatever the client pipelined behind it.
                self.advance(token);
            }
            let Some(conn) = self.conns.get(&token) else {
                return;
            };
            // A connection with frames still to parse reads nothing until
            // it has parsed them: the resume pass below handles it.
            if conn.ready() && !conn.parse_pending && (ev.readable || ev.hangup) {
                if conn.eof {
                    // Nothing more will arrive: answer what is buffered,
                    // then close cleanly.
                    self.advance(token);
                } else {
                    self.conn_read(token);
                }
            }
        }

        /// Read once from the socket into the connection's buffer, then
        /// parse. One read per readiness round bounds the buffer; bytes
        /// left in the socket re-announce it next round.
        fn conn_read(&mut self, token: u64) {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            // Fault site `net.read`. ShortRead caps this round at one
            // byte (the parser must already tolerate arbitrary
            // fragmentation — this proves it); Interrupt skips the round
            // as a kernel EINTR would (level-triggered readiness
            // re-announces the socket); Reset fails the connection as a
            // peer reset would. Delays run on the reactor thread — a
            // stalled event loop is exactly the pathology they model.
            let mut read_cap = self.scratch.len();
            if let Some(action) = exaclim_runtime::faults::check("net.read") {
                use exaclim_runtime::FaultAction;
                match action {
                    FaultAction::ShortRead => read_cap = 1,
                    FaultAction::Interrupt => return,
                    FaultAction::Reset => {
                        self.shared
                            .stats
                            .wire_errors
                            .fetch_add(1, Ordering::Relaxed);
                        self.close_conn(token);
                        return;
                    }
                    FaultAction::Delay(dur) | FaultAction::Stall(dur) => std::thread::sleep(dur),
                    _ => {}
                }
            }
            let read = loop {
                match conn.stream.read(&mut self.scratch[..read_cap]) {
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    read => break read,
                }
            };
            match read {
                Ok(0) => conn.eof = true,
                Ok(n) => {
                    conn.buf.extend_from_slice(&self.scratch[..n]);
                    let peak = &self.shared.stats.peak_conn_buffered_bytes;
                    peak.fetch_max(conn.buf.len() as u64, Ordering::Relaxed);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => {
                    // Socket-level read failure (reset mid-frame, say): a
                    // wire error, and the connection closes.
                    self.shared
                        .stats
                        .wire_errors
                        .fetch_add(1, Ordering::Relaxed);
                    self.close_conn(token);
                    return;
                }
            }
            self.advance(token);
        }

        /// Run the frame parser over the head of the buffer and act on
        /// each outcome: answer, reject, wait, or close. A loop, not a
        /// recursion through the write-drain: it answers at most
        /// [`FRAMES_PER_ROUND`] frames and leaves the rest of a
        /// pipelined burst to the next round.
        fn advance(&mut self, token: u64) {
            for _ in 0..FRAMES_PER_ROUND {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if !conn.ready() {
                    return; // back-pressure: one batch/response at a time
                }
                match parse_head(conn, &self.shared.stats) {
                    Parsed::NeedMore => return self.sync_interest(token),
                    Parsed::CleanClose => return self.close_conn(token),
                    Parsed::Fail { id, msg } => return self.fail_conn(token, id, &msg),
                    Parsed::Request {
                        id,
                        total,
                        requests,
                    } => {
                        conn.buf.drain(..total);
                        // A complete frame arrived: this peer is live.
                        conn.last_activity = Instant::now();
                        self.answer(token, id, requests);
                    }
                }
            }
            if let Some(conn) = self.conns.get_mut(&token).filter(|c| c.ready()) {
                conn.parse_pending = true;
                self.resume.push(token);
            }
        }

        /// Act on one decoded batch: shed it, answer it here, or queue it
        /// for a dispatch worker.
        fn answer(&mut self, token: u64, id: u64, requests: Vec<Request>) {
            self.shared
                .stats
                .requests
                .fetch_add(requests.len() as u64, Ordering::Relaxed);
            // Overload protection: past the dispatch backlog threshold,
            // shed instead of queueing doomed work. A shed batch draws a
            // well-formed response frame with one retryable `Overloaded`
            // per request — cheaper than executing, and the connection
            // stays open for the retry.
            let backlog = self.config.max_dispatch_backlog;
            if backlog > 0 && self.dispatch.jobs.lock().0.len() >= backlog {
                return self.shed(token, id, requests.len());
            }
            let received = Instant::now();
            // Fault site `dispatch`, drawn once per batch here; a batch
            // that drew a fault always goes to a worker, which realizes it.
            let fault = exaclim_runtime::faults::check("dispatch");
            if fault.is_none() {
                if let Some(body) = self.answer_resident(&requests, received) {
                    return self.respond(token, id, body);
                }
            }
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.phase = Phase::Dispatched;
            }
            self.sync_interest(token);
            self.dispatch.push(Job {
                token,
                id,
                requests,
                received,
                fault,
            });
        }

        /// Answer a batch here on the reactor thread, if it qualifies:
        /// slice requests whose chunks are all cache-resident and whose
        /// response fits one default stream fragment
        /// ([`Server::resident_batch`]). That is microseconds of
        /// work, less than the hand-off to a dispatch worker and back. The
        /// reactor answers from the chunks the check took, on its own
        /// thread: it never fetches, decodes, waits on another batch's
        /// fetch, or enters the worker pool. A bigger response goes to a
        /// worker so one fat cache hit cannot stall every other
        /// connection while it encodes. `None` leaves the batch to a
        /// worker.
        fn answer_resident(
            &self,
            requests: &[Request],
            received: Instant,
        ) -> Option<wire::ResponseBody> {
            let server = &self.shared.server;
            // A panic while planning is left to a worker, which contains
            // it; the reactor must survive.
            let resident = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                server.resident_batch(requests, received, DEFAULT_STREAM_CHUNK_BYTES)
            }))
            .ok()
            .flatten()?;
            Some(execute(requests.len(), None, || {
                server.answer_resident(resident)
            }))
        }

        /// Answer a shed batch without dispatching: one retryable
        /// [`ServeError::Overloaded`] per request, staged on the
        /// write-drain like any other response. The connection stays
        /// open — shedding is back-pressure, not punishment.
        fn shed(&mut self, token: u64, id: u64, n_requests: usize) {
            self.shared
                .stats
                .shed
                .fetch_add(n_requests as u64, Ordering::Relaxed);
            let retry_after_ms = self.config.shed_retry_after_ms;
            let replies: Vec<crate::server::Reply> = (0..n_requests)
                .map(|_| crate::server::Reply::Full(Err(ServeError::Overloaded { retry_after_ms })))
                .collect();
            self.respond(token, id, wire::encode_reply_batch(replies));
        }

        /// Transport-level violation: count it, answer best-effort with
        /// an error frame, and close once (if) it drains.
        fn fail_conn(&mut self, token: u64, id: u64, msg: &str) {
            self.shared
                .stats
                .wire_errors
                .fetch_add(1, Ordering::Relaxed);
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let body = wire::ResponseBody::from_payload(wire::encode_error_payload(msg));
            match wire::FrameStream::single(FrameKind::Error, id, body) {
                Ok(stream) => {
                    conn.close_after = true;
                    conn.write = Some(Outgoing {
                        stream,
                        cur: None,
                        is_response: false,
                    });
                    self.conn_write(token);
                }
                Err(_) => self.close_conn(token),
            }
        }

        /// Drain pending response frames into the socket: cut frames on
        /// demand from the connection's [`wire::FrameStream`] and push
        /// each out with gathered `writev` straight from the shared
        /// chunk buffers, up to [`FRAMES_PER_ROUND`] frames per call so
        /// one fat streamed response cannot starve its neighbours
        /// (level-triggered readiness resumes it next round).
        fn conn_write(&mut self, token: u64) {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.write.is_none() {
                return;
            }
            // Fault site `net.write`. Reset fails the connection as a
            // peer reset mid-response would (the client sees a truncated
            // stream); Interrupt yields the round; delays stall the
            // drain. Unrealizable actions degrade to no-ops.
            if let Some(action) = exaclim_runtime::faults::check("net.write") {
                use exaclim_runtime::FaultAction;
                match action {
                    FaultAction::Reset => {
                        self.close_conn(token);
                        return;
                    }
                    FaultAction::Interrupt => return,
                    FaultAction::Delay(dur) | FaultAction::Stall(dur) => std::thread::sleep(dur),
                    _ => {}
                }
            }
            let mut failed = false;
            let mut progressed = false;
            let mut finished = false;
            let mut round = 0u32;
            'frames: loop {
                let out = conn.write.as_mut().expect("checked above");
                // Stage the next frame when none is mid-drain.
                if out.cur.is_none() {
                    match out.stream.next_frame() {
                        Some(frame) => {
                            let owned = frame.owned_len(out.stream.body()) as u64;
                            let peak = &self.shared.stats.peak_conn_buffered_bytes;
                            peak.fetch_max(owned, Ordering::Relaxed);
                            out.cur = Some((frame, 0));
                        }
                        None => {
                            finished = true;
                            break;
                        }
                    }
                }
                let Outgoing {
                    stream,
                    cur,
                    is_response,
                } = out;
                let (frame, written) = cur.as_mut().expect("staged above");
                let total = frame.total_len();
                let mut bufs: Vec<std::io::IoSlice<'_>> = Vec::new();
                while *written < total {
                    bufs.clear();
                    frame.remaining_slices(stream.body(), *written, &mut bufs, wire::MAX_WRITE_IOV);
                    match conn.stream.write_vectored(&bufs) {
                        Ok(0) => {
                            failed = true;
                            break 'frames;
                        }
                        Ok(n) => {
                            *written += n;
                            progressed = true;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break 'frames,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => {
                            failed = true;
                            break 'frames;
                        }
                    }
                }
                // One frame fully out: count it, drop its staging, move on.
                if *is_response {
                    self.shared.stats.frames_out.fetch_add(1, Ordering::Relaxed);
                    self.shared
                        .stats
                        .bytes_out
                        .fetch_add(total as u64, Ordering::Relaxed);
                }
                let was_last = frame.last;
                *cur = None;
                if was_last {
                    finished = true;
                    break;
                }
                // Fault site `net.write.frame`: between stream
                // fragments, where a stall holds the peer mid-reassembly
                // and a reset leaves it with a truncated stream.
                if let Some(action) = exaclim_runtime::faults::check("net.write.frame") {
                    use exaclim_runtime::FaultAction;
                    match action {
                        FaultAction::Delay(d) | FaultAction::Stall(d) => std::thread::sleep(d),
                        FaultAction::Reset => {
                            failed = true;
                            break 'frames;
                        }
                        _ => {}
                    }
                }
                round += 1;
                if round >= FRAMES_PER_ROUND {
                    break; // yield to the other connections this round
                }
            }
            if failed {
                // A failed write closes the connection without counting
                // a wire error: the peer, not the framing, went away.
                self.close_conn(token);
                return;
            }
            if finished {
                self.finish_write(token);
                return;
            }
            if progressed {
                // The peer is draining, just slowly — not idle.
                conn.last_activity = Instant::now();
            }
            self.sync_interest(token);
        }

        /// A whole response (or error frame) fully left the socket:
        /// bucket its frame count and close if it was a goodbye. Parsing
        /// whatever the client pipelined is the caller's next step
        /// ([`EventLoop::advance`]), never a recursion from here.
        fn finish_write(&mut self, token: u64) {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let out = conn.write.take().expect("finish_write without a write");
            if out.is_response {
                // Bucket the frame count; a streamed response also counts
                // itself and its fragments.
                let stats = &self.shared.stats;
                let frames = out.stream.frames_emitted();
                stats.frames_per_response[frames_bucket(frames)].fetch_add(1, Ordering::Relaxed);
                if out.stream.is_streamed() {
                    stats.streamed_responses.fetch_add(1, Ordering::Relaxed);
                    stats
                        .stream_frames_out
                        .fetch_add(frames.into(), Ordering::Relaxed);
                }
            }
            if conn.close_after {
                self.close_conn(token);
                return;
            }
            conn.last_activity = Instant::now();
            self.sync_interest(token);
        }

        /// Keep the reactor's armed interest in sync with the state
        /// machine: write-drain → writable, dispatched → muted,
        /// reading → readable.
        fn sync_interest(&mut self, token: u64) {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let want = if conn.write.is_some() {
                Interest::WRITABLE
            } else if matches!(conn.phase, Phase::Dispatched) {
                Interest::NONE
            } else {
                Interest::READABLE
            };
            if conn.interest != want {
                conn.interest = want;
                let _ = self.reactor.modify(Token(token), want);
            }
        }

        /// Arm the idle deadline, when one is configured. Called once at
        /// accept (and when a deadline needs explicit re-arming); hot
        /// connections only touch `Conn::last_activity` per frame, and
        /// [`EventLoop::expire`] re-arms lazily from that — one wheel
        /// operation per idle period instead of one per frame.
        fn reset_deadline(&mut self, token: u64) {
            if let Some(idle) = self.config.idle_timeout {
                self.reactor
                    .set_deadline(Token(token), Instant::now() + idle);
            }
        }

        /// A deadline fired: reap the connection unless its batch is
        /// still executing (compute time is not idle time) or it was in
        /// fact recently active — deadlines are armed lazily, so the
        /// wheel entry of a busy connection is usually stale; re-arm it
        /// at the true idle deadline instead.
        fn expire(&mut self, token: u64) {
            let Some(conn) = self.conns.get(&token) else {
                return;
            };
            if matches!(conn.phase, Phase::Dispatched) {
                self.reset_deadline(token);
                return;
            }
            // While draining for shutdown the deadline set by
            // [`EventLoop::begin_drain`] is absolute: a peer draining
            // its half-written response slowly gets exactly that grace,
            // then a hard close (the client sees a typed truncated
            // stream) — progress must not extend shutdown forever.
            if !self.draining {
                if let Some(idle) = self.config.idle_timeout {
                    let due = conn.last_activity + idle;
                    if due > Instant::now() {
                        self.reactor.set_deadline(Token(token), due);
                        return;
                    }
                }
            }
            self.shared
                .stats
                .reaped_idle
                .fetch_add(1, Ordering::Relaxed);
            self.close_conn(token);
        }

        fn close_conn(&mut self, token: u64) {
            if let Some(conn) = self.conns.remove(&token) {
                let _ = self.reactor.deregister(Token(token));
                let _ = conn.stream.shutdown(Shutdown::Both);
                let open = &self.shared.stats.open_connections;
                open.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Pure frame parser over the head of a connection's buffer. Splits
    /// cleanly from the event loop so the counting/bookkeeping above
    /// stays free of byte-level detail. Counts `frames_in`/`bytes_in`
    /// itself, on complete, checksum-valid request frames.
    fn parse_head(conn: &mut Conn, stats: &NetCounters) -> Parsed {
        // A bad header is rejected as soon as its 24 bytes are here,
        // before any payload is buffered.
        let total = match conn.buf.get(..HEADER_LEN) {
            Some(head) => match wire::FrameHeader::decode(head.try_into().expect("header slice")) {
                Ok(header) => HEADER_LEN + header.len as usize,
                Err(e) => {
                    return Parsed::Fail {
                        id: 0,
                        msg: e.to_string(),
                    }
                }
            },
            None => HEADER_LEN,
        };
        if conn.buf.len() < total {
            if !conn.eof {
                conn.buf.reserve(total - conn.buf.len());
                return Parsed::NeedMore;
            }
            if conn.buf.is_empty() {
                return Parsed::CleanClose;
            }
            // EOF mid-frame: `decode_frame` below reports the typed
            // truncation of whichever part is missing.
        }
        let (header, payload) = match wire::decode_frame(&conn.buf[..total.min(conn.buf.len())]) {
            Ok(frame) => frame,
            Err(e) => {
                return Parsed::Fail {
                    id: 0,
                    msg: e.to_string(),
                }
            }
        };
        if header.kind != FrameKind::Request {
            return Parsed::Fail {
                id: header.id,
                msg: format!("unexpected frame kind {} from client", header.kind.id()),
            };
        }
        stats.frames_in.fetch_add(1, Ordering::Relaxed);
        stats.bytes_in.fetch_add(total as u64, Ordering::Relaxed);
        match wire::decode_request_batch(payload) {
            Ok(requests) => Parsed::Request {
                id: header.id,
                total,
                requests,
            },
            Err(e) => Parsed::Fail {
                id: header.id,
                msg: e.to_string(),
            },
        }
    }
}

/// Capped exponential backoff with decorrelated jitter and a retry
/// budget — the client half of the resilience layer (see
/// [`ClientConfig::retry`]).
///
/// Each retry draws its delay uniformly from `base_delay ..
/// min(max_delay, 3 × previous_delay)` — "decorrelated jitter", which
/// spreads a thundering herd of retrying clients across time instead of
/// synchronizing them into repeated stampedes. The jitter stream is
/// seeded, so a given client's backoff schedule is reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Most retries one operation (a [`Client::batch`] call, one
    /// [`Client::recv`]) may spend before the error is surfaced.
    pub max_retries: u32,
    /// Lower bound of every backoff delay.
    pub base_delay: Duration,
    /// Upper bound of every backoff delay (and of honored
    /// [`ServeError::Overloaded::retry_after_ms`] hints).
    pub max_delay: Duration,
    /// Seed of the jitter stream: same seed ⇒ same backoff schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// 8 retries, 5 ms base, 1 s cap.
    fn default() -> Self {
        Self {
            max_retries: 8,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_secs(1),
            seed: 0x5EED,
        }
    }
}

/// Connection and resilience knobs of a [`Client`] (see
/// [`Client::connect_with`]).
#[derive(Debug, Clone, Default)]
pub struct ClientConfig {
    /// Bound on establishing the TCP connection, applied per resolved
    /// address; `None` blocks on the OS default (which against a
    /// dead-but-routable address can be minutes).
    pub connect_timeout: Option<Duration>,
    /// Socket read timeout: a server that stops talking mid-frame
    /// surfaces as a retryable [`WireError::Io`] instead of a hang.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout, same rationale as
    /// [`ClientConfig::read_timeout`].
    pub write_timeout: Option<Duration>,
    /// Self-healing: `Some` arms transport-level reconnect-with-replay
    /// (every serving op is read-only, so replaying in-flight pipelined
    /// requests is safe) and batch-level retry of retryable per-request
    /// errors ([`ServeError::retryable`]), honoring the server's
    /// [`ServeError::Overloaded::retry_after_ms`] hint. `None` (the
    /// default) surfaces every failure immediately — behaviorally
    /// identical to the pre-resilience client.
    pub retry: Option<RetryPolicy>,
}

/// Resilience counters of one [`Client`] (see [`Client::client_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientStats {
    /// Retries spent: transport-level (reconnect + replay) and
    /// batch-level (retryable per-request errors) combined.
    pub retries: u64,
    /// Reconnect attempts made while self-healing.
    pub reconnects: u64,
}

/// A blocking client over one reused connection.
///
/// [`Client::batch`] is the wire twin of [`Server::handle_batch`]: same
/// request slice in, same `Vec<Result<Response, ServeError>>` out,
/// bit-identical responses. For pipelining, [`Client::send`] and
/// [`Client::recv`] split the round trip: several batches may be in
/// flight on the connection at once, and responses arrive in send order.
///
/// Responses arrive as CRC-checked stream fragments which [`Client::recv`]
/// reassembles transparently — the result is bit-identical to
/// [`Server::handle_batch`]'s.
///
/// With a [`RetryPolicy`] armed ([`ClientConfig::retry`]) the client
/// **self-heals**: retryable transport failures (resets, truncated
/// streams, socket errors — [`WireError::retryable`]) trigger a
/// reconnect that replays every in-flight batch under fresh frame ids,
/// and retryable per-request errors ([`ServeError::Overloaded`],
/// [`ServeError::Internal`]) make [`Client::batch`] back off and
/// resubmit. Without a policy every failure surfaces immediately.
pub struct Client {
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    /// Label stamped onto transport errors ([`WireError::with_peer`]):
    /// the first resolved address.
    peer: String,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    /// Oldest-first in-flight batches: `(frame id, requests)`. The
    /// requests are retained (when a retry policy is armed) so a
    /// reconnect can replay them verbatim.
    in_flight: VecDeque<(u64, Vec<Request>)>,
    stats: ClientStats,
    /// Jitter stream state (splitmix64 over [`RetryPolicy::seed`]).
    rng: u64,
    /// Previous backoff delay, feeding the decorrelated-jitter window.
    last_delay: Duration,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("peer", &self.peer)
            .field("next_id", &self.next_id)
            .field("in_flight", &self.in_flight.len())
            .field("retries", &self.stats.retries)
            .finish()
    }
}

impl Client {
    /// Connect to a [`NetServer`] with no timeouts and no retry policy.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, WireError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit [`ClientConfig`] — timeouts and, when
    /// [`ClientConfig::retry`] is `Some`, self-healing.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Self, WireError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs().map_err(WireError::from)?.collect();
        if addrs.is_empty() {
            return Err(WireError::Io("address resolved to nothing".to_string()));
        }
        let peer = addrs[0].to_string();
        let stream = Self::open_stream(&addrs, &config).map_err(|e| e.with_peer(&peer))?;
        let reader_stream = stream.try_clone().map_err(WireError::from)?;
        let rng = config.retry.as_ref().map_or(1, |p| p.seed | 1);
        Ok(Self {
            addrs,
            config,
            peer,
            reader: BufReader::new(reader_stream),
            writer: BufWriter::new(stream),
            next_id: 1,
            in_flight: VecDeque::new(),
            stats: ClientStats::default(),
            rng,
            last_delay: Duration::ZERO,
        })
    }

    /// This client's resilience counters so far.
    pub fn client_stats(&self) -> ClientStats {
        self.stats
    }

    /// Open one TCP connection to the first answering resolved address,
    /// honoring the configured timeouts.
    fn open_stream(addrs: &[SocketAddr], config: &ClientConfig) -> Result<TcpStream, WireError> {
        let mut last: Option<WireError> = None;
        for addr in addrs {
            let attempt = match config.connect_timeout {
                Some(timeout) => TcpStream::connect_timeout(addr, timeout),
                None => TcpStream::connect(addr),
            };
            match attempt {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(config.read_timeout);
                    let _ = stream.set_write_timeout(config.write_timeout);
                    return Ok(stream);
                }
                Err(e) => last = Some(WireError::from(e)),
            }
        }
        Err(last.unwrap_or_else(|| WireError::Io("address resolved to nothing".to_string())))
    }

    /// Whether `e` is worth another attempt under the armed policy.
    fn should_retry(&self, e: &WireError, attempt: u32) -> bool {
        e.retryable()
            && self
                .config
                .retry
                .as_ref()
                .is_some_and(|p| attempt < p.max_retries)
    }

    /// Sleep before a retry: the server's hint when it gave one,
    /// decorrelated jitter otherwise, both capped at
    /// [`RetryPolicy::max_delay`].
    fn sleep_backoff(&mut self, hint: Option<Duration>) {
        let Some(policy) = self.config.retry.clone() else {
            return;
        };
        let delay = hint
            .unwrap_or_else(|| self.next_backoff(&policy))
            .min(policy.max_delay);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }

    /// Next decorrelated-jitter delay: uniform in
    /// `base .. min(cap, 3 × previous)`.
    fn next_backoff(&mut self, policy: &RetryPolicy) -> Duration {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let base = policy.base_delay.max(Duration::from_micros(100));
        let prev = self.last_delay.max(base);
        let span = (prev * 3).min(policy.max_delay.max(base));
        let spread = (span.as_nanos().saturating_sub(base.as_nanos()).max(1)) as u64;
        let delay = base + Duration::from_nanos(z % spread);
        self.last_delay = delay;
        delay
    }

    /// Reconnect and replay every in-flight batch, oldest first, under
    /// fresh frame ids. Sound because every serving operation is
    /// read-only: replaying a request cannot double-apply anything, and
    /// the responses are bit-identical to what the lost connection would
    /// have carried.
    fn reconnect_and_replay(&mut self) -> Result<(), WireError> {
        self.stats.reconnects += 1;
        let stream = Self::open_stream(&self.addrs, &self.config)?;
        let reader_stream = stream.try_clone().map_err(WireError::from)?;
        self.reader = BufReader::new(reader_stream);
        self.writer = BufWriter::new(stream);
        for entry in self.in_flight.iter_mut() {
            let id = self.next_id;
            self.next_id += 1;
            let payload = wire::encode_request_batch(&entry.1);
            wire::write_frame(&mut self.writer, FrameKind::Request, id, &payload)?;
            entry.0 = id;
        }
        self.writer.flush().map_err(WireError::from)?;
        Ok(())
    }

    /// Write one request frame and flush it, consuming a frame id.
    fn write_batch_frame(&mut self, requests: &[Request]) -> Result<u64, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        let payload = wire::encode_request_batch(requests);
        wire::write_frame(&mut self.writer, FrameKind::Request, id, &payload)?;
        self.writer.flush().map_err(WireError::from)?;
        Ok(id)
    }

    /// Send one request batch and return its frame id without waiting
    /// for the response — the pipelining half of [`Client::batch`].
    /// With a retry policy armed, a retryable transport failure here
    /// reconnects (replaying older in-flight batches) and tries again.
    pub fn send(&mut self, requests: &[Request]) -> Result<u64, WireError> {
        let mut attempt = 0u32;
        loop {
            match self.write_batch_frame(requests) {
                Ok(id) => {
                    // Retain the requests only when a policy might need
                    // to replay them; the hot no-retry path keeps its
                    // old zero-copy bookkeeping.
                    let stored = if self.config.retry.is_some() {
                        requests.to_vec()
                    } else {
                        Vec::new()
                    };
                    self.in_flight.push_back((id, stored));
                    return Ok(id);
                }
                Err(e) if self.should_retry(&e, attempt) => {
                    attempt += 1;
                    self.stats.retries += 1;
                    self.sleep_backoff(None);
                    // A failed reconnect leaves the dead socket in
                    // place; the next write fails and spends another
                    // attempt until the budget runs out.
                    let _ = self.reconnect_and_replay();
                }
                Err(e) => return Err(e.with_peer(&self.peer)),
            }
        }
    }

    /// Receive the response batch for the oldest in-flight
    /// [`Client::send`]: the read loop accepts stream fragments (in
    /// sequence order, on the expected frame id) until the `FIN`
    /// fragment lands, then decodes the reassembled payload. An error
    /// frame is honored even mid-stream; a connection close mid-stream
    /// is [`WireError::StreamTruncated`]. With a retry policy armed, a
    /// retryable transport failure reconnects, replays every in-flight
    /// batch, and resumes waiting.
    pub fn recv(&mut self) -> Result<Vec<Result<Response, ServeError>>, WireError> {
        if self.in_flight.is_empty() {
            return Err(WireError::Malformed(
                "recv with no request in flight".to_string(),
            ));
        }
        let mut attempt = 0u32;
        loop {
            let expected = self.in_flight.front().expect("checked above").0;
            match self.recv_batch_frame(expected) {
                Ok(responses) => {
                    self.in_flight.pop_front();
                    return Ok(responses);
                }
                Err(e) if self.should_retry(&e, attempt) => {
                    attempt += 1;
                    self.stats.retries += 1;
                    self.sleep_backoff(None);
                    let _ = self.reconnect_and_replay();
                }
                Err(e) => {
                    self.in_flight.pop_front();
                    return Err(e.with_peer(&self.peer));
                }
            }
        }
    }

    /// One attempt at reading the response batch for frame `expected`.
    fn recv_batch_frame(
        &mut self,
        expected: u64,
    ) -> Result<Vec<Result<Response, ServeError>>, WireError> {
        let mut reasm = wire::StreamReassembler::new();
        loop {
            let (header, payload) = match wire::read_frame(&mut self.reader) {
                Ok(frame) => frame,
                Err(WireError::ConnectionClosed { .. } | WireError::Truncated { .. })
                    if reasm.in_progress() =>
                {
                    return Err(WireError::StreamTruncated)
                }
                Err(e) => return Err(e),
            };
            match header.kind {
                FrameKind::Stream => {
                    if !reasm.in_progress() && header.id != expected {
                        return Err(WireError::IdMismatch {
                            expected,
                            got: header.id,
                        });
                    }
                    if let Some(done) = reasm.push(&header, payload)? {
                        return wire::decode_response_batch(&done);
                    }
                }
                FrameKind::Error => {
                    return Err(WireError::Remote(wire::decode_error_payload(&payload)?))
                }
                FrameKind::Request => {
                    return Err(WireError::Malformed(
                        "server sent a request frame".to_string(),
                    ))
                }
            }
        }
    }

    /// Submit one batch and wait for its responses — the network twin of
    /// [`Server::handle_batch`]. With a retry policy armed, responses
    /// carrying retryable errors ([`ServeError::retryable`] — shedding,
    /// internal failures, transient archive I/O) make the whole batch
    /// back off and resubmit, honoring the server's
    /// [`ServeError::Overloaded::retry_after_ms`] hint when present;
    /// read-only semantics make the resubmission safe and the eventual
    /// responses bit-identical.
    pub fn batch(
        &mut self,
        requests: &[Request],
    ) -> Result<Vec<Result<Response, ServeError>>, WireError> {
        let budget = self.config.retry.as_ref().map_or(0, |p| p.max_retries);
        let mut attempt = 0u32;
        loop {
            self.send(requests)?;
            let responses = self.recv()?;
            let needs_retry = responses
                .iter()
                .any(|r| matches!(r, Err(e) if e.retryable()));
            if !needs_retry || attempt >= budget {
                return Ok(responses);
            }
            attempt += 1;
            self.stats.retries += 1;
            let hint = responses
                .iter()
                .filter_map(|r| match r {
                    Err(ServeError::Overloaded { retry_after_ms }) => {
                        Some(Duration::from_millis(u64::from(*retry_after_ms)))
                    }
                    _ => None,
                })
                .max();
            self.sleep_backoff(hint);
        }
    }

    /// Submit one request and wait for its response. The outer error is
    /// the transport, the inner the request itself.
    pub fn request(
        &mut self,
        request: &Request,
    ) -> Result<Result<Response, ServeError>, WireError> {
        let mut responses = self.batch(std::slice::from_ref(request))?;
        match responses.len() {
            1 => Ok(responses.pop().expect("one response")),
            n => Err(WireError::Malformed(format!(
                "{n} responses to a 1-request batch"
            ))),
        }
    }

    /// Fetch the server's serving counters over the wire.
    pub fn stats(&mut self) -> Result<ServeStats, WireError> {
        match self.request(&Request::Stats)? {
            Ok(Response::Stats(stats)) => Ok(stats),
            Ok(other) => Err(WireError::Malformed(format!(
                "stats request answered with {other:?}"
            ))),
            Err(e) => Err(WireError::Remote(e.to_string())),
        }
    }

    /// Evaluate one derived product server-side — the network twin of a
    /// [`Request::Product`] through [`Server::handle_batch`]. The result
    /// is bit-identical to the in-process evaluation of the same
    /// descriptor.
    pub fn scenario(&mut self, descriptor: &ProductDescriptor) -> Result<ProductData, WireError> {
        match self.request(&Request::Product(descriptor.clone()))? {
            Ok(Response::Product(data)) => Ok(data),
            Ok(other) => Err(WireError::Malformed(format!(
                "product request answered with {other:?}"
            ))),
            Err(e) => Err(WireError::Remote(e.to_string())),
        }
    }

    /// Run a stochastic ensemble server-side: `spec.realizations`
    /// emulator runs with decorrelated per-realization seeds, returned
    /// as one raw [`ProductData`] block (the network twin of
    /// [`Request::Ensemble`]).
    pub fn ensemble(&mut self, spec: &ScenarioSpec) -> Result<ProductData, WireError> {
        match self.request(&Request::Ensemble(spec.clone()))? {
            Ok(Response::Product(data)) => Ok(data),
            Ok(other) => Err(WireError::Malformed(format!(
                "ensemble request answered with {other:?}"
            ))),
            Err(e) => Err(WireError::Remote(e.to_string())),
        }
    }
}

#[cfg(test)]
#[cfg(unix)]
mod tests {
    use super::frames_bucket;

    #[test]
    fn frames_bucket_boundaries() {
        let table = [
            (0, 0),
            (1, 0),
            (2, 1),
            (3, 2),
            (4, 2),
            (5, 3),
            (8, 3),
            (9, 4),
            (16, 4),
            (17, 5),
            (32, 5),
            (33, 6),
            (64, 6),
            (65, 7),
            (u32::MAX, 7),
        ];
        for (frames, bucket) in table {
            assert_eq!(frames_bucket(frames), bucket, "{frames} frames");
        }
    }
}
