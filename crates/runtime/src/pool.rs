//! Shared worker pool for data-parallel loops.
//!
//! Flat data parallelism over index ranges, mutable chunk splits and
//! ordered maps, shared process-wide through [`global`]. It is the one set
//! of threads and the one data-parallel API: the design pipeline (trend
//! fit, SHT batches, VAR fit, covariance, emulation) and the serve layer
//! call it directly, and the task-graph executor in [`crate::executor`]
//! runs its lanes on it as `parallel_for` pieces.
//!
//! Design notes:
//!
//! * The pool is lazily initialized on first use and sized by
//!   `EXACLIM_THREADS` (if set to a positive integer) or
//!   `std::thread::available_parallelism()` otherwise. A size of 1 spawns
//!   no worker threads at all — every call runs inline on the caller, which
//!   is the sequential-fallback mode exercised by CI.
//! * The caller of [`WorkerPool::parallel_for`] / [`WorkerPool::join`]
//!   counts as one of the pool's threads: it executes the first piece of
//!   work itself, then helps drain the queue while waiting, so an
//!   `EXACLIM_THREADS=N` pool applies exactly `N`-way parallelism with
//!   `N − 1` resident workers.
//! * Nested calls from inside a pool worker run inline (sequentially).
//!   Workers therefore never block on the pool, which makes nesting
//!   deadlock-free by construction. The executor's lanes, the caller's
//!   included, run their tasks under the same mark (`InlineNested`), so
//!   pool calls made from inside executor tasks run inline too.
//! * Idle workers block on a condition variable; an idle pool consumes no
//!   CPU.
//! * Panics inside loop bodies are caught, the remaining pieces are allowed
//!   to finish, and the first payload is re-raised on the caller — a panic
//!   behaves like it would in the equivalent sequential loop.

use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

/// Type-erased unit of work queued on the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// What a panicking piece of work left behind.
type PanicPayload = Box<dyn Any + Send + 'static>;

thread_local! {
    /// True on threads owned by a [`WorkerPool`] (and on any thread while it
    /// helps run queued jobs, or holds an [`InlineNested`]). Used to force
    /// nested calls inline.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as running pool work, so pool calls made on it
/// run inline, until dropped; the drop restores the previous mark.
pub(crate) struct InlineNested(bool);

impl InlineNested {
    pub(crate) fn enter() -> Self {
        Self(IN_POOL_WORKER.with(|flag| flag.replace(true)))
    }
}

impl Drop for InlineNested {
    fn drop(&mut self) {
        IN_POOL_WORKER.with(|flag| flag.set(self.0));
    }
}

/// Whether the current thread runs pool work: pool calls made here run
/// inline.
pub(crate) fn in_pool_worker() -> bool {
    IN_POOL_WORKER.with(Cell::get)
}

/// Queue state guarded by the pool mutex.
struct PoolState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// Shared between the pool handle and its worker threads.
struct Shared {
    state: Mutex<PoolState>,
    cv: Condvar,
}

/// A fixed-size pool of worker threads executing queued closures.
///
/// Most code should use the process-wide [`global`] pool; constructing a
/// private pool is mainly useful in tests.
pub struct WorkerPool {
    threads: usize,
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

/// Completion latch for one `parallel_for`/`join` call: counts outstanding
/// queued pieces and records the first panic payload.
struct Latch {
    state: Mutex<LatchState>,
    cv: Condvar,
}

struct LatchState {
    pending: usize,
    panic: Option<PanicPayload>,
}

impl Latch {
    fn new(pending: usize) -> Self {
        Self {
            state: Mutex::new(LatchState {
                pending,
                panic: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Count one piece done. The last one notifies *while holding the
    /// lock*: once `pending` reads 0 the waiting caller may return and pop
    /// the stack frame this latch lives in, so nothing may touch the latch
    /// after the guard is released (a `notify_all` after the unlock would
    /// write to the condvar's futex word in whatever that memory holds
    /// next). The unlock itself is safe — a mutex release never touches its
    /// memory once another thread can acquire it.
    fn complete(&self, payload: Option<PanicPayload>) {
        let mut s = self.state.lock();
        s.pending -= 1;
        if s.panic.is_none() {
            s.panic = payload;
        }
        if s.pending == 0 {
            self.cv.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.state.lock().pending == 0
    }

    /// Block until every piece completed; returns the first panic payload.
    fn wait(&self) -> Option<PanicPayload> {
        let mut s = self.state.lock();
        while s.pending > 0 {
            self.cv.wait(&mut s);
        }
        s.panic.take()
    }
}

/// Run a job with the in-pool marker set, swallowing panics (jobs carry
/// their own `catch_unwind`; this is a backstop so a worker thread can
/// never die to an unwind).
fn run_flagged(job: Job) {
    let _inline = InlineNested::enter();
    let _ = panic::catch_unwind(AssertUnwindSafe(job));
}

fn worker_main(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut s = shared.state.lock();
            loop {
                if let Some(j) = s.jobs.pop_front() {
                    break Some(j);
                }
                if s.shutdown {
                    break None;
                }
                shared.cv.wait(&mut s);
            }
        };
        match job {
            Some(j) => run_flagged(j),
            None => return,
        }
    }
}

/// Raw mutable base pointer that may be shared across the pool's threads.
/// Soundness comes from the caller handing out disjoint regions only.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Accessor rather than field use, so closures capture the whole
    /// wrapper (edition-2021 disjoint capture would otherwise grab the bare
    /// `*mut T`, which is neither `Send` nor `Sync`).
    fn get(&self) -> *mut T {
        self.0
    }
}

unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl WorkerPool {
    /// Build a pool applying `threads`-way parallelism (clamped to
    /// `1..=1024`). `threads − 1` resident worker threads are spawned; the
    /// calling thread supplies the remaining lane at each call site.
    pub fn new(threads: usize) -> Self {
        let threads = threads.clamp(1, 1024);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("exaclim-pool-{i}"))
                    .spawn(move || worker_main(shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            threads,
            shared,
            handles,
        }
    }

    /// Degree of parallelism this pool applies (callers count as one lane).
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn submit(&self, job: Job) {
        let mut s = self.shared.state.lock();
        s.jobs.push_back(job);
        drop(s);
        self.shared.cv.notify_one();
    }

    /// Pop and run one queued job, if any. Used by blocked callers to help
    /// drain the queue instead of idling.
    fn try_run_one(&self) -> bool {
        let job = self.shared.state.lock().jobs.pop_front();
        match job {
            Some(j) => {
                run_flagged(j);
                true
            }
            None => false,
        }
    }

    /// Split `0..n` into contiguous, near-equal index ranges — one per pool
    /// lane — and run `body` on each, in parallel. Returns after every range
    /// completed. Panics inside `body` propagate to the caller after all
    /// other ranges finish.
    ///
    /// Called from inside a pool worker (nested use), or with a single-lane
    /// pool, the whole range runs inline on the caller.
    pub fn parallel_for<F>(&self, n: usize, body: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        if n == 0 {
            return;
        }
        let pieces = self.threads.min(n);
        if pieces <= 1 || in_pool_worker() {
            body(0..n);
            return;
        }
        let base = n / pieces;
        let rem = n % pieces;
        // Start of piece k: the first `rem` pieces carry one extra index.
        let bound = move |k: usize| k * base + k.min(rem);

        let latch = Latch::new(pieces - 1);
        let body_ref: &(dyn Fn(Range<usize>) + Sync) = &body;
        for k in 1..pieces {
            let range = bound(k)..bound(k + 1);
            let latch_ref = &latch;
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let r = panic::catch_unwind(AssertUnwindSafe(|| body_ref(range)));
                latch_ref.complete(r.err());
            });
            // SAFETY: the job borrows `body` and `latch` on this stack
            // frame. Its last access is `latch.complete`, which releases
            // the latch's lock as its final touch of this frame, and
            // `latch.wait()` below blocks until that release, so the
            // borrows outlive every use the (lifetime-erased) job makes.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
            self.submit(job);
        }
        let mine = panic::catch_unwind(AssertUnwindSafe(|| body_ref(bound(0)..bound(1))));
        while !latch.is_done() && self.try_run_one() {}
        let queued_panic = latch.wait();
        if let Err(p) = mine {
            panic::resume_unwind(p);
        }
        if let Some(p) = queued_panic {
            panic::resume_unwind(p);
        }
    }

    /// Run `a` and `b`, potentially in parallel, and return both results.
    /// If either side panics, the panic is re-raised here after both sides
    /// finished.
    pub fn join<RA, RB>(
        &self,
        a: impl FnOnce() -> RA + Send,
        b: impl FnOnce() -> RB + Send,
    ) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
    {
        if self.threads <= 1 || in_pool_worker() {
            return (a(), b());
        }
        let latch = Latch::new(1);
        let slot: Mutex<Option<RB>> = Mutex::new(None);
        {
            let latch_ref = &latch;
            let slot_ref = &slot;
            let job: Box<dyn FnOnce() + Send + '_> =
                Box::new(move || match panic::catch_unwind(AssertUnwindSafe(b)) {
                    Ok(v) => {
                        *slot_ref.lock() = Some(v);
                        latch_ref.complete(None);
                    }
                    Err(p) => latch_ref.complete(Some(p)),
                });
            // SAFETY: as in `parallel_for` — the job's last access is the
            // lock release ending `latch.complete` (after it wrote `slot`),
            // and `latch.wait()` below blocks until then.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
            self.submit(job);
        }
        let ra = panic::catch_unwind(AssertUnwindSafe(a));
        while !latch.is_done() && self.try_run_one() {}
        let b_panic = latch.wait();
        let ra = match ra {
            Ok(v) => v,
            Err(p) => panic::resume_unwind(p),
        };
        if let Some(p) = b_panic {
            panic::resume_unwind(p);
        }
        let rb = slot.lock().take().expect("join: worker stored no result");
        (ra, rb)
    }

    /// Split `data` into chunks of `chunk_len` elements (the last may be
    /// shorter) and run `body(chunk_index, chunk)` on each, in parallel.
    /// The chunk indices split over the lanes as in [`Self::parallel_for`].
    pub fn parallel_chunks_mut<T, F>(&self, data: &mut [T], chunk_len: usize, body: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_len > 0, "chunk_len must be positive");
        let len = data.len();
        let nchunks = len.div_ceil(chunk_len);
        let base = SendPtr(data.as_mut_ptr());
        self.parallel_for(nchunks, |range| {
            for i in range {
                let start = i * chunk_len;
                let end = (start + chunk_len).min(len);
                // SAFETY: chunk index ranges are disjoint across pieces, so
                // each element of `data` is reachable from exactly one
                // synthesized slice; `data` stays mutably borrowed (and the
                // caller blocked) until `parallel_for` returns.
                let chunk =
                    unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
                body(i, chunk);
            }
        });
    }

    /// `(0..n).map(f).collect()`, with the indices split over the lanes as
    /// in [`Self::parallel_for`]: the results come back in index order,
    /// each computed once, whatever the pool size.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
        self.parallel_chunks_mut(&mut slots, 1, |i, slot| slot[0] = Some(f(i)));
        slots
            .into_iter()
            .map(|v| v.expect("every index was mapped"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut s = self.shared.state.lock();
            s.shutdown = true;
        }
        self.shared.cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The process-wide pool, created on first use. Sized by `EXACLIM_THREADS`
/// when set to a positive integer, by `available_parallelism()` otherwise.
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(configured_threads()))
}

fn configured_threads() -> usize {
    thread_count_from(std::env::var("EXACLIM_THREADS").ok().as_deref())
}

/// Resolve the pool size from an optional `EXACLIM_THREADS` value.
fn thread_count_from(var: Option<&str>) -> usize {
    if let Some(v) = var {
        match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => eprintln!(
                "exaclim: ignoring EXACLIM_THREADS={v:?} (want a positive integer); \
                 using available parallelism"
            ),
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn covers_every_index_exactly_once() {
        for threads in [1, 2, 4, 7] {
            let pool = WorkerPool::new(threads);
            for n in [0usize, 1, 2, 3, 64, 1000] {
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                pool.parallel_for(n, |range| {
                    for i in range {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "threads={threads}, n={n}"
                );
            }
        }
    }

    #[test]
    fn chunks_mut_writes_disjoint_regions() {
        let pool = WorkerPool::new(4);
        for (len, chunk) in [(0usize, 3usize), (5, 100), (97, 8), (4096, 13)] {
            let mut data = vec![0u64; len];
            pool.parallel_chunks_mut(&mut data, chunk, |ci, c| {
                // Every chunk is full but a ragged last one.
                assert_eq!(
                    c.len(),
                    chunk.min(len - ci * chunk),
                    "len={len}, chunk={chunk}"
                );
                for (off, v) in c.iter_mut().enumerate() {
                    *v = (ci * chunk + off) as u64 + 1;
                }
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, i as u64 + 1, "len={len}, chunk={chunk}");
            }
        }
    }

    #[test]
    fn map_returns_results_in_index_order() {
        for threads in [1, 2, 4, 7] {
            let pool = WorkerPool::new(threads);
            for n in [0, 1, threads - 1, threads + 1, 10_000] {
                let v = pool.map(n, |i| i.wrapping_mul(31));
                let want: Vec<usize> = (0..n).map(|i| i.wrapping_mul(31)).collect();
                assert_eq!(v, want, "threads={threads}, n={n}");
            }
        }
    }

    #[test]
    fn join_returns_both_sides() {
        let pool = WorkerPool::new(4);
        let (a, b) = pool.join(|| 6 * 7, || "right".to_string());
        assert_eq!(a, 42);
        assert_eq!(b, "right");
    }

    #[test]
    fn nested_calls_complete() {
        let pool = WorkerPool::new(4);
        let total = AtomicUsize::new(0);
        pool.parallel_for(8, |outer| {
            for _ in outer {
                // Inner call: inline when on a worker, parallel when on the
                // caller lane. Either way it must terminate.
                pool.parallel_for(16, |inner| {
                    total.fetch_add(inner.len(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 16);
        // A map inside a map gives the sequential answer.
        let sums = pool.map(8, |k| pool.map(100, |i| i + k).iter().sum::<usize>());
        for (k, s) in sums.iter().enumerate() {
            assert_eq!(*s, 99 * 100 / 2 + 100 * k);
        }
    }

    #[test]
    fn body_panic_propagates_after_all_pieces_finish() {
        let pool = WorkerPool::new(4);
        let completed = AtomicUsize::new(0);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(64, |range| {
                for i in range {
                    if i == 33 {
                        panic!("piece exploded");
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }));
        let payload = r.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("piece exploded"), "{msg}");
        // The pool stays usable afterwards.
        let hits = AtomicUsize::new(0);
        pool.parallel_for(10, |r| {
            hits.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    /// Zero a stack buffer in a fresh frame, where the frame of the call
    /// that just returned lay, give a late write time to land, and report
    /// whether any word of it changed.
    #[inline(never)]
    fn stack_canary_corrupted() -> bool {
        let mut canary = [0u64; 512];
        std::hint::black_box(&mut canary);
        for _ in 0..64 {
            std::hint::spin_loop();
        }
        std::hint::black_box(&canary).iter().any(|&w| w != 0)
    }

    #[test]
    fn latch_is_not_touched_after_the_caller_returns() {
        // A worker that notifies the latch's condvar after releasing its
        // lock can do so after `parallel_for`/`join` returned, writing into
        // whatever the popped frame's memory holds next: here, the canary.
        let pool = WorkerPool::new(2);
        let mut corrupted = 0usize;
        for _ in 0..100_000 {
            pool.parallel_for(2, |r| {
                std::hint::black_box(r);
            });
            corrupted += usize::from(stack_canary_corrupted());
            pool.join(|| std::hint::black_box(1), || std::hint::black_box(2));
            corrupted += usize::from(stack_canary_corrupted());
        }
        assert_eq!(
            corrupted, 0,
            "stack canaries written after the call returned"
        );
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        let tid = std::thread::current().id();
        pool.parallel_for(5, |range| {
            assert_eq!(std::thread::current().id(), tid);
            assert_eq!(range, 0..5, "single lane must get the whole range");
        });
    }

    #[test]
    fn thread_count_resolution() {
        assert_eq!(thread_count_from(Some("3")), 3);
        assert_eq!(thread_count_from(Some(" 8 ")), 8);
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(thread_count_from(None), hw);
        assert_eq!(thread_count_from(Some("0")), hw);
        assert_eq!(thread_count_from(Some("not-a-number")), hw);
    }

    #[test]
    fn parallel_for_runs_every_lane_at_once() {
        // One index per lane, and every piece waits for all the others,
        // so this passes only if the pool runs its pieces concurrently
        // (on any number of cores).
        for lanes in [2, 3, 4] {
            let pool = WorkerPool::new(lanes);
            let rendezvous = crate::Rendezvous::new(lanes, std::time::Duration::from_secs(20));
            let met = AtomicUsize::new(0);
            pool.parallel_for(lanes, |range| {
                for _ in range {
                    if rendezvous.meet() {
                        met.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            assert_eq!(met.into_inner(), lanes, "lanes={lanes}");
        }
    }
}
