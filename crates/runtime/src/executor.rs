//! The DAG executor: lanes of the shared worker pool drain one ready queue,
//! a max-heap on task priority — the paper's critical-path priorities.
//!
//! [`Executor::run`] starts `min(workers, pool threads)` lanes as the pieces
//! of one [`WorkerPool::parallel_for`], the caller's own piece included, and
//! each lane pops ready tasks until the queue closes after the last task.
//! The executor spawns no thread, so the task-parallel Cholesky is bounded
//! by `EXACLIM_THREADS` like every other parallel loop.
//!
//! Invariant: every lane runs its task bodies with nested pool calls forced
//! inline (`pool::InlineNested`). Without it, a task on the caller's lane
//! that calls the pool could pick up a queued lane job of its own run while
//! it waits; that lane would then block in the queue's `pop` under the
//! suspended task, and the run would deadlock.

use crate::graph::{TaskGraph, TaskId, TaskKind};
use crate::pool::{self, InlineNested, WorkerPool};
use crate::trace::{TaskSpan, TraceReport};
use parking_lot::{Condvar, Mutex};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Scheduling policy of the executor; there is one. Kept only because the
/// frozen benchmark names it (ROADMAP 2(b) drops that use); nothing reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Single global max-heap ordered by task priority — models PaRSEC's
    /// priority-aware scheduling that keeps the Cholesky critical path hot.
    PriorityHeap,
}

/// How a task failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskFailure {
    /// The task returned `Err`.
    Returned,
    /// The task panicked.
    Panicked,
}

/// Error carried out of a failing task.
#[derive(Debug, Clone)]
pub struct ExecError {
    /// The task that failed first.
    pub task: TaskId,
    /// Whether it returned its error or panicked.
    pub cause: TaskFailure,
    /// Its error message (`task panicked: …` for a panic).
    pub message: String,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} failed: {}", self.task, self.message)
    }
}

impl std::error::Error for ExecError {}

/// A DAG executor running at most `workers` lanes of a worker pool.
#[derive(Debug, Clone)]
pub struct Executor {
    workers: usize,
}

/// A run's ready queue: a max-heap on `(priority, task id)`. Idle lanes
/// block in [`GlobalQueue::pop`] on the condition variable — an idle lane
/// burns no CPU — and are released either by a push or by
/// [`GlobalQueue::close`], the shutdown broadcast issued once the run's last
/// task has completed.
struct GlobalQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
}

struct QueueState {
    heap: BinaryHeap<(i64, usize)>,
    closed: bool,
}

impl GlobalQueue {
    fn new() -> Self {
        Self {
            state: Mutex::new(QueueState {
                heap: BinaryHeap::new(),
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn push(&self, prio: i64, id: usize) {
        self.state.lock().heap.push((prio, id));
        self.cv.notify_one();
    }

    /// Block until a task is available (`Some`) or the queue has been
    /// closed and drained (`None`, the lane-exit signal).
    fn pop(&self) -> Option<usize> {
        let mut s = self.state.lock();
        loop {
            if let Some((_, id)) = s.heap.pop() {
                return Some(id);
            }
            if s.closed {
                return None;
            }
            self.cv.wait(&mut s);
        }
    }

    /// Shutdown broadcast: wake every blocked lane so it can observe the
    /// closed queue and exit. Idempotent.
    fn close(&self) {
        self.state.lock().closed = true;
        self.cv.notify_all();
    }
}

impl Executor {
    /// Build an executor running at most `workers ≥ 1` lanes.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1);
        Self { workers }
    }

    /// Lane cap.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Execute every task of `graph` on the process-wide [`pool::global`],
    /// calling `f(task_id, kind)` when its dependences are met. Returns the
    /// execution trace, or the first error (remaining tasks are cancelled,
    /// not run).
    pub fn run<F>(&self, graph: &TaskGraph, f: F) -> Result<TraceReport, ExecError>
    where
        F: Fn(TaskId, &TaskKind) -> Result<(), String> + Sync,
    {
        self.run_on(pool::global(), graph, f)
    }

    /// [`Executor::run`] on `pool`: `min(workers, pool.threads())` lanes, or
    /// one when called from inside pool work (where pool calls run inline).
    /// The trace's `workers` is that lane count.
    pub fn run_on<F>(
        &self,
        pool: &WorkerPool,
        graph: &TaskGraph,
        f: F,
    ) -> Result<TraceReport, ExecError>
    where
        F: Fn(TaskId, &TaskKind) -> Result<(), String> + Sync,
    {
        let lanes = if pool::in_pool_worker() {
            1
        } else {
            self.workers.min(pool.threads())
        };
        let n = graph.len();
        if n == 0 {
            return Ok(TraceReport::new(Vec::new(), 0.0, lanes));
        }
        let ctx = Ctx {
            graph,
            indegree: graph
                .nodes()
                .iter()
                .map(|t| AtomicUsize::new(t.indegree))
                .collect(),
            remaining: AtomicUsize::new(n),
            cancelled: AtomicBool::new(false),
            error: Mutex::new(None),
            queue: GlobalQueue::new(),
            f: &f,
            epoch: Instant::now(),
        };
        for r in graph.roots() {
            ctx.queue.push(graph.node(r).priority, r);
        }
        let spans: Mutex<Vec<TaskSpan>> = Mutex::new(Vec::with_capacity(n));
        // `lanes ≤ pool.threads()`, so each piece is one lane. Each runs
        // under the module's invariant: nested pool calls run inline.
        pool.parallel_for(lanes, |lane| {
            let _inline = InlineNested::enter();
            let mine = ctx.drain(lane.start);
            spans.lock().extend(mine);
        });

        if let Some(e) = ctx.error.into_inner() {
            return Err(e);
        }
        let mut spans = spans.into_inner();
        spans.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
        Ok(TraceReport::new(
            spans,
            ctx.epoch.elapsed().as_secs_f64(),
            lanes,
        ))
    }
}

/// Per-run state shared by every lane.
struct Ctx<'a, F> {
    graph: &'a TaskGraph,
    indegree: Vec<AtomicUsize>,
    remaining: AtomicUsize,
    cancelled: AtomicBool,
    error: Mutex<Option<ExecError>>,
    queue: GlobalQueue,
    f: &'a F,
    epoch: Instant,
}

impl<'a, F> Ctx<'a, F>
where
    F: Fn(TaskId, &TaskKind) -> Result<(), String> + Sync,
{
    /// Lane `lane`: run ready tasks until the queue closes; returns the
    /// lane's spans.
    fn drain(&self, lane: usize) -> Vec<TaskSpan> {
        let mut spans = Vec::new();
        while let Some(id) = self.queue.pop() {
            self.execute(id, lane, &mut spans);
        }
        spans
    }

    /// Run one task (unless cancelled), record its span, queue its ready
    /// successors, and close the queue after the run's last task.
    fn execute(&self, id: usize, lane: usize, spans: &mut Vec<TaskSpan>) {
        let node = self.graph.node(id);
        if !self.cancelled.load(Ordering::Acquire) {
            let t0 = self.epoch.elapsed().as_secs_f64();
            // A panicking task must not tear down its lane: catch it and
            // report it like an `Err`, attributed to this task.
            let outcome = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                (self.f)(id, &node.kind)
            })) {
                Ok(result) => result.map_err(|message| (TaskFailure::Returned, message)),
                Err(payload) => Err((
                    TaskFailure::Panicked,
                    format!("task panicked: {}", panic_message(payload.as_ref())),
                )),
            };
            match outcome {
                Ok(()) => {
                    let t1 = self.epoch.elapsed().as_secs_f64();
                    spans.push(TaskSpan {
                        task: id,
                        kind: node.kind,
                        worker: lane,
                        start: t0,
                        end: t1,
                    });
                }
                Err((cause, message)) => {
                    self.cancelled.store(true, Ordering::Release);
                    let mut e = self.error.lock();
                    if e.is_none() {
                        *e = Some(ExecError {
                            task: id,
                            cause,
                            message,
                        });
                    }
                }
            }
        }
        // Propagate completion even when cancelled so every lane terminates.
        for &s in &node.successors {
            if self.indegree[s].fetch_sub(1, Ordering::AcqRel) == 1 {
                self.queue.push(self.graph.node(s).priority, s);
            }
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.queue.close();
        }
    }
}

/// Best-effort human-readable text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{cholesky_graph, TaskGraph, TaskKind};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_task_exactly_once() {
        let g = cholesky_graph(6);
        let count = AtomicUsize::new(0);
        let exec = Executor::new(4);
        let trace = exec
            .run(&g, |_, _| {
                count.fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
            .unwrap();
        assert_eq!(count.load(Ordering::Relaxed), g.len());
        assert_eq!(trace.spans.len(), g.len());
    }

    #[test]
    fn respects_dependence_order() {
        let mut g = TaskGraph::new();
        let mut prev = g.add(TaskKind::Generic(0), 0, &[]);
        for i in 1..50u64 {
            prev = g.add(TaskKind::Generic(i), 0, &[prev]);
        }
        let next_expected = AtomicUsize::new(0);
        let exec = Executor::new(4);
        exec.run(&g, |id, _| {
            let e = next_expected.fetch_add(1, Ordering::SeqCst);
            if e != id {
                return Err(format!("expected {e}, ran {id}"));
            }
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn diamond_dependences_block_join() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskKind::Generic(0), 0, &[]);
        let b = g.add(TaskKind::Generic(1), 0, &[a]);
        let c = g.add(TaskKind::Generic(2), 0, &[a]);
        let d = g.add(TaskKind::Generic(3), 0, &[b, c]);
        let done = Mutex::new(Vec::new());
        Executor::new(3)
            .run(&g, |id, _| {
                done.lock().push(id);
                Ok(())
            })
            .unwrap();
        let order = done.into_inner();
        let pos = |x: usize| order.iter().position(|&v| v == x).unwrap();
        assert!(pos(a) < pos(b) && pos(a) < pos(c));
        assert!(pos(d) > pos(b) && pos(d) > pos(c), "{order:?}");
    }

    #[test]
    fn error_cancels_remaining_work() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskKind::Generic(0), 0, &[]);
        let b = g.add(TaskKind::Generic(1), 0, &[a]);
        let _c = g.add(TaskKind::Generic(2), 0, &[b]);
        let ran = AtomicUsize::new(0);
        let err = Executor::new(2)
            .run(&g, |id, _| {
                if id == b {
                    return Err("boom".into());
                }
                ran.fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
            .unwrap_err();
        assert_eq!(err.task, b);
        assert_eq!(err.cause, TaskFailure::Returned);
        assert_eq!(err.message, "boom");
        assert_eq!(ran.load(Ordering::Relaxed), 1, "c must not run");
    }

    #[test]
    fn independent_tasks_run_concurrently() {
        // Two independent tasks on two lanes, each waiting for the other:
        // this passes only if the executor runs them at the same time.
        let pool = WorkerPool::new(2);
        let mut g = TaskGraph::new();
        for i in 0..2u64 {
            g.add(TaskKind::Generic(i), 0, &[]);
        }
        let rendezvous = crate::Rendezvous::new(2, std::time::Duration::from_secs(20));
        Executor::new(2)
            .run_on(&pool, &g, |id, _| {
                if rendezvous.meet() {
                    Ok(())
                } else {
                    Err(format!("task {id:?} ran alone"))
                }
            })
            .unwrap();
    }

    #[test]
    fn tasks_run_on_the_caller_or_the_pool_workers() {
        // The executor spawns no thread: every task runs on the calling
        // thread or on a worker of the pool, one thread per lane at most,
        // and the trace counts the lanes.
        let pool = WorkerPool::new(3);
        let caller = std::thread::current().id();
        for workers in [1, 2, 5] {
            let lanes = workers.min(pool.threads());
            let g = cholesky_graph(6);
            let threads = Mutex::new(std::collections::HashSet::new());
            let trace = Executor::new(workers)
                .run_on(&pool, &g, |_, _| {
                    let me = std::thread::current();
                    let pooled = me.name().is_some_and(|n| n.starts_with("exaclim-pool-"));
                    if me.id() != caller && !pooled {
                        return Err(format!("task ran on thread {:?}", me.name()));
                    }
                    threads.lock().insert(me.id());
                    // Long enough for every lane to pick up tasks, without
                    // burning a core.
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    Ok(())
                })
                .unwrap_or_else(|e| panic!("workers={workers}: {e}"));
            let threads = threads.into_inner().len();
            assert!(threads <= lanes, "workers={workers}: {threads} threads");
            assert_eq!(trace.workers, lanes, "workers={workers}");
            assert!(trace.spans.iter().all(|s| s.worker < lanes));
        }
    }

    #[test]
    fn panicking_task_becomes_error_with_attribution() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskKind::Generic(0), 0, &[]);
        let b = g.add(TaskKind::Generic(1), 0, &[a]);
        let _c = g.add(TaskKind::Generic(2), 0, &[b]);
        let ran = AtomicUsize::new(0);
        let err = Executor::new(2)
            .run(&g, |id, _| {
                if id == b {
                    panic!("kernel blew up");
                }
                ran.fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
            .unwrap_err();
        assert_eq!(err.task, b);
        assert_eq!(err.cause, TaskFailure::Panicked);
        assert!(
            err.message.contains("task panicked") && err.message.contains("kernel blew up"),
            "{}",
            err.message
        );
        assert_eq!(ran.load(Ordering::Relaxed), 1, "c must not run");
    }

    #[test]
    fn global_queue_pop_blocks_until_push_or_close() {
        use std::sync::mpsc;
        use std::time::Duration;

        let q = std::sync::Arc::new(GlobalQueue::new());
        // Two waiters: one will receive the pushed task, the other the
        // shutdown broadcast. Neither may return while the queue is open
        // and empty (the old implementation returned `None` immediately,
        // which is what made workers spin).
        let (tx, rx) = mpsc::channel();
        let mut handles = Vec::new();
        for _ in 0..2 {
            let q = std::sync::Arc::clone(&q);
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                tx.send(q.pop()).unwrap();
            }));
        }
        assert!(
            rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "pop returned on an open empty queue instead of blocking"
        );
        q.push(0, 7);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            Some(7),
            "push must wake a blocked waiter"
        );
        q.close();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            None,
            "close must release the remaining waiter"
        );
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn empty_graph_completes() {
        let g = TaskGraph::new();
        let trace = Executor::new(4).run(&g, |_, _| Ok(())).unwrap();
        assert!(trace.spans.is_empty());
    }

    #[test]
    fn priority_heap_prefers_high_priority_roots() {
        // Many roots with distinct priorities, one worker: execution order
        // must be non-increasing in priority.
        let mut g = TaskGraph::new();
        for i in 0..32u64 {
            g.add(TaskKind::Generic(i), (i as i64 * 37) % 101, &[]);
        }
        let order = Mutex::new(Vec::new());
        Executor::new(1)
            .run(&g, |id, _| {
                order.lock().push(id);
                Ok(())
            })
            .unwrap();
        let order = order.into_inner();
        let prios: Vec<i64> = order.iter().map(|&id| g.node(id).priority).collect();
        for w in prios.windows(2) {
            assert!(w[0] >= w[1], "priority inversion: {prios:?}");
        }
    }

    #[test]
    fn trace_spans_are_consistent() {
        let g = cholesky_graph(4);
        let trace = Executor::new(3).run(&g, |_, _| Ok(())).unwrap();
        assert_eq!(trace.workers, 3.min(pool::global().threads()));
        for s in &trace.spans {
            assert!(s.end >= s.start);
            assert!(s.worker < trace.workers);
            assert!(s.end <= trace.wall + 1e-3);
        }
    }
}
