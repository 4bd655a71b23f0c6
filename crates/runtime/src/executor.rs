//! Multi-threaded DAG executor with pluggable scheduling policies.

use crate::graph::{TaskGraph, TaskId, TaskKind};
use crate::trace::{TaskSpan, TraceReport};
use crossbeam_deque::{Injector, Steal, Stealer, Worker};
use parking_lot::{Condvar, Mutex};
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Scheduling policy of the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Per-worker LIFO deques with random stealing (data-locality-friendly,
    /// ignores priorities) — crossbeam's classic Chase–Lev setup.
    WorkStealing,
    /// Single global max-heap ordered by task priority — models PaRSEC's
    /// priority-aware scheduling that keeps the Cholesky critical path hot.
    PriorityHeap,
    /// Single global FIFO — the naive baseline.
    Fifo,
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

/// A DAG executor over a fixed worker count.
#[derive(Debug, Clone)]
pub struct Executor {
    workers: usize,
    scheduler: SchedulerKind,
}

/// Shared queue behind the global-queue schedulers. Idle workers block in
/// [`GlobalQueue::pop`] on the condition variable — an idle executor burns
/// no CPU — and are released either by a push or by [`GlobalQueue::close`],
/// the shutdown broadcast issued once the run's last task has completed.
struct GlobalQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
}

struct QueueState {
    queue: QueueImpl,
    closed: bool,
}

enum QueueImpl {
    Heap(BinaryHeap<(i64, usize)>),
    Fifo(VecDeque<usize>),
}

impl QueueImpl {
    fn take(&mut self) -> Option<usize> {
        match self {
            QueueImpl::Heap(h) => h.pop().map(|(_, id)| id),
            QueueImpl::Fifo(f) => f.pop_front(),
        }
    }
}

impl GlobalQueue {
    fn push(&self, prio: i64, id: usize) {
        let mut s = self.state.lock();
        match &mut s.queue {
            QueueImpl::Heap(h) => h.push((prio, id)),
            QueueImpl::Fifo(f) => f.push_back(id),
        }
        drop(s);
        self.cv.notify_one();
    }

    /// Block until a task is available (`Some`) or the queue has been
    /// closed and drained (`None`, the worker-exit signal).
    fn pop(&self) -> Option<usize> {
        let mut s = self.state.lock();
        loop {
            if let Some(id) = s.queue.take() {
                return Some(id);
            }
            if s.closed {
                return None;
            }
            self.cv.wait(&mut s);
        }
    }

    /// Shutdown broadcast: wake every blocked worker so it can observe the
    /// closed queue and exit. Idempotent.
    fn close(&self) {
        let mut s = self.state.lock();
        s.closed = true;
        drop(s);
        self.cv.notify_all();
    }
}

impl Executor {
    /// Build an executor with `workers ≥ 1` threads and a scheduler.
    pub fn new(workers: usize, scheduler: SchedulerKind) -> Self {
        assert!(workers >= 1);
        Self { workers, scheduler }
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Execute every task of `graph`, calling `f(task_id, kind)` when its
    /// dependences are met. Returns the execution trace, or the first error
    /// (remaining tasks are cancelled, not run).
    pub fn run<F>(&self, graph: &TaskGraph, f: F) -> Result<TraceReport, ExecError>
    where
        F: Fn(TaskId, &TaskKind) -> Result<(), String> + Sync,
    {
        let n = graph.len();
        if n == 0 {
            return Ok(TraceReport::new(Vec::new(), 0.0, self.workers));
        }
        let indegree: Vec<AtomicUsize> = graph
            .nodes()
            .iter()
            .map(|t| AtomicUsize::new(t.indegree))
            .collect();
        let remaining = AtomicUsize::new(n);
        let cancelled = AtomicBool::new(false);
        let error: Mutex<Option<ExecError>> = Mutex::new(None);
        let spans: Mutex<Vec<TaskSpan>> = Mutex::new(Vec::with_capacity(n));
        let spans_ref = &spans;
        let epoch = Instant::now();

        match self.scheduler {
            SchedulerKind::WorkStealing => {
                let injector = Injector::new();
                for r in graph.roots() {
                    injector.push(r);
                }
                let locals: Vec<Worker<usize>> =
                    (0..self.workers).map(|_| Worker::new_lifo()).collect();
                let stealers: Vec<Stealer<usize>> = locals.iter().map(Worker::stealer).collect();
                std::thread::scope(|scope| {
                    for (wid, local) in locals.into_iter().enumerate() {
                        let injector = &injector;
                        let stealers = &stealers;
                        let ctx = Ctx {
                            graph,
                            indegree: &indegree,
                            remaining: &remaining,
                            cancelled: &cancelled,
                            error: &error,
                            f: &f,
                            epoch,
                        };
                        scope.spawn(move || {
                            let mut local_spans = Vec::new();
                            // Misses since the last successful pop/steal;
                            // drives the idle back-off below.
                            let mut misses = 0u32;
                            loop {
                                if ctx.remaining.load(Ordering::Acquire) == 0 {
                                    break;
                                }
                                let task = local.pop().or_else(|| {
                                    std::iter::repeat_with(|| {
                                        injector.steal_batch_and_pop(&local).or_else(|| {
                                            stealers
                                                .iter()
                                                .map(|s| s.steal())
                                                .collect::<Steal<usize>>()
                                        })
                                    })
                                    .find(|s| !s.is_retry())
                                    .and_then(|s| s.success())
                                });
                                match task {
                                    Some(id) => {
                                        misses = 0;
                                        ctx.execute(id, wid, &mut local_spans, |succ| {
                                            local.push(succ)
                                        });
                                    }
                                    None => {
                                        // Brief yields first (a ready task is
                                        // usually moments away), then sleep
                                        // with exponential back-off. The cap
                                        // stays low (320 µs): enough to stop
                                        // an idle worker burning its core,
                                        // small enough that a sleeper picks
                                        // up a fresh fan-out of ~1 ms tile
                                        // kernels without serializing them.
                                        misses += 1;
                                        if misses < 16 {
                                            std::thread::yield_now();
                                        } else {
                                            let exp = (misses - 16).min(4);
                                            std::thread::sleep(std::time::Duration::from_micros(
                                                20 << exp,
                                            ));
                                        }
                                    }
                                }
                            }
                            spans_ref.lock().extend(local_spans);
                        });
                    }
                });
            }
            SchedulerKind::PriorityHeap | SchedulerKind::Fifo => {
                let q = GlobalQueue {
                    state: Mutex::new(QueueState {
                        queue: match self.scheduler {
                            SchedulerKind::PriorityHeap => QueueImpl::Heap(BinaryHeap::new()),
                            _ => QueueImpl::Fifo(VecDeque::new()),
                        },
                        closed: false,
                    }),
                    cv: Condvar::new(),
                };
                for r in graph.roots() {
                    q.push(graph.node(r).priority, r);
                }
                std::thread::scope(|scope| {
                    for wid in 0..self.workers {
                        let q = &q;
                        let ctx = Ctx {
                            graph,
                            indegree: &indegree,
                            remaining: &remaining,
                            cancelled: &cancelled,
                            error: &error,
                            f: &f,
                            epoch,
                        };
                        scope.spawn(move || {
                            let mut local_spans = Vec::new();
                            // `pop` blocks on the queue's condvar; `None`
                            // means the queue was closed after the last task.
                            while let Some(id) = q.pop() {
                                ctx.execute(id, wid, &mut local_spans, |succ| {
                                    q.push(ctx.graph.node(succ).priority, succ)
                                });
                                if ctx.remaining.load(Ordering::Acquire) == 0 {
                                    q.close();
                                }
                            }
                            spans_ref.lock().extend(local_spans);
                        });
                    }
                });
            }
        }

        if let Some(e) = error.into_inner() {
            return Err(e);
        }
        let mut spans = spans.into_inner();
        spans.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
        Ok(TraceReport::new(
            spans,
            epoch.elapsed().as_secs_f64(),
            self.workers,
        ))
    }
}

/// Shared per-run context captured by every worker.
struct Ctx<'a, F> {
    graph: &'a TaskGraph,
    indegree: &'a [AtomicUsize],
    remaining: &'a AtomicUsize,
    cancelled: &'a AtomicBool,
    error: &'a Mutex<Option<ExecError>>,
    f: &'a F,
    epoch: Instant,
}

impl<'a, F> Ctx<'a, F>
where
    F: Fn(TaskId, &TaskKind) -> Result<(), String> + Sync,
{
    /// Run one task (unless cancelled), record its span, and release its
    /// successors through `push_ready`.
    fn execute<P: FnMut(usize)>(
        &self,
        id: usize,
        worker: usize,
        local_spans: &mut Vec<TaskSpan>,
        mut push_ready: P,
    ) {
        let node = self.graph.node(id);
        if !self.cancelled.load(Ordering::Acquire) {
            let t0 = self.epoch.elapsed().as_secs_f64();
            // A panicking task must not tear down the whole scope: catch it
            // and report it like an `Err`, attributed to this task.
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
                    local_spans.push(TaskSpan {
                        task: id,
                        kind: node.kind,
                        worker,
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
        // Propagate completion even when cancelled so all workers terminate.
        for &s in &node.successors {
            if self.indegree[s].fetch_sub(1, Ordering::AcqRel) == 1 {
                push_ready(s);
            }
        }
        self.remaining.fetch_sub(1, Ordering::AcqRel);
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

    fn all_schedulers() -> [SchedulerKind; 3] {
        [
            SchedulerKind::WorkStealing,
            SchedulerKind::PriorityHeap,
            SchedulerKind::Fifo,
        ]
    }

    #[test]
    fn runs_every_task_exactly_once() {
        for sched in all_schedulers() {
            let g = cholesky_graph(6);
            let count = AtomicUsize::new(0);
            let exec = Executor::new(4, sched);
            let trace = exec
                .run(&g, |_, _| {
                    count.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                })
                .unwrap();
            assert_eq!(count.load(Ordering::Relaxed), g.len(), "{sched:?}");
            assert_eq!(trace.spans.len(), g.len());
        }
    }

    #[test]
    fn respects_dependence_order() {
        for sched in all_schedulers() {
            let mut g = TaskGraph::new();
            let mut prev = g.add(TaskKind::Generic(0), 0, &[]);
            for i in 1..50u64 {
                prev = g.add(TaskKind::Generic(i), 0, &[prev]);
            }
            let next_expected = AtomicUsize::new(0);
            let exec = Executor::new(4, sched);
            exec.run(&g, |id, _| {
                let e = next_expected.fetch_add(1, Ordering::SeqCst);
                if e != id {
                    return Err(format!("expected {e}, ran {id}"));
                }
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{sched:?}: {e}"));
        }
    }

    #[test]
    fn diamond_dependences_block_join() {
        for sched in all_schedulers() {
            let mut g = TaskGraph::new();
            let a = g.add(TaskKind::Generic(0), 0, &[]);
            let b = g.add(TaskKind::Generic(1), 0, &[a]);
            let c = g.add(TaskKind::Generic(2), 0, &[a]);
            let d = g.add(TaskKind::Generic(3), 0, &[b, c]);
            let done = Mutex::new(Vec::new());
            Executor::new(3, sched)
                .run(&g, |id, _| {
                    done.lock().push(id);
                    Ok(())
                })
                .unwrap();
            let order = done.into_inner();
            let pos = |x: usize| order.iter().position(|&v| v == x).unwrap();
            assert!(pos(a) < pos(b) && pos(a) < pos(c));
            assert!(pos(d) > pos(b) && pos(d) > pos(c), "{sched:?}: {order:?}");
        }
    }

    #[test]
    fn error_cancels_remaining_work() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskKind::Generic(0), 0, &[]);
        let b = g.add(TaskKind::Generic(1), 0, &[a]);
        let _c = g.add(TaskKind::Generic(2), 0, &[b]);
        let ran = AtomicUsize::new(0);
        let err = Executor::new(2, SchedulerKind::PriorityHeap)
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
    fn parallel_speedup_on_wide_graph() {
        // 64 independent ~1 ms tasks: N workers must beat 1 worker by a
        // margin scaled to the parallelism actually available. Meaningless
        // on a single-core host (CI containers sometimes are), so skip
        // there instead of asserting.
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cores < 2 {
            eprintln!("skipping speedup assertion on {cores}-core host");
            return;
        }
        let _timing = crate::TIMING_TEST_LOCK.lock();
        let workers = cores.min(8);
        let mut g = TaskGraph::new();
        for i in 0..64u64 {
            g.add(TaskKind::Generic(i), 0, &[]);
        }
        let work = || {
            let t = std::time::Instant::now();
            while t.elapsed().as_micros() < 1000 {
                std::hint::spin_loop();
            }
        };
        let t1 = {
            let e = Executor::new(1, SchedulerKind::WorkStealing);
            let tr = e.run(&g, |_, _| {
                work();
                Ok(())
            });
            tr.unwrap().wall
        };
        let tn = {
            let e = Executor::new(workers, SchedulerKind::WorkStealing);
            let tr = e.run(&g, |_, _| {
                work();
                Ok(())
            });
            tr.unwrap().wall
        };
        // Expect at least ~30% parallel efficiency per extra worker — loose
        // enough for noisy shared CI hosts, tight enough to catch a
        // sequentialized executor.
        let min_speedup = 1.0 + 0.3 * (workers as f64 - 1.0);
        assert!(
            t1 / tn > min_speedup,
            "workers={workers}: t1={t1}, tn={tn}, want ≥ {min_speedup}×"
        );
    }

    #[test]
    fn panicking_task_becomes_error_with_attribution() {
        for sched in all_schedulers() {
            let mut g = TaskGraph::new();
            let a = g.add(TaskKind::Generic(0), 0, &[]);
            let b = g.add(TaskKind::Generic(1), 0, &[a]);
            let _c = g.add(TaskKind::Generic(2), 0, &[b]);
            let ran = AtomicUsize::new(0);
            let err = Executor::new(2, sched)
                .run(&g, |id, _| {
                    if id == b {
                        panic!("kernel blew up");
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                })
                .unwrap_err();
            assert_eq!(err.task, b, "{sched:?}");
            assert_eq!(err.cause, TaskFailure::Panicked, "{sched:?}");
            assert!(
                err.message.contains("task panicked") && err.message.contains("kernel blew up"),
                "{sched:?}: {}",
                err.message
            );
            assert_eq!(ran.load(Ordering::Relaxed), 1, "{sched:?}: c must not run");
        }
    }

    #[test]
    fn global_queue_pop_blocks_until_push_or_close() {
        use std::sync::mpsc;
        use std::time::Duration;

        let q = std::sync::Arc::new(GlobalQueue {
            state: Mutex::new(QueueState {
                queue: QueueImpl::Fifo(VecDeque::new()),
                closed: false,
            }),
            cv: Condvar::new(),
        });
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
        for sched in all_schedulers() {
            let g = TaskGraph::new();
            let trace = Executor::new(4, sched).run(&g, |_, _| Ok(())).unwrap();
            assert!(trace.spans.is_empty(), "{sched:?}");
        }
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
        Executor::new(1, SchedulerKind::PriorityHeap)
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
        let trace = Executor::new(3, SchedulerKind::WorkStealing)
            .run(&g, |_, _| Ok(()))
            .unwrap();
        assert_eq!(trace.workers, 3);
        for s in &trace.spans {
            assert!(s.end >= s.start);
            assert!(s.worker < 3);
            assert!(s.end <= trace.wall + 1e-3);
        }
    }
}
