//! Execution traces: per-task spans, utilization, load imbalance and the
//! observed critical path.

use crate::graph::{TaskId, TaskKind};

/// One executed task.
#[derive(Debug, Clone, Copy)]
pub struct TaskSpan {
    /// Task id within the graph.
    pub task: TaskId,
    /// Task kind (kernel type for Cholesky DAGs).
    pub kind: TaskKind,
    /// Worker that ran it.
    pub worker: usize,
    /// Start time, seconds since execution began.
    pub start: f64,
    /// End time, seconds since execution began.
    pub end: f64,
}

/// Full trace of one DAG execution.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// All spans, sorted by start time.
    pub spans: Vec<TaskSpan>,
    /// Wall-clock of the whole execution in seconds.
    pub wall: f64,
    /// Worker count.
    pub workers: usize,
}

impl TraceReport {
    /// Assemble a report (spans assumed sorted by start).
    pub fn new(spans: Vec<TaskSpan>, wall: f64, workers: usize) -> Self {
        Self {
            spans,
            wall,
            workers,
        }
    }

    /// Total busy time across workers.
    pub fn busy_time(&self) -> f64 {
        self.spans.iter().map(|s| s.end - s.start).sum()
    }

    /// Mean worker utilization in `[0, 1]`: busy time over `workers × wall`.
    pub fn utilization(&self) -> f64 {
        if self.wall <= 0.0 || self.workers == 0 {
            return 0.0;
        }
        (self.busy_time() / (self.workers as f64 * self.wall)).min(1.0)
    }

    /// Busy seconds per worker.
    pub fn per_worker_busy(&self) -> Vec<f64> {
        let mut v = vec![0.0; self.workers];
        for s in &self.spans {
            v[s.worker] += s.end - s.start;
        }
        v
    }

    /// Load-imbalance ratio: max worker busy time over mean busy time
    /// (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let per = self.per_worker_busy();
        let max = per.iter().cloned().fold(0.0, f64::max);
        let mean = per.iter().sum::<f64>() / per.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Observed critical-path seconds through the executed graph: the
    /// longest chain of spans where each successor started after its
    /// predecessor ended (time-ordered heuristic over the realized
    /// schedule). Lower-bounds the makespan of any worker count.
    pub fn critical_path_seconds(&self, graph: &crate::graph::TaskGraph) -> f64 {
        // ready[task] accumulates the max finish time of its predecessors;
        // spans sorted by start time form a topological order of the
        // executed DAG (a task cannot start before its predecessors end),
        // so one forward pass suffices.
        let mut ready = vec![0.0f64; graph.len()];
        let mut longest = 0.0f64;
        for s in &self.spans {
            let dur = s.end - s.start;
            let end = ready[s.task] + dur;
            longest = longest.max(end);
            for &succ in &graph.node(s.task).successors {
                if ready[succ] < end {
                    ready[succ] = end;
                }
            }
        }
        longest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(worker: usize, start: f64, end: f64) -> TaskSpan {
        TaskSpan {
            task: 0,
            kind: TaskKind::Generic(0),
            worker,
            start,
            end,
        }
    }

    #[test]
    fn utilization_of_full_schedule() {
        let spans = vec![span(0, 0.0, 1.0), span(1, 0.0, 1.0)];
        let r = TraceReport::new(spans, 1.0, 2);
        assert!((r.utilization() - 1.0).abs() < 1e-12);
        assert!((r.busy_time() - 2.0).abs() < 1e-12);
        assert!((r.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_of_half_idle_schedule() {
        let spans = vec![span(0, 0.0, 1.0)];
        let r = TraceReport::new(spans, 1.0, 2);
        assert!((r.utilization() - 0.5).abs() < 1e-12);
        assert!((r.imbalance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_safe() {
        let r = TraceReport::new(Vec::new(), 0.0, 0);
        assert_eq!(r.utilization(), 0.0);
        assert_eq!(r.busy_time(), 0.0);
        assert_eq!(r.imbalance(), 1.0);
    }

    #[test]
    fn critical_path_of_chain_is_sum_of_durations() {
        use crate::graph::TaskGraph;
        let mut g = TaskGraph::new();
        let a = g.add(TaskKind::Generic(0), 0, &[]);
        let b = g.add(TaskKind::Generic(1), 0, &[a]);
        let c = g.add(TaskKind::Generic(2), 0, &[b]);
        let spans = vec![
            TaskSpan {
                task: a,
                kind: TaskKind::Generic(0),
                worker: 0,
                start: 0.0,
                end: 0.2,
            },
            TaskSpan {
                task: b,
                kind: TaskKind::Generic(1),
                worker: 0,
                start: 0.2,
                end: 0.5,
            },
            TaskSpan {
                task: c,
                kind: TaskKind::Generic(2),
                worker: 0,
                start: 0.5,
                end: 0.6,
            },
        ];
        let r = TraceReport::new(spans, 0.6, 1);
        assert!((r.critical_path_seconds(&g) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn critical_path_of_fork_is_longest_branch() {
        use crate::graph::TaskGraph;
        let mut g = TaskGraph::new();
        let a = g.add(TaskKind::Generic(0), 0, &[]);
        let b = g.add(TaskKind::Generic(1), 0, &[a]); // long branch
        let c = g.add(TaskKind::Generic(2), 0, &[a]); // short branch
        let d = g.add(TaskKind::Generic(3), 0, &[b, c]);
        let spans = vec![
            TaskSpan {
                task: a,
                kind: TaskKind::Generic(0),
                worker: 0,
                start: 0.0,
                end: 0.1,
            },
            TaskSpan {
                task: b,
                kind: TaskKind::Generic(1),
                worker: 0,
                start: 0.1,
                end: 0.6,
            },
            TaskSpan {
                task: c,
                kind: TaskKind::Generic(2),
                worker: 1,
                start: 0.1,
                end: 0.2,
            },
            TaskSpan {
                task: d,
                kind: TaskKind::Generic(3),
                worker: 1,
                start: 0.6,
                end: 0.7,
            },
        ];
        let r = TraceReport::new(spans, 0.7, 2);
        // 0.1 + 0.5 + 0.1 through the long branch.
        assert!((r.critical_path_seconds(&g) - 0.7).abs() < 1e-12);
    }
}
