//! Task graphs: nodes, dependences, priorities, and the tile-Cholesky PTG.

/// Identifier of a task within one [`TaskGraph`].
pub type TaskId = usize;

/// The four kernel types of the Cholesky DAG plus a generic label for
/// user-built graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Diagonal factorization at panel `k`.
    Potrf {
        /// Panel index.
        k: usize,
    },
    /// Panel solve of tile `(i, k)`.
    Trsm {
        /// Row tile.
        i: usize,
        /// Panel index.
        k: usize,
    },
    /// Symmetric rank-k update of diagonal tile `(i, i)` by panel `k`.
    Syrk {
        /// Diagonal tile.
        i: usize,
        /// Panel index.
        k: usize,
    },
    /// Trailing update of tile `(i, j)` by panel `k`.
    Gemm {
        /// Row tile.
        i: usize,
        /// Column tile.
        j: usize,
        /// Panel index.
        k: usize,
    },
    /// Anything else.
    Generic(u64),
}

/// One node of the DAG.
#[derive(Debug, Clone)]
pub struct TaskNode {
    /// What the task is (for tracing and the executor callback).
    pub kind: TaskKind,
    /// Larger runs earlier under the priority scheduler.
    pub priority: i64,
    /// Tasks unblocked by this one.
    pub successors: Vec<TaskId>,
    /// Number of uncompleted predecessors.
    pub indegree: usize,
}

/// A static task DAG. Built once, executed by [`crate::executor::Executor`].
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    nodes: Vec<TaskNode>,
}

impl TaskGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a task with dependences on earlier tasks. Returns its id.
    pub fn add(&mut self, kind: TaskKind, priority: i64, deps: &[TaskId]) -> TaskId {
        let id = self.nodes.len();
        for &d in deps {
            assert!(d < id, "dependence on a later task ({d} >= {id})");
            self.nodes[d].successors.push(id);
        }
        self.nodes.push(TaskNode {
            kind,
            priority,
            successors: Vec::new(),
            indegree: deps.len(),
        });
        id
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow a node.
    pub fn node(&self, id: TaskId) -> &TaskNode {
        &self.nodes[id]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[TaskNode] {
        &self.nodes
    }

    /// Ids of tasks with no predecessors.
    pub fn roots(&self) -> Vec<TaskId> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].indegree == 0)
            .collect()
    }

    /// Verify the graph is acyclic and indegrees are consistent (debug aid;
    /// `add` cannot create cycles because deps must precede).
    pub fn validate(&self) -> bool {
        let mut indeg = vec![0usize; self.nodes.len()];
        for n in &self.nodes {
            for &s in &n.successors {
                indeg[s] += 1;
            }
        }
        indeg
            .iter()
            .zip(&self.nodes)
            .all(|(computed, node)| *computed == node.indegree)
    }
}

/// Build the right-looking tile-Cholesky DAG for `nt × nt` tiles — the
/// parametrized task graph PaRSEC expresses in its DSL (§II.D).
///
/// Dependences (data-flow on tile versions):
/// * `POTRF(k)` after the last update of tile `(k,k)`: `SYRK(k, k−1)`;
/// * `TRSM(i,k)` after `POTRF(k)` and the last update of `(i,k)`:
///   `GEMM(i,k,k−1)`;
/// * `SYRK(i,k)` after `TRSM(i,k)` and `SYRK(i,k−1)` (same-tile ordering);
/// * `GEMM(i,j,k)` after `TRSM(i,k)`, `TRSM(j,k)`, `GEMM(i,j,k−1)`.
///
/// Priorities follow the critical path: panel tasks of earlier `k` run
/// first, `POTRF > TRSM > SYRK > GEMM` within a panel.
pub fn cholesky_graph(nt: usize) -> TaskGraph {
    assert!(nt >= 1);
    let mut g = TaskGraph::new();
    // Task-id lookup tables.
    let mut potrf = vec![usize::MAX; nt];
    let mut trsm = vec![usize::MAX; nt * nt]; // (i, k)
    let mut syrk = vec![usize::MAX; nt * nt]; // (i, k)
    let mut gemm = vec![usize::MAX; nt * nt * nt]; // (i, j, k)
    let pr = |k: usize, boost: i64| -> i64 { ((nt - k) as i64) * 4 + boost };
    for k in 0..nt {
        let mut deps = Vec::new();
        if k > 0 {
            deps.push(syrk[k * nt + (k - 1)]);
        }
        potrf[k] = g.add(TaskKind::Potrf { k }, pr(k, 3), &deps);
        for i in k + 1..nt {
            let mut deps = vec![potrf[k]];
            if k > 0 {
                deps.push(gemm[(i * nt + k) * nt + (k - 1)]);
            }
            trsm[i * nt + k] = g.add(TaskKind::Trsm { i, k }, pr(k, 2), &deps);
        }
        for i in k + 1..nt {
            let mut deps = vec![trsm[i * nt + k]];
            if k > 0 {
                deps.push(syrk[i * nt + (k - 1)]);
            }
            syrk[i * nt + k] = g.add(TaskKind::Syrk { i, k }, pr(k, 1), &deps);
            for j in k + 1..i {
                let mut deps = vec![trsm[i * nt + k], trsm[j * nt + k]];
                if k > 0 {
                    deps.push(gemm[(i * nt + j) * nt + (k - 1)]);
                }
                gemm[(i * nt + j) * nt + k] = g.add(TaskKind::Gemm { i, j, k }, pr(k, 0), &deps);
            }
        }
    }
    g
}

/// The oracle of `cholesky_graph`'s dependence depth in the tests below.
#[cfg(test)]
impl TaskGraph {
    /// Length (in tasks) of the longest dependence chain — the abstract
    /// critical path.
    fn critical_path_len(&self) -> usize {
        let mut depth = vec![0usize; self.nodes.len()];
        let mut best = 0;
        for id in 0..self.nodes.len() {
            let d = depth[id] + 1;
            best = best.max(d);
            for &s in &self.nodes[id].successors {
                depth[s] = depth[s].max(d);
            }
        }
        best
    }
}

/// Expected task count of `cholesky_graph`: `nt` POTRF,
/// `nt(nt−1)/2` TRSM + SYRK each, `nt(nt−1)(nt−2)/6` GEMM. The oracle of
/// the tests below and in `cholesky_par`.
#[cfg(test)]
pub(crate) fn cholesky_task_count(nt: usize) -> usize {
    let gemms = if nt >= 3 {
        nt * (nt - 1) * (nt - 2) / 6
    } else {
        0
    };
    nt + nt * (nt - 1) + gemms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_dependences() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskKind::Generic(0), 0, &[]);
        let b = g.add(TaskKind::Generic(1), 0, &[a]);
        let c = g.add(TaskKind::Generic(2), 0, &[a, b]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.roots(), vec![a]);
        assert_eq!(g.node(c).indegree, 2);
        assert_eq!(g.node(a).successors, vec![b, c]);
        assert!(g.validate());
        assert_eq!(g.critical_path_len(), 3);
    }

    #[test]
    #[should_panic(expected = "later task")]
    fn forward_dependence_rejected() {
        let mut g = TaskGraph::new();
        let _ = g.add(TaskKind::Generic(0), 0, &[3]);
    }

    #[test]
    fn cholesky_graph_task_counts() {
        for nt in 1..=8 {
            let g = cholesky_graph(nt);
            assert_eq!(g.len(), cholesky_task_count(nt), "nt={nt}");
            assert!(g.validate(), "nt={nt}");
        }
    }

    #[test]
    fn cholesky_graph_has_single_root() {
        let g = cholesky_graph(6);
        let roots = g.roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(g.node(roots[0]).kind, TaskKind::Potrf { k: 0 });
    }

    #[test]
    fn cholesky_critical_path_is_linear_in_nt() {
        // The critical path of tile Cholesky is Θ(nt): POTRF(k) → TRSM(k+1,k)
        // → SYRK(k+1,k) → POTRF(k+1) → … (3 tasks per panel).
        for nt in [2usize, 4, 8, 12] {
            let g = cholesky_graph(nt);
            let cp = g.critical_path_len();
            assert_eq!(cp, 3 * (nt - 1) + 1, "nt={nt}: cp={cp}");
        }
    }

    #[test]
    fn priorities_prefer_earlier_panels() {
        let g = cholesky_graph(6);
        let mut potrf0 = None;
        let mut gemm_late = None;
        for n in g.nodes() {
            match n.kind {
                TaskKind::Potrf { k: 0 } => potrf0 = Some(n.priority),
                TaskKind::Gemm { k: 3, .. } => gemm_late = Some(n.priority),
                _ => {}
            }
        }
        assert!(potrf0.unwrap() > gemm_late.unwrap());
    }
}
