//! The span recorder of the traced run.
//!
//! Spans are taken from *outside* the program under test: the harness
//! brackets each call into a layer's public functions. They are kept in
//! memory and written to `out/trace-<workload>.json` when the run ends.
//! When tracing is off every call here is one branch, so the same harness
//! code runs in both modes.

use std::collections::BTreeMap;
use std::time::Instant;

/// `op` value of spans recorded during set-up (warm-up included).
pub const SETUP_OP: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `store.decode`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// Index of the timed op this span belongs to, or [`SETUP_OP`].
    pub op: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    /// A recorder; with `enabled == false` nothing is ever stored.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: SETUP_OP,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pause or resume recording (no span may be open).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggle the recorder between spans");
        self.enabled = enabled;
    }

    /// Attribute the spans that follow to op `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; the innermost open span becomes its parent.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(u32::MAX);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Close the span `open`, which must be the innermost open one.
    pub fn exit(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost-first");
        self.spans[open.0 as usize].end_ns = end_ns;
    }

    /// Record a span around `f`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-op total of the spans called `name`, in milliseconds, for the
    /// ops of the timed phase (set-up spans are left out). Ops in which
    /// the span never ran do not appear.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut per_op: BTreeMap<u32, u64> = BTreeMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| s.name == name && s.op != SETUP_OP)
        {
            *per_op.entry(s.op).or_default() += s.dur_ns();
        }
        per_op.values().map(|&ns| ns as f64 / 1e6).collect()
    }

    /// Median over ops of [`Tracer::per_op_ms`], or 0 when the span never
    /// ran in the timed phase.
    pub fn p50_ms(&self, name: &str) -> f64 {
        let v = self.per_op_ms(name);
        if v.is_empty() {
            0.0
        } else {
            crate::stats::median(&v)
        }
    }

    /// Total milliseconds of the set-up spans called `name`.
    pub fn setup_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.op == SETUP_OP)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum()
    }

    /// Render the trace as JSON: a name table plus one
    /// `[name, start_ns, end_ns, parent, op, self_ns]` row per span
    /// (`parent` and `op` are `-1` for "none" / set-up).
    pub fn to_json(&self, header: &str) -> String {
        let mut names: Vec<&'static str> = Vec::new();
        let mut index: BTreeMap<&'static str, usize> = BTreeMap::new();
        for s in &self.spans {
            index.entry(s.name).or_insert_with(|| {
                names.push(s.name);
                names.len() - 1
            });
        }
        let selfs = self_ns(&self.spans);
        let mut out = String::with_capacity(64 + self.spans.len() * 48);
        out.push_str("{\n");
        out.push_str(header);
        out.push_str(
            "\"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"op\", \"self_ns\"],\n",
        );
        out.push_str("\"names\": [");
        for (i, n) in names.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{n}\""));
        }
        out.push_str("],\n\"spans\": [\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            let op = if s.op == SETUP_OP {
                -1
            } else {
                i64::from(s.op)
            };
            out.push_str(&format!(
                "[{},{},{},{},{},{}]{}\n",
                index[s.name],
                s.start_ns,
                s.end_ns,
                parent,
                op,
                self_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children (children never overlap — one thread records them).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p as usize] = out[p as usize].saturating_sub(s.dur_ns());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, op: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_is_parent_minus_direct_children() {
        // op [0, 100) ─ a [10, 40) ─ a1 [15, 25)
        //              └ b [50, 90)
        let spans = vec![
            span("op", 0, 100, None, 0),
            span("a", 10, 40, Some(0), 0),
            span("a1", 15, 25, Some(1), 0),
            span("b", 50, 90, Some(0), 0),
        ];
        assert_eq!(self_ns(&spans), vec![100 - 30 - 40, 30 - 10, 10, 40]);
    }

    #[test]
    fn recorder_nests_and_attributes_ops() {
        let mut t = Tracer::new(true);
        let warm = t.enter("x");
        t.exit(warm);
        t.set_op(3);
        let outer = t.enter("op");
        t.time("x", || std::hint::black_box(1 + 1));
        t.time("x", || std::hint::black_box(2 + 2));
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].op, s[0].parent), (SETUP_OP, None));
        assert_eq!((s[2].op, s[2].parent), (3, Some(1)));
        assert_eq!(s[3].parent, Some(1));
        // Two `x` spans in op 3 collapse into one per-op total; the set-up
        // one is not an op.
        assert_eq!(t.per_op_ms("x").len(), 1);
        assert!(t.to_json("").contains("\"names\": [\"x\", \"op\"]"));
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut t = Tracer::new(false);
        let o = t.enter("op");
        assert_eq!(t.time("x", || 7), 7);
        t.exit(o);
        assert!(t.spans().is_empty());
        assert_eq!(t.p50_ms("x"), 0.0);
    }
}
