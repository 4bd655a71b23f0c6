//! The closed-loop driver shared by all workloads.
//!
//! One caller, one op at a time, a fixed *count* of ops (so the program's
//! own counters repeat exactly from run to run). Each op is timed alone;
//! verification, the machine canary and — in a traced run — the layer
//! replay all happen between ops, outside the timed interval.

use crate::stats;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed of the data generator and the request windows.
    pub seed: u64,
    /// Nominal length of the timed phase; op counts scale with it.
    pub seconds: u64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Counts ÷ 50: a smoke run, not a measurement.
    pub quick: bool,
}

/// Op counts of one workload at the reference 15 s (`--seconds 15`).
///
/// `timed` is sized so the timed phase lasts a little over 15 s on the
/// 2-core reference box and yields at least 30 latency samples; `warmup`
/// is a fixed count executed inside set-up so that set-up lasts at least
/// 2.5 s (shorter set-ups repeat badly) and ends with the program warm.
#[derive(Debug, Clone, Copy)]
pub struct BaseCounts {
    /// Timed ops at 15 s.
    pub timed: usize,
    /// Warm-up ops inside set-up.
    pub warmup: usize,
}

/// Op counts of this run.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    /// Ops of the timed phase.
    pub timed: usize,
    /// Warm-up ops inside set-up.
    pub warmup: usize,
    /// Untraced ops run first in a traced run, as the overhead reference.
    pub reference: usize,
}

impl Counts {
    /// Scale the base counts to this run.
    ///
    /// * untraced: `timed · seconds/15` ops;
    /// * traced: a quarter of that (the replay between ops costs about as
    ///   much as the ops), preceded by an eighth run untraced;
    /// * quick: everything ÷ 50.
    pub fn resolve(base: BaseCounts, args: &RunArgs) -> Self {
        let div = if args.quick { 50 } else { 1 };
        let full = (base.timed * args.seconds as usize).div_ceil(15);
        let timed = if args.trace { full.div_ceil(4) } else { full };
        Self {
            timed: timed.div_ceil(div).max(1),
            warmup: base.warmup.div_ceil(div),
            reference: if args.trace {
                full.div_ceil(8).div_ceil(div).max(1)
            } else {
                0
            },
        }
    }
}

/// Quality numbers a workload reports when it finishes.
#[derive(Debug, Clone, Default)]
pub struct Quality {
    /// Bytes the system stores per byte of user data it stands for.
    pub stored_bytes_per_user_byte: f64,
    /// Relative error of what the system returns against its source.
    pub rel_error: f64,
    /// Broken workload invariants (empty on a correct run).
    pub violations: Vec<String>,
    /// Timing-based consistency checks of the trace that did not hold.
    /// They depend on the box, so they are reported, not failed on.
    pub warnings: Vec<String>,
}

/// Per-layer metric values by name.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// One benchmark workload.
pub trait Workload: Sized {
    /// What an op returns and verification consumes.
    type Output;

    /// Base op counts (see [`BaseCounts`]).
    const BASE: BaseCounts;

    /// Everything before the first timed op: generate inputs from `seed`,
    /// build the system, compute the oracle, run `warmup` ops.
    fn setup(seed: u64, warmup: usize, tr: &mut Tracer) -> Result<Self, String>;

    /// Called once, right before the first timed op (counter snapshots).
    fn begin_timed(&mut self) {}

    /// Op `i`; the caller times exactly this call.
    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<Self::Output, String>;

    /// Check op `i`'s output against the oracle. Untimed.
    fn verify(&mut self, i: usize, out: Self::Output, traced: bool) -> bool;

    /// Traced runs only: re-run op `i`'s layers one by one under spans.
    fn replay(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String>;

    /// Quality numbers and per-layer values after `timed` ops.
    fn finish(self, timed: usize, tr: &Tracer, layer: &mut LayerValues) -> Result<Quality, String>;
}

/// A fixed dependent multiply–add chain: the machine canary. It touches no
/// memory and no code under test, so if its time moves, the box moved.
pub fn spin_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = std::hint::black_box(0.5f64);
    for _ in 0..2_000_000u32 {
        x = x * 0.999_999_9 + 1e-7;
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Everything one run measured.
#[derive(Debug)]
pub struct RunReport {
    /// The resolved op counts.
    pub counts: Counts,
    /// Ops attempted (reference ops of a traced run included).
    pub attempted: usize,
    /// Ops that errored or failed verification.
    pub failed: usize,
    /// Failed ops and invariant violations, for the log.
    pub problems: Vec<String>,
    /// Trace consistency warnings (see [`Quality::warnings`]).
    pub warnings: Vec<String>,
    /// End-to-end values by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (every name of the table present).
    pub layer: LayerValues,
    /// The recorder, for the trace file.
    pub tracer: Tracer,
}

struct Phase {
    samples_ms: Vec<f64>,
    verify_ms: f64,
    failed: usize,
    problems: Vec<String>,
}

/// Run ops `first..first + n`: time each alone, verify it after, and in a
/// traced phase replay its layers before moving on.
fn run_phase<W: Workload>(
    w: &mut W,
    tr: &mut Tracer,
    first: usize,
    n: usize,
    spins: &mut Vec<f64>,
) -> Result<Phase, String> {
    let traced = tr.enabled();
    let spin_every = n.div_ceil(32).max(1);
    let mut phase = Phase {
        samples_ms: Vec::with_capacity(n),
        verify_ms: 0.0,
        failed: 0,
        problems: Vec::new(),
    };
    for i in first..first + n {
        if (i - first).is_multiple_of(spin_every) {
            spins.push(spin_ms());
        }
        tr.set_op(i as u32);
        let open = tr.enter("op");
        let t0 = Instant::now();
        let out = w.op(i, tr);
        let dt = t0.elapsed();
        tr.exit(open);
        let v0 = Instant::now();
        let ok = match out {
            Ok(out) => w.verify(i, out, traced),
            Err(e) => {
                phase.problems.push(format!("op {i}: {e}"));
                false
            }
        };
        phase.verify_ms += v0.elapsed().as_secs_f64() * 1e3;
        if ok {
            phase.samples_ms.push(dt.as_secs_f64() * 1e3);
        } else {
            phase.failed += 1;
            if phase.problems.len() < 8 {
                phase.problems.push(format!("op {i} failed verification"));
            }
        }
        if traced {
            w.replay(i, tr)?;
        }
    }
    Ok(phase)
}

/// Run workload `W` as `args` describes.
pub fn run<W: Workload>(args: &RunArgs) -> Result<RunReport, String> {
    let counts = Counts::resolve(W::BASE, args);
    let mut tr = Tracer::new(args.trace);

    // Set-up runs once: repeating it for a median would push the driver's
    // 114-run session past its time limit whenever the box has a slow hour.
    // What steadies `setup_s` instead is its length — the fixed-count
    // warm-up keeps it above 2.5 s.
    let t0 = Instant::now();
    let mut w = W::setup(args.seed, counts.warmup, &mut tr)?;
    let setup_s = t0.elapsed().as_secs_f64();

    let mut spins = Vec::new();
    // Traced runs first measure the same ops with the recorder off: the
    // difference to the traced median is the tracing overhead.
    let reference = if args.trace {
        tr.set_enabled(false);
        let phase = run_phase(&mut w, &mut tr, 0, counts.reference, &mut spins)?;
        tr.set_enabled(true);
        Some(phase)
    } else {
        None
    };
    w.begin_timed();
    let phase = run_phase(&mut w, &mut tr, counts.reference, counts.timed, &mut spins)?;

    let mut layer: LayerValues = crate::spec::PER_LAYER
        .iter()
        .map(|&(n, _)| (n, 0.0))
        .collect();
    let quality = w.finish(counts.timed, &tr, &mut layer)?;
    let peak_rss_mib = crate::env::peak_rss_mib();

    let mut problems = phase.problems;
    let mut attempted = counts.timed;
    let mut failed = phase.failed;
    if let Some(r) = &reference {
        attempted += counts.reference;
        failed += r.failed;
        problems.extend(r.problems.iter().cloned());
    }
    problems.extend(quality.violations.iter().cloned());

    let sorted = stats::sorted(&phase.samples_ms);
    let (p50, p95, max, iqr) = if sorted.is_empty() {
        (0.0, 0.0, 0.0, 0.0)
    } else {
        (
            stats::percentile_sorted(&sorted, 0.5),
            stats::percentile_sorted(&sorted, 0.95),
            sorted[sorted.len() - 1],
            stats::iqr_share(&sorted),
        )
    };
    let sum_s: f64 = phase.samples_ms.iter().sum::<f64>() / 1e3;

    let mut end_to_end = BTreeMap::new();
    end_to_end.insert(
        "ops_per_s",
        if sum_s > 0.0 {
            sorted.len() as f64 / sum_s
        } else {
            0.0
        },
    );
    end_to_end.insert("op_p50_ms", p50);
    end_to_end.insert("setup_s", setup_s);
    end_to_end.insert("peak_rss_mib", peak_rss_mib);
    end_to_end.insert(
        "stored_bytes_per_user_byte",
        quality.stored_bytes_per_user_byte,
    );
    end_to_end.insert("rel_error", quality.rel_error);

    layer.insert("machine.spin_p50_ms", stats::median(&spins));
    layer.insert("machine.spin_iqr_share", stats::iqr_share(&spins));
    layer.insert("harness.op_p95_ms", p95);
    layer.insert("harness.op_max_ms", max);
    layer.insert("harness.op_iqr_share", iqr);
    layer.insert("harness.verify_ms", phase.verify_ms / counts.timed as f64);
    layer.insert("harness.op_samples", sorted.len() as f64);
    if let Some(r) = reference.filter(|r| !r.samples_ms.is_empty()) {
        let plain = stats::median(&r.samples_ms);
        layer.insert("harness.trace_overhead_share", (p50 - plain) / plain);
    }

    Ok(RunReport {
        counts,
        attempted,
        failed,
        problems,
        warnings: quality.warnings,
        end_to_end,
        layer,
        tracer: tr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(trace: bool, quick: bool, seconds: u64) -> RunArgs {
        RunArgs {
            workload: "x".to_string(),
            seed: 1,
            seconds,
            trace,
            quick,
        }
    }

    #[test]
    fn counts_scale_with_seconds_trace_and_quick() {
        let base = BaseCounts {
            timed: 4800,
            warmup: 700,
        };
        let c = Counts::resolve(base, &args(false, false, 15));
        assert_eq!((c.timed, c.warmup, c.reference), (4800, 700, 0));
        let c = Counts::resolve(base, &args(false, false, 30));
        assert_eq!(c.timed, 9600);
        let c = Counts::resolve(base, &args(true, false, 15));
        assert_eq!((c.timed, c.reference), (1200, 600));
        let c = Counts::resolve(base, &args(false, true, 15));
        assert_eq!((c.timed, c.warmup), (96, 14));
        // Never zero ops, however small the request.
        let tiny = BaseCounts {
            timed: 30,
            warmup: 1,
        };
        let c = Counts::resolve(tiny, &args(true, true, 1));
        assert_eq!((c.timed, c.reference, c.warmup), (1, 1, 1));
    }

    /// A workload whose op returns `i` and whose oracle expects `i`,
    /// except that one oracle entry has a single bit flipped.
    struct Flipped {
        oracle: Vec<u64>,
    }

    impl Workload for Flipped {
        type Output = u64;
        const BASE: BaseCounts = BaseCounts {
            timed: 40,
            warmup: 0,
        };
        fn setup(_seed: u64, _warmup: usize, _tr: &mut Tracer) -> Result<Self, String> {
            let mut oracle: Vec<u64> = (0..40).collect();
            oracle[17] ^= 1 << 40;
            Ok(Self { oracle })
        }
        fn op(&mut self, i: usize, _tr: &mut Tracer) -> Result<u64, String> {
            Ok(i as u64)
        }
        fn verify(&mut self, i: usize, out: u64, _traced: bool) -> bool {
            out == self.oracle[i]
        }
        fn replay(&mut self, _i: usize, _tr: &mut Tracer) -> Result<(), String> {
            Ok(())
        }
        fn finish(self, _t: usize, _tr: &Tracer, _l: &mut LayerValues) -> Result<Quality, String> {
            Ok(Quality::default())
        }
    }

    #[test]
    fn one_flipped_oracle_bit_is_one_failed_op_without_a_latency_sample() {
        let report = run::<Flipped>(&args(false, false, 15)).unwrap();
        assert_eq!((report.attempted, report.failed), (40, 1));
        assert_eq!(report.layer["harness.op_samples"], 39.0);
        assert!(report.problems.iter().any(|p| p.contains("op 17")));
    }
}
