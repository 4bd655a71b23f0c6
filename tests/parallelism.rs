//! Cross-crate parallelism integration: the shared pool's data
//! parallelism composing with the task-graph executor, and end-to-end
//! determinism of the training/emulation hot paths under real threads.

use exaclim::{ClimateEmulator, EmulatorConfig};
use exaclim_climate::{SyntheticEra5, SyntheticEra5Config};
use exaclim_runtime::graph::TaskKind;
use exaclim_runtime::{cholesky_graph, pool, Executor, TaskGraph};
use parking_lot::Mutex;
use std::sync::Barrier;

/// Pool calls from inside executor tasks must complete without deadlock:
/// every executor lane, the caller's included, runs its task bodies with
/// nested pool calls forced inline, so a task never waits on the pool and
/// never picks up a queued lane of its own run.
#[test]
fn pool_calls_inside_executor_tasks_complete() {
    let ntasks = 16usize;
    let mut g = TaskGraph::new();
    for i in 0..ntasks as u64 {
        g.add(TaskKind::Generic(i), 0, &[]);
    }
    let results = Mutex::new(vec![0u64; ntasks]);
    Executor::new(4)
        .run(&g, |id, _| {
            // Data-parallel work nested inside a task-parallel task.
            let data = pool::global().map(512, |i| (i + id) as u64);
            let partials = pool::global().map(data.len() / 64, |c| {
                data[c * 64..(c + 1) * 64].iter().sum::<u64>()
            });
            let total: u64 = partials.iter().sum();
            results.lock()[id] = total;
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{e}"));
    for (id, &total) in results.lock().iter().enumerate() {
        let expect: u64 = (0..512u64).map(|i| i + id as u64).sum();
        assert_eq!(total, expect, "task {id}");
    }
}

/// Four plain threads run task graphs on the shared pool at the same time,
/// every task making a nested pool call: each run completes, and every
/// task's result is right, while the callers' waits run each other's queued
/// lanes. A nested call that waited on the pool could hang here.
#[test]
fn concurrent_executor_runs_with_nested_pool_calls_complete() {
    let callers = 4u64;
    let start = Barrier::new(callers as usize);
    std::thread::scope(|s| {
        for caller in 0..callers {
            let start = &start;
            s.spawn(move || {
                start.wait();
                for round in 0..8u64 {
                    let g = cholesky_graph(6);
                    let results = Mutex::new(vec![0u64; g.len()]);
                    let seed = caller * 1000 + round;
                    Executor::new(4)
                        .run(&g, |id, _| {
                            let total: u64 = pool::global()
                                .map(256, |i| i as u64 * seed + id as u64)
                                .iter()
                                .sum();
                            results.lock()[id] = total;
                            Ok(())
                        })
                        .unwrap_or_else(|e| panic!("caller {caller}: {e}"));
                    for (id, &total) in results.lock().iter().enumerate() {
                        let expect: u64 = (0..256u64).map(|i| i * seed + id as u64).sum();
                        assert_eq!(total, expect, "caller {caller}, round {round}, task {id}");
                    }
                }
            });
        }
    });
}

/// Training and emulation run on the shared pool across every stage (trend
/// fit, SHT batches, coefficient paths); for a fixed dataset and seed two
/// runs at one pool size must be bit-identical. (Across pool sizes, CI runs
/// the bit-pinned goldens at `EXACLIM_THREADS` 1 and 4.)
#[test]
fn training_and_emulation_are_deterministic_under_parallelism() {
    let generator = SyntheticEra5::new(SyntheticEra5Config::small_daily(12));
    let training = generator.generate_member(0, 2 * 365);
    let a = ClimateEmulator::train(&training, EmulatorConfig::small(8)).unwrap();
    let b = ClimateEmulator::train(&training, EmulatorConfig::small(8)).unwrap();
    assert_eq!(a.factor.len(), b.factor.len());
    for (i, (x, y)) in a.factor.iter().zip(&b.factor).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "factor element {i}");
    }
    for (p, (x, y)) in a.trend.iter().zip(&b.trend).enumerate() {
        assert_eq!(x.sigma.to_bits(), y.sigma.to_bits(), "sigma at {p}");
        assert_eq!(x.beta1.to_bits(), y.beta1.to_bits(), "beta1 at {p}");
    }
    for (i, (x, y)) in a.v2.iter().zip(&b.v2).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "v2 at {i}");
    }
    let ea = a.emulate(120, 9).unwrap();
    let eb = b.emulate(120, 9).unwrap();
    for (i, (x, y)) in ea.data.iter().zip(&eb.data).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "emulated value {i}");
    }
}

/// The SHT batch entry points distribute time slices over the pool; each
/// slice must match the sequential single-slice transform exactly.
#[test]
fn parallel_sht_batches_match_single_slice_transforms() {
    use exaclim_sht::{analysis_batch, ShtPlan};
    let plan = ShtPlan::equiangular(8, 12, 20);
    let n = plan.field_len();
    let t = 24;
    let data: Vec<f64> = (0..n * t)
        .map(|i| (i as f64 * 0.37).sin() + (i as f64 * 0.011).cos())
        .collect();
    let batch = analysis_batch(&plan, &data, t);
    for (k, coeffs) in batch.iter().enumerate() {
        let single = plan.analysis(&data[k * n..(k + 1) * n]);
        assert!(
            coeffs.max_abs_diff(&single) == 0.0,
            "slice {k} differs from the sequential transform"
        );
    }
}
