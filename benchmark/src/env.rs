//! The machine and process facts recorded beside every result.

use std::path::{Path, PathBuf};

/// Worker threads the harness pins the program to (`EXACLIM_THREADS` and
/// `EmulatorConfig::workers`): the reference box has two cores.
pub const THREADS: usize = 2;

/// Environment variables that switch the program under test onto another
/// code path; a run with any of them set would not be comparable.
const FORBIDDEN_ENV: [&str; 3] = ["EXACLIM_FAULTS", "EXACLIM_REACTOR", "EXACLIM_MMAP"];

/// Refuse to start under a path-switching variable, then pin the thread
/// count. Must run before anything touches the worker pool (it reads
/// `EXACLIM_THREADS` once, on first use) and before any thread exists.
pub fn pin_environment() -> Result<(), String> {
    for name in FORBIDDEN_ENV {
        if std::env::var_os(name).is_some() {
            return Err(format!(
                "{name} is set: it changes the code path under test; unset it"
            ));
        }
    }
    std::env::set_var("EXACLIM_THREADS", THREADS.to_string());
    Ok(())
}

/// The benchmark's own directory (where `out/` lives), fixed at build
/// time so the binary finds it from any working directory.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `out/` under the benchmark directory, created on demand.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Commit of the checkout the binary was built from, read straight from
/// `.git` (no subprocess); "unknown" outside a git checkout.
fn git_commit() -> String {
    let git = bench_dir().join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| reference.to_string())
}

/// One-line JSON object describing the machine, toolchain and checkout.
pub fn describe() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"EXACLIM_THREADS\": {THREADS}, \
         \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        cpu_model().replace(['"', '\\'], " "),
        env!("BENCH_RUSTC_VERSION"),
        git_commit().replace(['"', '\\'], " "),
    )
}
