//! `scale`: the design pipeline's public calls, timed above L = 16.
//!
//! ```text
//! cargo run --release -p exaclim-bench --bin scale -- \
//!     --point 64,365,64,dp --point 64,365,64,dp_hp --repeats 5
//! ```
//!
//! A point is `L,T,TILE,POLICY`: `T` daily steps of `small_daily(L)`
//! synthetic data and `EmulatorConfig::small(L)` with tile side `TILE` and
//! POLICY one of `dp`, `dp_sp`, `dp_sp_hp`, `dp_hp` (the paper's four
//! variants). Each (point, repeat) runs in a process of its own, one at a
//! time, the points interleaved within each repeat (`--repeats`, default
//! 5). The process times `train`, `to_snapshot`, `from_snapshot` and
//! `emulate(T)`, in that order, and reads its `VmHWM` after generating the
//! data and after each call.
//!
//! The report gives, per point, the median and interquartile range of
//! each time over the repeats, the median peaks, the snapshot container's
//! size over the data's `f64` bytes, the jitter over the mean diagonal of
//! `Û` with its rung count, and whether the longitude FFT
//! (`nphi = 2L + 1`) is direct or Bluestein; then `train`'s DP time over
//! each other policy's at the same `(L, T, TILE)`. A failed factorization
//! is an outcome in the report, not a crash. A point whose arithmetic peak
//! estimate exceeds `MemAvailable` is refused with the estimate and never
//! run. Without `--point` it runs the `emulator_design` benchmark's point,
//! `16,730,16,dp`.

use exaclim::{ClimateEmulator, EmulationError, EmulatorConfig, TrainedEmulator};
use exaclim_climate::{SyntheticEra5, SyntheticEra5Config};
use exaclim_fft::Fft;
use exaclim_linalg::precision::{Precision, Variant};
use exaclim_mathkit::stats::quantiles;
use exaclim_store::{ArchiveWriter, ByteCodec};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

const MIB: f64 = (1u64 << 20) as f64;

/// Resident bytes a point needs besides its buffers (code, pools, plans).
const BASE_BYTES: f64 = 64.0 * MIB;

/// One `L,T,TILE,POLICY` point.
#[derive(Debug, Clone, PartialEq)]
struct Point {
    lmax: usize,
    t_max: usize,
    tile: usize,
    variant: Variant,
}

const POLICIES: [(&str, Variant); 4] = [
    ("dp", Variant::Dp),
    ("dp_sp", Variant::DpSp),
    ("dp_sp_hp", Variant::DpSpHp),
    ("dp_hp", Variant::DpHp),
];

impl Point {
    fn parse(spec: &str) -> Result<Self, String> {
        let parts: Vec<&str> = spec.split(',').collect();
        let [l, t, b, policy] = parts[..] else {
            return Err(format!("point `{spec}` is not L,T,TILE,POLICY"));
        };
        let num = |s: &str, what: &str| {
            s.parse::<usize>()
                .map_err(|_| format!("point `{spec}`: {what} `{s}` is not a count"))
        };
        let variant = POLICIES
            .iter()
            .find(|(name, _)| *name == policy)
            .map(|&(_, v)| v)
            .ok_or_else(|| {
                format!("point `{spec}`: policy `{policy}` is not dp, dp_sp, dp_sp_hp or dp_hp")
            })?;
        let p = Self {
            lmax: num(l, "L")?,
            t_max: num(t, "T")?,
            tile: num(b, "TILE")?,
            variant,
        };
        p.config()
            .check()
            .map_err(|e| format!("point `{spec}`: {e}"))?;
        Ok(p)
    }

    /// The spec `parse` reads back, for the child process.
    fn spec(&self) -> String {
        let (name, _) = POLICIES
            .iter()
            .find(|(_, v)| *v == self.variant)
            .expect("every variant is named");
        format!("{},{},{},{name}", self.lmax, self.t_max, self.tile)
    }

    fn label(&self) -> String {
        format!(
            "L{} T{} b{} {}",
            self.lmax,
            self.t_max,
            self.tile,
            self.variant.label()
        )
    }

    fn config(&self) -> EmulatorConfig {
        let mut cfg = EmulatorConfig::small(self.lmax);
        cfg.tile = self.tile;
        cfg.precision = self
            .variant
            .policy(self.lmax * self.lmax / self.tile.max(1));
        cfg
    }

    /// `small_daily(L)`'s grid.
    fn grid(&self) -> (usize, usize) {
        let c = SyntheticEra5Config::small_daily(self.lmax);
        (c.ntheta, c.nphi)
    }
}

/// Arithmetic upper bound of a point's peak resident bytes, as `f64` so
/// no size overflows: three field-sized buffers (the data, the residuals
/// or the emulation, a synthesis batch), three series of coefficient
/// vectors (coefficients, their real vectors, innovations or the sampled
/// path), four `L² × L²` f64 squares (`Û`, the dense factor, its tiles and
/// packed copy, the snapshot payload and its container), and
/// [`BASE_BYTES`].
fn peak_estimate(p: &Point) -> f64 {
    let (ntheta, nphi) = p.grid();
    let field = (p.t_max * ntheta * nphi) as f64 * 8.0;
    let dim = (p.lmax * p.lmax) as f64;
    let series = p.t_max as f64 * dim * 8.0;
    let square = dim * dim * 8.0;
    3.0 * field + 3.0 * series + 4.0 * square + BASE_BYTES
}

/// The `MemAvailable` line of a `/proc/meminfo` text, in bytes.
fn mem_available(meminfo: &str) -> Option<f64> {
    let line = meminfo.lines().find(|l| l.starts_with("MemAvailable:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0)
}

/// Refuse a point whose estimate exceeds `MemAvailable`; with no
/// `/proc/meminfo` to read, admit it.
fn admit(estimate: f64, meminfo: Option<&str>) -> Result<(), String> {
    match meminfo.and_then(mem_available) {
        Some(available) if estimate > available => Err(format!(
            "estimated peak {:.0} MiB exceeds MemAvailable {:.0} MiB",
            estimate / MIB,
            available / MIB
        )),
        _ => Ok(()),
    }
}

/// This process's peak resident set (`VmHWM`) in MiB, 0 where unreadable.
fn vm_hwm_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `jitter ÷ mean diag(Û)` and the rungs of the jitter ladder that sum to
/// it. `V Vᵀ = Û + jitter·I` up to rounding, so the mean of `Û`'s diagonal
/// is that of `V Vᵀ` less the jitter; the ladder's first rung is that mean
/// times `max(1e-10, u_low)`, each next rung ten times the last.
fn jitter_rungs(em: &TrainedEmulator) -> (f64, usize) {
    let n = em.config.coeff_dim();
    let vvt: f64 = em
        .factor
        .chunks_exact(n)
        .enumerate()
        .map(|(i, row)| row[..=i].iter().map(|v| v * v).sum::<f64>())
        .sum::<f64>()
        / n as f64;
    let base = vvt - em.jitter;
    let nt = n / em.config.tile;
    let u_low = (0..nt)
        .flat_map(|i| (0..=i).map(move |j| (i, j)))
        .map(|(i, j)| em.config.precision.assign(i, j, 1.0))
        .min()
        .unwrap_or(Precision::Double)
        .unit_roundoff();
    let first = base * 1e-10f64.max(u_low);
    let rungs = if em.jitter == 0.0 {
        0
    } else {
        (9.0 * em.jitter / first + 1.0).log10().round() as usize
    };
    (em.jitter / base, rungs)
}

/// One (point, repeat) in this process: prints `key=value` lines as each
/// phase ends, the last one `outcome=…`.
fn run_child(p: &Point) {
    let emit = |key: &str, value: String| println!("{key}={value}");
    let data =
        SyntheticEra5::new(SyntheticEra5Config::small_daily(p.lmax)).generate_member(0, p.t_max);
    emit("data_bytes", (data.data.len() * 8).to_string());
    emit("hwm_data", vm_hwm_mib().to_string());

    let t = Instant::now();
    let em = match ClimateEmulator::train(&data, p.config()) {
        Ok(em) => em,
        Err(e @ EmulationError::Factorization(_)) => {
            return emit("outcome", format!("factorization error: {e}"));
        }
        Err(e) => return emit("outcome", format!("error: {e}")),
    };
    emit("train_ms", ms(t));
    emit("hwm_train", vm_hwm_mib().to_string());

    let t = Instant::now();
    let snapshot = em.to_snapshot();
    emit("snapshot_ms", ms(t));
    emit("hwm_snapshot", vm_hwm_mib().to_string());
    emit("payload_bytes", snapshot.payload.len().to_string());

    let t = Instant::now();
    let back = TrainedEmulator::from_snapshot(&snapshot);
    emit("load_ms", ms(t));
    emit("hwm_load", vm_hwm_mib().to_string());
    let same_bits = |a: &[f64], b: &[f64]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    match back {
        Ok(back) if same_bits(&back.factor, &em.factor) => {}
        Ok(_) => return emit("outcome", "error: the reloaded factor differs".into()),
        Err(e) => return emit("outcome", format!("error: {e}")),
    }

    let t = Instant::now();
    let emulation = em.emulate(p.t_max, 1);
    emit("emulate_ms", ms(t));
    emit("hwm_emulate", vm_hwm_mib().to_string());
    if let Err(e) = emulation {
        return emit("outcome", format!("error: {e}"));
    }

    // The container `TrainedEmulator::save` writes, built in memory.
    let container = ArchiveWriter::new(std::io::Cursor::new(Vec::new())).and_then(|mut w| {
        w.add_snapshot(
            &snapshot.name,
            snapshot.version,
            ByteCodec::Rle,
            &snapshot.payload,
            exaclim_store::snapshot::SNAPSHOT_CHUNK_BYTES,
        )?;
        w.finish()
    });
    match container {
        Ok((_, total)) => emit("container_bytes", total.to_string()),
        Err(e) => return emit("outcome", format!("error: {e}")),
    }
    let (ratio, rungs) = jitter_rungs(&em);
    emit("jitter_ratio", ratio.to_string());
    emit("rungs", rungs.to_string());
    emit("outcome", "ok".into());
}

fn ms(t: Instant) -> String {
    (t.elapsed().as_secs_f64() * 1e3).to_string()
}

/// One child's report: its `key=value` lines.
type Run = BTreeMap<String, String>;

fn spawn_child(p: &Point) -> Run {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let out = Command::new(exe).arg("--child").arg(p.spec()).output();
    let mut run: Run = BTreeMap::new();
    match out {
        Ok(out) => {
            for line in String::from_utf8_lossy(&out.stdout).lines() {
                if let Some((k, v)) = line.split_once('=') {
                    run.insert(k.to_string(), v.to_string());
                }
            }
            if !out.status.success() || !run.contains_key("outcome") {
                let stderr = String::from_utf8_lossy(&out.stderr);
                let last = stderr
                    .lines()
                    .rev()
                    .find(|l| !l.trim().is_empty())
                    .unwrap_or("");
                run.insert(
                    "outcome".into(),
                    format!("crashed ({}): {last}", out.status),
                );
            }
        }
        Err(e) => {
            run.insert("outcome".into(), format!("crashed: cannot start: {e}"));
        }
    }
    run
}

fn values(runs: &[Run], key: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get(key)?.parse().ok())
        .collect()
}

/// Median and interquartile range.
fn median_iqr(mut xs: Vec<f64>) -> Option<(f64, f64, f64)> {
    if xs.is_empty() {
        return None;
    }
    let q = quantiles(&mut xs, &[0.25, 0.5, 0.75]);
    Some((q[1], q[0], q[2]))
}

fn median(runs: &[Run], key: &str) -> Option<f64> {
    median_iqr(values(runs, key)).map(|(m, _, _)| m)
}

/// Milliseconds to three significant digits, or whole.
fn fmt_ms(x: f64) -> String {
    let decimals = if x < 10.0 {
        2
    } else if x < 100.0 {
        1
    } else {
        0
    };
    format!("{x:.decimals$}")
}

fn time_cell(runs: &[Run], key: &str) -> String {
    match median_iqr(values(runs, key)) {
        Some((m, lo, hi)) => format!("{} ms [{}–{}]", fmt_ms(m), fmt_ms(lo), fmt_ms(hi)),
        None => "—".into(),
    }
}

fn report(p: &Point, runs: &[Run]) {
    let (ntheta, nphi) = p.grid();
    let fft = if Fft::new(nphi).is_bluestein() {
        "Bluestein"
    } else {
        "direct"
    };
    let n = p.t_max.saturating_sub(p.config().var_order);
    let dim = p.lmax * p.lmax;
    println!(
        "{}: grid {ntheta}×{nphi}, nphi {nphi} {fft}; N = T − P = {n} {} L² = {dim}",
        p.label(),
        if n < dim { "<" } else { "≥" }
    );
    let ok: Vec<Run> = runs
        .iter()
        .filter(|r| r.get("outcome").map(String::as_str) == Some("ok"))
        .cloned()
        .collect();
    let mut outcomes: BTreeMap<&str, usize> = BTreeMap::new();
    for r in runs {
        *outcomes.entry(r["outcome"].as_str()).or_default() += 1;
    }
    let outcomes: Vec<String> = outcomes.iter().map(|(o, c)| format!("{c}× {o}")).collect();
    println!("  outcomes: {}", outcomes.join("; "));
    if ok.is_empty() {
        return;
    }
    for (name, key) in [
        ("train", "train_ms"),
        ("to_snapshot", "snapshot_ms"),
        ("from_snapshot", "load_ms"),
        ("emulate(T)", "emulate_ms"),
    ] {
        println!("  {name:<14} {}", time_cell(&ok, key));
    }
    let peaks: Vec<String> = [
        "hwm_data",
        "hwm_train",
        "hwm_snapshot",
        "hwm_load",
        "hwm_emulate",
    ]
    .iter()
    .map(|k| median(&ok, k).map_or("—".into(), |m| format!("{m:.0}")))
    .collect();
    println!(
        "  VmHWM MiB, median: data {} → train {} → to_snapshot {} → from_snapshot {} → emulate {}",
        peaks[0], peaks[1], peaks[2], peaks[3], peaks[4]
    );
    let field = |k: &str| median(&ok, k).unwrap_or(f64::NAN);
    let (container, data) = (field("container_bytes"), field("data_bytes"));
    println!(
        "  saved ÷ data {:.4} ({container:.0} B container, {:.0} B payload, {data:.0} B data)",
        container / data,
        field("payload_bytes")
    );
    println!(
        "  jitter ÷ mean diag(Û) {:.3e}, {} rung(s)",
        field("jitter_ratio"),
        field("rungs")
    );
}

/// Run and report every admitted point `repeats` times, admitting each
/// against `meminfo` (a `/proc/meminfo` text). Returns how many processes
/// ran, and whether each either succeeded or failed to factor.
fn run(points: &[Point], repeats: usize, meminfo: Option<&str>) -> (usize, bool) {
    let mut admitted = Vec::new();
    for p in points {
        match admit(peak_estimate(p), meminfo) {
            Ok(()) => admitted.push(p.clone()),
            Err(why) => println!("{}: refused, not run: {why}", p.label()),
        }
    }
    let mut runs: Vec<Vec<Run>> = vec![Vec::new(); admitted.len()];
    for r in 0..repeats {
        for (p, runs) in admitted.iter().zip(runs.iter_mut()) {
            eprintln!("scale: repeat {}/{repeats}, {}", r + 1, p.label());
            runs.push(spawn_child(p));
        }
    }
    println!("== scale: {repeats} process(es) per point, one at a time; times are median [IQR] ==");
    for (p, runs) in admitted.iter().zip(&runs) {
        report(p, runs);
    }
    let mut ladder = Vec::new();
    for (p, own) in admitted.iter().zip(&runs) {
        let dp = Point {
            variant: Variant::Dp,
            ..p.clone()
        };
        let Some(k) = admitted.iter().position(|q| *q == dp).filter(|_| *p != dp) else {
            continue;
        };
        let at = |runs: &[Run]| Some((median(runs, "train_ms")?, median(runs, "rungs")?));
        if let (Some((dp_ms, dp_rungs)), Some((own_ms, own_rungs))) = (at(&runs[k]), at(own)) {
            let rungs = if dp_rungs == own_rungs {
                "equal rung counts".to_string()
            } else {
                format!("unequal rung counts: DP {dp_rungs}, this {own_rungs}")
            };
            ladder.push(format!("  {}: {:.2}× ({rungs})", p.label(), dp_ms / own_ms));
        }
    }
    if !ladder.is_empty() {
        println!("== ladder: train's median time, DP ÷ policy at the same L, T, TILE ==");
        println!("{}", ladder.join("\n"));
    }
    let ok = runs.iter().flatten().all(|r| {
        let o = r["outcome"].as_str();
        o == "ok" || o.starts_with("factorization error")
    });
    (runs.iter().map(Vec::len).sum(), ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, spec] = &args[..] {
        if flag == "--child" {
            let p = Point::parse(spec).expect("the parent passes a parsed point");
            run_child(&p);
            return ExitCode::SUCCESS;
        }
    }
    let mut points = Vec::new();
    let mut repeats = 5usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = it.next();
        let parsed = match (arg.as_str(), value) {
            ("--point", Some(spec)) => Point::parse(spec).map(|p| points.push(p)),
            ("--repeats", Some(n)) => n
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .map(|n| repeats = n)
                .ok_or_else(|| format!("--repeats `{n}` is not a positive count")),
            _ => Err(format!("unknown or incomplete argument `{arg}`")),
        };
        if let Err(e) = parsed {
            eprintln!("scale: {e}\nusage: scale [--point L,T,TILE,POLICY]... [--repeats N]");
            return ExitCode::from(2);
        }
    }
    if points.is_empty() {
        points.push(Point::parse("16,730,16,dp").expect("the default point parses"));
    }
    let meminfo = std::fs::read_to_string("/proc/meminfo").ok();
    if run(&points, repeats, meminfo.as_deref()).1 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `/proc/meminfo` with 512 MiB available.
    const MEMINFO: &str = "MemTotal:       16479476 kB\nMemFree:          100000 kB\n\
                           MemAvailable:     524288 kB\nBuffers:            2048 kB\n";

    #[test]
    fn points_parse_and_name_themselves() {
        let p = Point::parse("64,365,128,dp_hp").unwrap();
        assert_eq!(
            (p.lmax, p.t_max, p.tile, p.variant),
            (64, 365, 128, Variant::DpHp)
        );
        assert_eq!(Point::parse(&p.spec()).unwrap(), p);
        assert_eq!(p.label(), "L64 T365 b128 DP/HP");
        assert_eq!(p.grid(), (66, 129));
        for bad in [
            "64,365,100,dp",
            "64,365,64,sp",
            "64,365,64",
            "64,x,64,dp",
            "1,10,1,dp",
        ] {
            assert!(Point::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn peak_estimate_is_its_arithmetic() {
        // L = 64, T = 365 on the 66 × 129 grid: three fields, three
        // coefficient series, four 4096² squares and the base.
        let p = Point::parse("64,365,64,dp").unwrap();
        let field = 365.0 * 66.0 * 129.0 * 8.0;
        let series = 365.0 * 4096.0 * 8.0;
        let square = 4096.0 * 4096.0 * 8.0;
        let want = 3.0 * field + 3.0 * series + 4.0 * square + BASE_BYTES;
        assert_eq!(peak_estimate(&p), want);
        assert_eq!((want / MIB).round(), 681.0);
        // The policy and the tile do not enter it.
        assert_eq!(
            peak_estimate(&Point::parse("64,365,128,dp_hp").unwrap()),
            want
        );
        // A point far past any memory does not overflow.
        let huge = Point::parse("100000,100000,100000,dp").unwrap();
        assert!(peak_estimate(&huge).is_finite() && peak_estimate(&huge) > 1e20);
    }

    #[test]
    fn points_over_mem_available_are_refused_and_never_run() {
        assert_eq!(mem_available(MEMINFO), Some(512.0 * MIB));
        let big = Point::parse("64,365,64,dp").unwrap();
        let err = admit(peak_estimate(&big), Some(MEMINFO)).unwrap_err();
        assert_eq!(err, "estimated peak 681 MiB exceeds MemAvailable 512 MiB");
        let small = Point::parse("16,730,16,dp").unwrap();
        assert!(admit(peak_estimate(&small), Some(MEMINFO)).is_ok());
        // Nothing to compare against: admitted.
        assert!(admit(f64::MAX, None).is_ok());
        assert!(admit(f64::MAX, Some("MemTotal: 1 kB\n")).is_ok());
        // Refused points start no process (in a test, a started one would
        // be this test binary, reported as a crash).
        assert_eq!(run(&[big.clone(), big], 3, Some(MEMINFO)), (0, true));
    }
}
