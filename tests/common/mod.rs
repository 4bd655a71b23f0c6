//! The serve suites' shared fixture: one archive, one emulator, one
//! in-process oracle, and the seeded request generator whose batches
//! [`conformance`] checks against the oracle on every configuration.
#![allow(dead_code)] // each suite uses a subset

pub mod conformance;

use exaclim::{ClimateEmulator, EmulatorConfig, TrainedEmulator};
use exaclim_climate::{SyntheticEra5, SyntheticEra5Config};
use exaclim_runtime::faults;
use exaclim_serve::wire;
use exaclim_serve::{
    Catalog, CatalogQuery, NetConfig, NetServer, NetServerHandle, ProductDescriptor, ProductSource,
    ProductStat, Request, Response, ScenarioSpec, ServeConfig, ServeError, ServedArchive, Server,
    SliceRequest,
};
use exaclim_store::{ArchiveWriter, Codec, FieldMeta};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::io::Cursor;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

pub const ARCHIVE: &str = "a";
pub const EMULATOR: &str = "em";
pub const MEMBERS: [&str; 2] = ["t2m", "u10"];
pub const VPS: usize = 10;
pub const T_MAX: u64 = 64;
pub const CHUNK_T: usize = 9;

/// One answer of a served batch.
pub type Reply = Result<Response, ServeError>;

/// Members `t2m` and `u10`: `vps` values per step over `t_max` steps in
/// `chunk_t`-step chunks, on two rings with real time metadata (`tau`,
/// `start_year`) so trend products are well-posed.
pub fn build_archive(vps: usize, t_max: u64, chunk_t: usize, codecs: [Codec; 2]) -> Vec<u8> {
    let meta = FieldMeta {
        ntheta: 2,
        nphi: vps / 2,
        start_year: 2000,
        tau: 365,
    };
    let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
    for ((name, codec), phase) in MEMBERS.into_iter().zip(codecs).zip([0.0, 2.3]) {
        let data: Vec<f64> = (0..vps * t_max as usize)
            .map(|i| 260.0 + 25.0 * (i as f64 * 0.017 + phase).sin())
            .collect();
        w.add_field(name, codec, meta, vps, chunk_t, &data).unwrap();
    }
    w.finish().unwrap().0.into_inner()
}

/// The fixture archive.
pub fn archive_bytes() -> Vec<u8> {
    build_archive(VPS, T_MAX, CHUNK_T, [Codec::F32Shuffle, Codec::Raw64])
}

/// The fixture emulator, trained once per test binary.
pub fn emulator() -> &'static TrainedEmulator {
    static EMULATOR: OnceLock<TrainedEmulator> = OnceLock::new();
    EMULATOR.get_or_init(|| {
        let training =
            SyntheticEra5::new(SyntheticEra5Config::small_daily(12)).generate_member(0, 2 * 365);
        ClimateEmulator::train(&training, EmulatorConfig::small(8)).unwrap()
    })
}

/// A catalog holding the fixture emulator and whatever archive `open`
/// opens (under [`ARCHIVE`], by convention).
pub fn catalog_with(
    open: impl FnOnce(&mut Catalog) -> Result<&ServedArchive, ServeError>,
) -> Catalog {
    let mut catalog = Catalog::new();
    open(&mut catalog).unwrap();
    catalog
        .register_emulator(EMULATOR, emulator().clone())
        .unwrap();
    catalog
}

/// The fixture catalog: the archive in memory, plus the emulator.
pub fn catalog() -> Catalog {
    catalog_with(|c| c.open_archive_bytes(ARCHIVE, archive_bytes()))
}

/// The oracle every served configuration must match bit for bit:
/// in-process `handle_batch` over the fixture catalog.
pub fn oracle() -> &'static Server {
    static ORACLE: OnceLock<Server> = OnceLock::new();
    ORACLE.get_or_init(|| Server::new(catalog(), ServeConfig::default()))
}

/// A loopback front end for `server`.
pub fn spawn(server: &Arc<Server>, config: NetConfig) -> NetServerHandle {
    NetServer::bind("127.0.0.1:0", Arc::clone(server), config)
        .unwrap()
        .spawn()
}

/// A fixture server behind a loopback front end.
pub fn spawn_fixture(config: NetConfig) -> (Arc<Server>, NetServerHandle) {
    let server = Arc::new(Server::new(catalog(), ServeConfig::default()));
    let handle = spawn(&server, config);
    (server, handle)
}

/// The fixture archive written to a temporary file, removed on drop.
pub struct TempArchive(pub PathBuf);

impl TempArchive {
    pub fn new(tag: &str, bytes: &[u8]) -> Self {
        let path = std::env::temp_dir().join(format!("exaclim_{tag}_{}.eca1", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        Self(path)
    }
}

impl Drop for TempArchive {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// Poll `pred` until it holds or `timeout` passes; returns whether it
/// held.
pub fn eventually(timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    pred()
}

/// Fault plans are process-global: a test that installs one, or must not
/// run under another test's, holds this lock for its whole run.
pub fn fault_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Holds [`fault_lock`] with no plan armed (an ambient `EXACLIM_FAULTS`
/// plan included), and disarms whatever plan is installed on drop, even
/// on panic, so a failing test cannot poison the rest.
pub struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for FaultGuard {
    fn drop(&mut self) {
        faults::clear();
    }
}

pub fn fault_guard() -> FaultGuard {
    let guard = fault_lock();
    faults::clear();
    FaultGuard(guard)
}

pub fn slice(member: &str, range: Range<u64>) -> Request {
    Request::Slice(SliceRequest {
        archive: ARCHIVE.to_string(),
        member: member.to_string(),
        range,
    })
}

pub fn spec(seed: u64, t_max: u64, realizations: u32) -> ScenarioSpec {
    ScenarioSpec {
        emulator: EMULATOR.to_string(),
        t_max,
        seed,
        realizations,
    }
}

pub fn member_product(member: &str, stat: ProductStat) -> ProductDescriptor {
    ProductDescriptor {
        source: ProductSource::Member {
            archive: ARCHIVE.to_string(),
            member: member.to_string(),
        },
        stat,
        time: None,
        space: None,
    }
}

/// Cut `responses` into the raw stream-frame bytes a server sends for
/// frame `id` with `chunk`-byte fragments.
pub fn response_frames(responses: Vec<Reply>, id: u64, chunk: usize) -> Vec<Vec<u8>> {
    let body = wire::ResponseBody::from_responses(responses);
    let mut stream = wire::FrameStream::response(body, id, chunk).unwrap();
    let mut frames = Vec::new();
    while let Some(f) = stream.next_frame() {
        frames.push(f.to_bytes(stream.body()));
    }
    frames
}

/// Every product statistic, with seeded parameters.
fn stats(rng: &mut StdRng) -> [ProductStat; 6] {
    [
        ProductStat::Raw,
        ProductStat::Anomaly {
            archive: ARCHIVE.to_string(),
            member: MEMBERS[rng.gen_range(0..2usize)].to_string(),
        },
        ProductStat::MeanStd,
        ProductStat::Trend,
        ProductStat::Persistence {
            order: rng.gen_range(1..=3u32),
        },
        ProductStat::TukeyExtremes {
            tail_per_mille: rng.gen_range(5..=50u32),
        },
    ]
}

/// One seeded batch with every request kind of [`op_kinds`] in it, in a
/// seeded order, with seeded members, ranges, windows and seeds: every
/// `Request` variant but `Stats` (whose counters move as the batch is
/// served), every catalog query, every product source × statistic with
/// and without windows, both deadline verdicts and the deterministic
/// error paths. Every answer is a pure function of the batch.
pub fn workload(seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let member = |rng: &mut StdRng| MEMBERS[rng.gen_range(0..2usize)];
    let mut batch = Vec::new();
    for _ in 0..4 {
        let m = member(&mut rng);
        let t0 = rng.gen_range(0..T_MAX - 5);
        let t1 = rng.gen_range(t0..=T_MAX);
        batch.push(slice(m, t0..t1));
    }
    batch.push(slice("missing", 0..1));
    batch.push(Request::Slice(SliceRequest {
        archive: "nope".to_string(),
        member: "t2m".to_string(),
        range: 0..1,
    }));
    let m = member(&mut rng);
    batch.push(slice(m, 10..9999));
    batch.push(Request::Emulate {
        emulator: EMULATOR.to_string(),
        t_max: rng.gen_range(4..=8usize),
        seed: rng.gen_range(0..1000u64),
    });
    batch.push(Request::Emulate {
        emulator: "nope".to_string(),
        t_max: 5,
        seed: 1,
    });
    batch.push(Request::Catalog(CatalogQuery::ListArchives));
    batch.push(Request::Catalog(CatalogQuery::ListMembers {
        archive: ARCHIVE.to_string(),
    }));
    batch.push(Request::Catalog(CatalogQuery::MemberInfo {
        archive: ARCHIVE.to_string(),
        member: member(&mut rng).to_string(),
    }));
    batch.push(Request::Catalog(CatalogQuery::ListEmulators));

    // Products over a member: windowed in time (long enough for a tail
    // fit) and in space.
    let m = member(&mut rng);
    for stat in stats(&mut rng) {
        let t0 = rng.gen_range(0..=T_MAX - 40);
        let s0 = rng.gen_range(0..5u64);
        let windowed = ProductDescriptor {
            time: Some(t0..t0 + 40),
            space: Some(s0..s0 + rng.gen_range(1..=5u64)),
            ..member_product(m, stat.clone())
        };
        batch.push(Request::Product(member_product(m, stat)));
        batch.push(Request::Product(windowed));
    }
    // Products over a fresh ensemble of 2 × 16 steps (32 samples per
    // location, the tail fit's minimum): windowed in space only.
    let ensemble = spec(rng.gen_range(0..1000u64), 16, 2);
    for stat in stats(&mut rng) {
        let s0 = rng.gen_range(0..300u64);
        let whole = ProductDescriptor {
            source: ProductSource::Ensemble(ensemble.clone()),
            stat,
            time: None,
            space: None,
        };
        let windowed = ProductDescriptor {
            space: Some(s0..s0 + 40),
            ..whole.clone()
        };
        batch.push(Request::Product(whole));
        batch.push(Request::Product(windowed));
    }
    batch.push(Request::Product(member_product(
        "missing",
        ProductStat::Raw,
    )));
    batch.push(Request::Product(ProductDescriptor {
        source: ProductSource::Member {
            archive: "nope".to_string(),
            member: "t2m".to_string(),
        },
        ..member_product("t2m", ProductStat::Raw)
    }));
    batch.push(Request::Product(ProductDescriptor {
        time: Some(0..9999),
        ..member_product(member(&mut rng), ProductStat::Raw)
    }));
    batch.push(Request::Product(member_product(
        member(&mut rng),
        ProductStat::Persistence { order: 0 },
    )));
    batch.push(Request::Product(member_product(
        member(&mut rng),
        ProductStat::TukeyExtremes { tail_per_mille: 0 },
    )));

    batch.push(Request::Ensemble(spec(rng.gen_range(0..1000u64), 6, 2)));
    batch.push(Request::Ensemble(spec(1, 10, 0)));
    batch.push(Request::Ensemble(ScenarioSpec {
        emulator: "nope".to_string(),
        ..spec(1, 10, 2)
    }));
    let t0 = rng.gen_range(0..T_MAX - 8);
    batch.push(Request::WithDeadline {
        budget_ms: 60_000,
        request: Box::new(slice(member(&mut rng), t0..t0 + 8)),
    });
    batch.push(Request::WithDeadline {
        budget_ms: 0,
        request: Box::new(slice(member(&mut rng), 0..4)),
    });

    for i in (1..batch.len()).rev() {
        batch.swap(i, rng.gen_range(0..=i));
    }
    batch
}

/// The kinds one [`workload`] batch covers, as [`op_kind`] names them.
pub fn op_kinds() -> BTreeSet<String> {
    let mut kinds: BTreeSet<String> = [
        "slice",
        "slice:unknown-member",
        "slice:unknown-archive",
        "slice:out-of-range",
        "emulate",
        "emulate:unknown-emulator",
        "catalog:list-archives",
        "catalog:list-members",
        "catalog:member-info",
        "catalog:list-emulators",
        "product:member:raw:unknown-member",
        "product:member:raw:unknown-archive",
        "product:member:raw:windowed:out-of-range",
        "product:member:persistence:bad-order",
        "product:member:tukey:bad-tail",
        "ensemble",
        "ensemble:no-realizations",
        "ensemble:unknown-emulator",
        "deadline:generous:slice",
        "deadline:expired:slice",
    ]
    .map(String::from)
    .into();
    let stats = [
        "raw",
        "anomaly",
        "mean-std",
        "trend",
        "persistence",
        "tukey",
    ];
    for source in ["member", "ensemble"] {
        for stat in stats {
            for window in ["", ":windowed"] {
                let grid = mark((source, stat) == ("ensemble", "anomaly"), ":grid-mismatch");
                kinds.insert(format!("product:{source}:{stat}{window}{grid}"));
            }
        }
    }
    kinds
}

/// The suffixes [`op_kind`] gives a request whose answer on the fixture
/// is a deterministic error.
pub const ERROR_MARKS: &[&str] = &[
    ":unknown-",
    ":out-of-range",
    ":bad-",
    ":no-realizations",
    ":grid-mismatch",
    "deadline:expired",
];

fn mark(bad: bool, suffix: &'static str) -> &'static str {
    if bad {
        suffix
    } else {
        ""
    }
}

/// The kind of a request: its shape, plus the error path it takes on the
/// fixture. Every match here is exhaustive with no catch-all arm, so a
/// new request variant, catalog query or product statistic does not
/// compile until the generator covers it.
pub fn op_kind(request: &Request) -> String {
    let names = |archive: &str, member: &str| match (archive == ARCHIVE, MEMBERS.contains(&member))
    {
        (false, _) => ":unknown-archive",
        (true, known) => mark(!known, ":unknown-member"),
    };
    let scenario = |s: &ScenarioSpec| match (s.emulator == EMULATOR, s.realizations) {
        (false, _) => ":unknown-emulator",
        (true, n) => mark(n == 0, ":no-realizations"),
    };
    let range = |r: &Range<u64>| mark(r.end > T_MAX, ":out-of-range");
    match request {
        Request::Slice(s) => format!("slice{}{}", names(&s.archive, &s.member), range(&s.range)),
        Request::Emulate { emulator, .. } => {
            format!("emulate{}", mark(emulator != EMULATOR, ":unknown-emulator"))
        }
        Request::Catalog(query) => match query {
            CatalogQuery::ListArchives => "catalog:list-archives",
            CatalogQuery::ListMembers { .. } => "catalog:list-members",
            CatalogQuery::MemberInfo { .. } => "catalog:member-info",
            CatalogQuery::ListEmulators => "catalog:list-emulators",
        }
        .to_string(),
        Request::Stats => "stats".to_string(),
        Request::Product(d) => {
            let (source, fault, ensemble) = match &d.source {
                ProductSource::Member { archive, member } => {
                    ("member", names(archive, member), false)
                }
                ProductSource::Ensemble(s) => ("ensemble", scenario(s), true),
            };
            let (stat, invalid) = match &d.stat {
                ProductStat::Raw => ("raw", ""),
                // The fixture's members are narrower than the emulator's grid.
                ProductStat::Anomaly { .. } => ("anomaly", mark(ensemble, ":grid-mismatch")),
                ProductStat::MeanStd => ("mean-std", ""),
                ProductStat::Trend => ("trend", ""),
                ProductStat::Persistence { order } => {
                    ("persistence", mark(*order == 0, ":bad-order"))
                }
                ProductStat::TukeyExtremes { tail_per_mille } => {
                    ("tukey", mark(*tail_per_mille == 0, ":bad-tail"))
                }
            };
            let window = mark(d.time.is_some() || d.space.is_some(), ":windowed");
            let time = d.time.as_ref().map_or("", range);
            format!("product:{source}:{stat}{window}{fault}{time}{invalid}")
        }
        Request::Ensemble(s) => format!("ensemble{}", scenario(s)),
        Request::WithDeadline { budget_ms, request } => {
            let verdict = if *budget_ms == 0 {
                "expired"
            } else {
                "generous"
            };
            format!("deadline:{verdict}:{}", op_kind(request))
        }
    }
}
