//! Consistent-hash router: one ECN1 front end over N backend shards.
//!
//! A [`Router`] speaks the wire protocol on both sides. In front, it is
//! a drop-in [`crate::net::NetServer`] backend
//! ([`crate::net::NetServer::bind_router`]): clients connect with the
//! ordinary [`crate::net::Client`] and see responses **bit-identical**
//! to a single [`crate::server::Server`] over the same catalog. Behind,
//! it holds pooled self-healing [`Client`]s to each backend shard and
//! scatter-gathers every batch:
//!
//! 1. each request is routed by its `(archive, member)` key — emulator
//!    ops by emulator name, catalog queries by archive — through a
//!    seeded consistent-hash **ring** ([`RouterConfig::virtual_nodes`]
//!    points per shard) to a preference list of
//!    [`RouterConfig::replication`] distinct shards,
//! 2. the batch splits into one sub-batch per first-choice live shard,
//!    preserving request order within each sub-batch,
//! 3. sub-batches execute concurrently over the shard connection pools,
//! 4. responses reassemble in the original request order.
//!
//! Every shard opens the same archives (the data plane is replicated;
//! the ring partitions the *cache working set*, not the bytes), which is
//! what makes failover honest: when a shard dies mid-batch — its
//! [`Client`] exhausts the [`crate::net::RetryPolicy`] and surfaces a
//! peer-labelled transport error — the router marks it down for
//! [`RouterConfig::down_cooldown`], bumps
//! [`RouterStats::failovers`], and re-routes the affected requests to
//! each key's next replica. The caller sees the same bytes it would
//! have seen from the dead shard, not an error frame.
//!
//! The ring is exactly what [`RouterConfig::virtual_nodes`],
//! [`RouterConfig::replication`] and [`RouterConfig::seed`] describe,
//! built once in [`Router::connect`] and never swapped, so routing reads
//! it without a lock.
//!
//! [`Request::Stats`] fans out to every live shard and returns the
//! field-wise **sum** of their [`ServeStats`]; the router's own
//! counters are a separate [`RouterStats`] ([`Router::router_stats`]).

use crate::error::{ServeError, WireError};
use crate::metrics::Counters;
use crate::net::{Client, ClientConfig, RetryPolicy};
use crate::product::ProductSource;
use crate::server::{CatalogQuery, Reply, Request, Response, ServeBackend, ServeStats};
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One backend shard a [`Router`] fronts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Stable name of the shard (ring positions hash over it, so a
    /// shard keeps its keys across router restarts). Labels must be
    /// distinct within one router.
    pub label: String,
    /// Address of the shard's [`crate::net::NetServer`].
    pub addr: SocketAddr,
}

impl ShardSpec {
    /// A spec with the conventional `shard-<i>` label.
    pub fn numbered(i: usize, addr: SocketAddr) -> Self {
        Self {
            label: format!("shard-{i}"),
            addr,
        }
    }
}

/// Liveness snapshot of one shard ([`Router::shard_health`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    /// The shard's [`ShardSpec::label`].
    pub label: String,
    /// The shard's address.
    pub addr: SocketAddr,
    /// Whether the router currently routes to it (false while inside
    /// the post-failure [`RouterConfig::down_cooldown`]).
    pub alive: bool,
}

/// Knobs of a [`Router`] (see [`Router::connect`]).
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Distinct shards on every key's preference list: 1 routes each
    /// key to exactly one shard (no failover), 2+ gives hot members
    /// replicas a dead shard fails over to.
    pub replication: usize,
    /// Ring points per shard. More points flatten the key distribution
    /// (the placement skew test pins ≤ 2× mean at 128) at the price of
    /// a longer sorted ring.
    pub virtual_nodes: usize,
    /// Seed of the ring's hash: same seed + same labels ⇒ the same
    /// placement on every router that fronts the cluster.
    pub seed: u64,
    /// Template for the pooled backend clients. [`ClientConfig::peer`]
    /// is overwritten per shard (`<label>@<addr>`) so transport errors
    /// name the shard that failed; arm [`ClientConfig::retry`] to let a
    /// shard's client absorb transient faults before the router
    /// declares the shard dead and fails over.
    pub client: ClientConfig,
    /// Pooled connections per shard (concurrent sub-batches to one
    /// shard beyond this share connections).
    pub connections_per_shard: usize,
    /// How long a shard that failed a call stays routed-around before
    /// the router probes it again.
    pub down_cooldown: Duration,
}

impl Default for RouterConfig {
    /// Replication 2, 128 virtual nodes, 2 connections per shard, a
    /// fast-failover retry policy (2 retries, 1 ms base) and a 250 ms
    /// down cooldown.
    fn default() -> Self {
        Self {
            replication: 2,
            virtual_nodes: 128,
            seed: 0xECA1,
            client: ClientConfig {
                connect_timeout: Some(Duration::from_secs(1)),
                retry: Some(RetryPolicy {
                    max_retries: 2,
                    base_delay: Duration::from_millis(1),
                    max_delay: Duration::from_millis(50),
                    ..RetryPolicy::default()
                }),
                ..ClientConfig::default()
            },
            connections_per_shard: 2,
            down_cooldown: Duration::from_millis(250),
        }
    }
}

crate::metrics::counters! {
    /// Point-in-time router counters ([`Router::router_stats`]).
    pub struct RouterStats {
        /// Requests routed to shards (fan-out ops count once per request).
        pub routed: u64,
        /// Batches that split across more than one shard.
        pub fanout_batches: u64,
        /// Sub-batches re-routed to a replica after a shard call failed.
        pub failovers: u64,
    }

    /// The live counters behind [`Router::router_stats`].
    pub(crate) struct RouterCounters;
}

/// The seeded consistent-hash ring: `shards × virtual_nodes` points
/// sorted by hash; a key's replicas are the first `replication` distinct
/// shards clockwise from the key's hash.
struct Ring {
    /// `(point hash, shard index)`, sorted by hash.
    points: Vec<(u64, u16)>,
    shards: usize,
    virtual_nodes: usize,
    replication: usize,
    seed: u64,
}

/// splitmix64 finalizer: the ring's point/key hashes avalanche through
/// it so nearby labels land far apart.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded FNV-1a over byte parts (a `0xFF` separator between parts
/// keeps `("ab","c")` and `("a","bc")` distinct), finished with
/// [`mix64`].
fn hash_parts(seed: u64, parts: &[&[u8]]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ mix64(seed);
    for part in parts {
        for &b in *part {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h = (h ^ 0xFF).wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix64(h)
}

impl Ring {
    fn build(labels: &[String], virtual_nodes: usize, replication: usize, seed: u64) -> Ring {
        let virtual_nodes = virtual_nodes.max(1);
        let mut points = Vec::with_capacity(labels.len() * virtual_nodes);
        for (s, label) in labels.iter().enumerate() {
            for v in 0..virtual_nodes {
                let h = hash_parts(seed, &[label.as_bytes(), &(v as u64).to_le_bytes()]);
                points.push((h, s as u16));
            }
        }
        points.sort_unstable();
        Ring {
            points,
            shards: labels.len(),
            virtual_nodes,
            replication: replication.clamp(1, labels.len().max(1)),
            seed,
        }
    }

    /// Hash of a routing key.
    fn key_hash(&self, archive: &str, member: &str) -> u64 {
        hash_parts(self.seed, &[archive.as_bytes(), member.as_bytes()])
    }

    /// The key's preference list: first `replication` distinct shards
    /// clockwise from `hash`.
    fn replicas(&self, hash: u64) -> Vec<u16> {
        let mut out = Vec::with_capacity(self.replication);
        if self.points.is_empty() {
            return out;
        }
        let start = self.points.partition_point(|&(h, _)| h < hash);
        for i in 0..self.points.len() {
            let (_, shard) = self.points[(start + i) % self.points.len()];
            if !out.contains(&shard) {
                out.push(shard);
                if out.len() == self.replication.min(self.shards) {
                    break;
                }
            }
        }
        out
    }
}

/// One shard's connection pool and liveness state.
struct Shard {
    spec: ShardSpec,
    /// `<label>@<addr>` — stamped into [`ClientConfig::peer`] so this
    /// shard's transport errors are attributable.
    peer: String,
    pool: Vec<Mutex<Option<Client>>>,
    /// Round-robin cursor over the pool when every slot is busy.
    rr: AtomicUsize,
    /// `Some(t)` while the shard is routed around; a probe is allowed
    /// once `t` has passed.
    down_until: Mutex<Option<Instant>>,
}

impl Shard {
    fn alive(&self) -> bool {
        match *self.down_until.lock() {
            None => true,
            Some(t) => Instant::now() >= t,
        }
    }

    fn mark_down(&self, cooldown: Duration) {
        *self.down_until.lock() = Some(Instant::now() + cooldown);
    }

    fn mark_up(&self) {
        *self.down_until.lock() = None;
    }

    /// Run `f` on a pooled connection: grab any free slot (or queue on
    /// one round-robin), connecting lazily. A transport error drops the
    /// pooled connection so the next call dials fresh.
    fn with_client<T>(
        &self,
        template: &ClientConfig,
        f: impl FnOnce(&mut Client) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let mut guard = 'slot: {
            for slot in &self.pool {
                if let Some(g) = slot.try_lock() {
                    break 'slot g;
                }
            }
            let i = self.rr.fetch_add(1, Ordering::Relaxed) % self.pool.len();
            self.pool[i].lock()
        };
        if guard.is_none() {
            let mut config = template.clone();
            config.peer = Some(self.peer.clone());
            *guard = Some(Client::connect_with(self.spec.addr, config)?);
        }
        let client = guard.as_mut().expect("connected above");
        match f(client) {
            Ok(v) => Ok(v),
            Err(e) => {
                *guard = None;
                Err(e)
            }
        }
    }
}

/// How one request routes: a keyed preference list, or a fan-out to
/// every shard (stats).
enum Route<'a> {
    Key(&'a str, &'a str),
    Fixed,
    All,
}

fn route_of(request: &Request) -> Route<'_> {
    match request {
        Request::Slice(s) => Route::Key(&s.archive, &s.member),
        Request::Product(d) => match &d.source {
            ProductSource::Member { archive, member } => Route::Key(archive, member),
            ProductSource::Ensemble(spec) => Route::Key("", &spec.emulator),
        },
        Request::Ensemble(spec) => Route::Key("", &spec.emulator),
        Request::Emulate { emulator, .. } => Route::Key("", emulator),
        Request::Catalog(q) => match q {
            CatalogQuery::ListMembers { archive } | CatalogQuery::MemberInfo { archive, .. } => {
                Route::Key(archive, "")
            }
            CatalogQuery::ListArchives | CatalogQuery::ListEmulators => Route::Fixed,
        },
        Request::Stats => Route::All,
        Request::WithDeadline { request, .. } => route_of(request),
    }
}

/// The consistent-hash scatter-gather front end (module docs above).
pub struct Router {
    shards: Vec<Shard>,
    ring: Ring,
    config: RouterConfig,
    stats: RouterCounters,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("shards", &self.shards.len())
            .field("replication", &self.ring.replication)
            .field("virtual_nodes", &self.ring.virtual_nodes)
            .finish()
    }
}

impl Router {
    /// Connect to `shards` over the ring `config` describes
    /// ([`RouterConfig::virtual_nodes`], [`RouterConfig::replication`]
    /// and [`RouterConfig::seed`] as given). Shard labels must be
    /// distinct: a repeated label is rejected before any connection is
    /// made. Each shard is then probed with one eager connection, so a
    /// misaddressed or dead backend fails construction with a
    /// peer-labelled error instead of failing the first batch.
    pub fn connect(shards: Vec<ShardSpec>, config: RouterConfig) -> Result<Router, WireError> {
        if shards.is_empty() {
            return Err(WireError::Malformed("router over zero shards".to_string()));
        }
        // Ring points hash only (seed, label, vnode): two shards with one
        // label would get identical points, and the later one would never
        // own a primary key.
        for (i, spec) in shards.iter().enumerate() {
            if shards[..i].iter().any(|s| s.label == spec.label) {
                return Err(WireError::Malformed(format!(
                    "duplicate shard label {:?}",
                    spec.label
                )));
            }
        }
        let labels: Vec<String> = shards.iter().map(|s| s.label.clone()).collect();
        let ring = Ring::build(
            &labels,
            config.virtual_nodes,
            config.replication,
            config.seed,
        );
        let pool_size = config.connections_per_shard.max(1);
        let shards: Vec<Shard> = shards
            .into_iter()
            .map(|spec| Shard {
                peer: format!("{}@{}", spec.label, spec.addr),
                pool: (0..pool_size).map(|_| Mutex::new(None)).collect(),
                rr: AtomicUsize::new(0),
                down_until: Mutex::new(None),
                spec,
            })
            .collect();
        for shard in &shards {
            shard.with_client(&config.client, |_| Ok(()))?;
        }
        Ok(Router {
            shards,
            ring,
            config,
            stats: RouterCounters::default(),
        })
    }

    /// Liveness snapshot of every shard.
    pub fn shard_health(&self) -> Vec<ShardHealth> {
        self.shards
            .iter()
            .map(|s| ShardHealth {
                label: s.spec.label.clone(),
                addr: s.spec.addr,
                alive: s.alive(),
            })
            .collect()
    }

    /// The router's own counters.
    pub fn router_stats(&self) -> RouterStats {
        self.stats.snapshot()
    }

    /// Answer one request (a 1-element batch) through the cluster.
    pub fn handle(&self, request: &Request) -> Result<Response, ServeError> {
        self.handle_batch(std::slice::from_ref(request))
            .pop()
            .expect("one response per request")
    }

    /// Answer a batch through the cluster: split into per-shard
    /// sub-batches, scatter-gather, reassemble in request order. The
    /// scatter-gather twin of [`crate::server::Server::handle_batch`] —
    /// same input, same output, bit-identical responses (stats excepted:
    /// the cluster answers the per-shard sum).
    pub fn handle_batch(&self, requests: &[Request]) -> Vec<Result<Response, ServeError>> {
        if requests.is_empty() {
            return Vec::new();
        }
        self.stats
            .routed
            .fetch_add(requests.len() as u64, Ordering::Relaxed);

        let ring = &self.ring;
        let prefs: Vec<Option<Vec<u16>>> = requests
            .iter()
            .map(|r| match route_of(r) {
                Route::Key(a, m) => Some(ring.replicas(ring.key_hash(a, m))),
                Route::Fixed => Some(ring.replicas(ring.key_hash("", ""))),
                Route::All => None,
            })
            .collect();

        let mut slots: Vec<Option<Result<Response, ServeError>>> = vec![None; requests.len()];

        // Fan-out ops (stats) first: each touches every live shard.
        let mut touched_shards: Vec<bool> = vec![false; self.shards.len()];
        for (i, pref) in prefs.iter().enumerate() {
            if pref.is_none() {
                slots[i] = Some(self.fan_out(&requests[i]));
                touched_shards.fill(true);
            }
        }

        // Keyed requests: route to each key's first live replica,
        // re-routing a failed shard's sub-batch to the next replica.
        // Each round either answers requests or burns one entry of a
        // preference list, so the loop is bounded.
        let mut cursors: Vec<usize> = vec![0; requests.len()];
        loop {
            // Group unanswered requests by their current target shard.
            let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
            let mut open = false;
            for i in 0..requests.len() {
                let Some(pref) = &prefs[i] else { continue };
                if slots[i].is_some() {
                    continue;
                }
                // First not-yet-failed replica, preferring live ones; if
                // the whole remaining list is marked down, probe the
                // first anyway (cooldown may have hidden a recovery).
                let remaining = &pref[cursors[i].min(pref.len())..];
                let target = remaining
                    .iter()
                    .find(|&&s| self.shards[s as usize].alive())
                    .or_else(|| remaining.first());
                match target {
                    Some(&s) => {
                        groups[s as usize].push(i);
                        open = true;
                    }
                    None => {
                        slots[i] = Some(Err(ServeError::Internal(
                            "every replica of this key's shards failed".to_string(),
                        )));
                    }
                }
            }
            if !open {
                break;
            }

            // Scatter: one thread per non-empty group, gather in place.
            type ShardOutcome = Result<Vec<Result<Response, ServeError>>, WireError>;
            let outcomes: Vec<Option<ShardOutcome>> = {
                let mut outcomes: Vec<Option<_>> = (0..self.shards.len()).map(|_| None).collect();
                std::thread::scope(|scope| {
                    let handles: Vec<_> = groups
                        .iter()
                        .enumerate()
                        .filter(|(_, g)| !g.is_empty())
                        .map(|(s, group)| {
                            let sub: Vec<Request> =
                                group.iter().map(|&i| requests[i].clone()).collect();
                            let shard = &self.shards[s];
                            let template = &self.config.client;
                            (
                                s,
                                scope.spawn(move || shard.with_client(template, |c| c.batch(&sub))),
                            )
                        })
                        .collect();
                    for (s, h) in handles {
                        outcomes[s] = Some(h.join().expect("shard call thread"));
                    }
                });
                outcomes
            };

            for (s, outcome) in outcomes.into_iter().enumerate() {
                let Some(outcome) = outcome else { continue };
                touched_shards[s] = true;
                match outcome {
                    Ok(responses) => {
                        self.shards[s].mark_up();
                        for (&i, response) in groups[s].iter().zip(responses) {
                            slots[i] = Some(response);
                        }
                    }
                    Err(_) => {
                        // The shard's self-healing client gave up:
                        // cooldown the shard and advance every affected
                        // request past it for the next round.
                        self.shards[s].mark_down(self.config.down_cooldown);
                        self.stats.failovers.fetch_add(1, Ordering::Relaxed);
                        for &i in &groups[s] {
                            cursors[i] += 1;
                        }
                    }
                }
            }
        }

        if touched_shards.iter().filter(|&&t| t).count() > 1 {
            self.stats.fanout_batches.fetch_add(1, Ordering::Relaxed);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every request answered"))
            .collect()
    }

    /// Fan one request (stats, possibly deadline-wrapped) out to every
    /// shard and sum the answers. A shard whose transport fails is
    /// marked down and skipped — monitoring reflects the live cluster;
    /// a per-request error from any shard (an expired deadline) wins
    /// over a partial sum.
    fn fan_out(&self, request: &Request) -> Result<Response, ServeError> {
        let mut agg: Option<ServeStats> = None;
        for shard in &self.shards {
            if !shard.alive() {
                continue;
            }
            let outcome = shard.with_client(&self.config.client, |c| {
                c.batch(std::slice::from_ref(request))
            });
            match outcome {
                Ok(mut responses) => match responses.pop() {
                    Some(Ok(Response::Stats(s))) => {
                        agg.get_or_insert_with(ServeStats::default).merge(&s);
                    }
                    Some(Ok(other)) => {
                        return Err(ServeError::Internal(format!(
                            "stats fan-out to {} answered with {other:?}",
                            shard.peer
                        )))
                    }
                    Some(Err(e)) => return Err(e),
                    None => {
                        return Err(ServeError::Internal(format!(
                            "empty response batch from {}",
                            shard.peer
                        )))
                    }
                },
                Err(_) => {
                    shard.mark_down(self.config.down_cooldown);
                    self.stats.failovers.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        agg.map(Response::Stats)
            .ok_or_else(|| ServeError::Internal("no live shard answered stats".to_string()))
    }
}

impl ServeBackend for Router {
    /// The wire front end's dispatch path. `received` is deliberately
    /// unused: deadline budgets re-stamp on arrival at each shard, so a
    /// wrapped request's budget covers shard-side queue time (router
    /// forwarding adds to the client's wall clock, not the budget; a
    /// zero budget still deterministically expires).
    fn batch_replies_from(&self, requests: &[Request], _received: Instant) -> Vec<Reply> {
        self.handle_batch(requests)
            .into_iter()
            .map(Reply::Full)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("shard-{i}")).collect()
    }

    /// Placement skew, pinned over 64 seeded cases: for any key
    /// population and ring seed, at 128 virtual nodes over 4 shards no
    /// shard's primary-key count exceeds 2× the mean, and none is empty.
    #[test]
    fn placement_skew_stays_under_two_x_mean() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for _ in 0..64 {
            let n_keys = rng.gen_range(256usize..512);
            let ring_seed = rng.gen_range(0u64..1000);
            let ring = Ring::build(&labels(4), 128, 1, ring_seed);
            let mut counts = [0usize; 4];
            for i in 0..n_keys {
                let hash = ring.key_hash(&format!("arc{}", i % 5), &format!("member-{i}"));
                counts[usize::from(ring.replicas(hash)[0])] += 1;
            }
            let mean = n_keys as f64 / 4.0;
            let max = *counts.iter().max().unwrap() as f64;
            assert!(
                max <= 2.0 * mean,
                "seed {ring_seed}, {n_keys} keys: max {max} over mean {mean} ({counts:?})"
            );
            assert!(
                counts.iter().all(|&c| c > 0),
                "seed {ring_seed}, {n_keys} keys: empty shard ({counts:?})"
            );
        }
    }

    #[test]
    fn duplicate_shard_labels_are_rejected_before_dialing() {
        // A port nobody listens on: dialing it would fail with a transport
        // error, not the label check's `Malformed`.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let spec = ShardSpec::numbered(0, addr);
        match Router::connect(vec![spec.clone(), spec], RouterConfig::default()) {
            Err(WireError::Malformed(msg)) => {
                assert!(msg.contains("duplicate shard label"), "{msg}");
            }
            other => panic!("expected a duplicate-label error, got {other:?}"),
        }
    }

    #[test]
    fn ring_is_deterministic_and_replicas_distinct() {
        let a = Ring::build(&labels(4), 128, 2, 7);
        let b = Ring::build(&labels(4), 128, 2, 7);
        assert_eq!(a.points, b.points);
        for key in 0..200u64 {
            let h = a.key_hash("arc", &format!("m{key}"));
            let reps = a.replicas(h);
            assert_eq!(reps.len(), 2);
            assert_ne!(reps[0], reps[1]);
            assert_eq!(reps, b.replicas(h));
        }
    }

    #[test]
    fn different_seeds_move_keys() {
        let a = Ring::build(&labels(4), 128, 1, 1);
        let b = Ring::build(&labels(4), 128, 1, 2);
        let moved = (0..256u64)
            .filter(|k| {
                let key = format!("m{k}");
                a.replicas(a.key_hash("arc", &key)) != b.replicas(b.key_hash("arc", &key))
            })
            .count();
        assert!(moved > 64, "only {moved}/256 keys moved between seeds");
    }

    #[test]
    fn replication_caps_at_shard_count() {
        let ring = Ring::build(&labels(2), 64, 5, 3);
        let reps = ring.replicas(ring.key_hash("a", "m"));
        assert_eq!(reps.len(), 2);
    }

    #[test]
    fn deadline_wrapper_routes_like_its_inner_request() {
        let slice = Request::Slice(crate::SliceRequest {
            archive: "a".to_string(),
            member: "m".to_string(),
            range: 0..4,
        });
        let wrapped = Request::WithDeadline {
            budget_ms: 5,
            request: Box::new(slice.clone()),
        };
        match (route_of(&slice), route_of(&wrapped)) {
            (Route::Key(a1, m1), Route::Key(a2, m2)) => {
                assert_eq!((a1, m1), (a2, m2));
            }
            _ => panic!("slice routes must be keyed"),
        }
        assert!(matches!(route_of(&Request::Stats), Route::All));
    }
}
