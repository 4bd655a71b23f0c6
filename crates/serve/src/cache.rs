//! Sharded LRU caches of decoded values: chunks and derived products.
//!
//! [`ValueCache`] is generic over its key ([`CacheKey`]) and stores
//! immutable `Arc<[f64]>` blocks: a hit hands out another reference to
//! bytes that can never change, so readers can never observe a torn or
//! partially evicted entry, and eviction merely drops the cache's own
//! reference while in-flight requests keep theirs alive. Two
//! instantiations serve the server:
//!
//! * [`ChunkCache`] — whole decoded chunks, the unit
//!   [`exaclim_store::Archive::read_field_chunk`] produces, keyed
//!   by `(archive, member, chunk)` indices ([`ChunkKey`]),
//! * [`ProductCache`] — evaluated derived products of the scenario
//!   engine, keyed by the descriptor's derived hash
//!   ([`crate::product::ProductKey`]).
//!
//! **Eviction** is byte-budgeted LRU per shard: the configured budget is
//! split evenly across shards, and an insert that would overflow its shard
//! evicts least-recently-used entries until the new value fits. A value
//! larger than one shard's budget is served but never cached. Keys are
//! spread across shards by a fixed multiplicative hash of
//! [`CacheKey::pack`], so two requests for different entries almost
//! always lock different shards.
//!
//! **Single-flight.** Concurrent misses on the same key from *different*
//! batches (the batcher already dedups within one) coalesce through a
//! reservation map: the first fetcher becomes the **leader**
//! ([`Fetch::Lead`]) and computes; every racer gets a [`Fetch::Wait`]
//! handle and parks on the leader's [`Flight`] instead of recomputing.
//! The leader publishes its result (inserting into the cache first,
//! removing the reservation second — under the reservation lock — so a
//! key is always either cached or reserved once a computation has
//! started), and a dropped leader fails its waiters rather than hanging
//! them. The reservation lock is only ever touched on a cache miss; hits
//! stay on the lock-free shard fast path.

use crate::error::ServeError;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A cache key: small, copyable, and reducible to a well-mixed `u64` for
/// shard selection.
pub trait CacheKey: Copy + Eq + std::hash::Hash + Send + Sync + std::fmt::Debug + 'static {
    /// Pack the key into one `u64`; the cache spreads shards by a
    /// multiplicative hash of this value, so distinct keys should pack
    /// distinctly (collisions cost shard balance, never correctness).
    fn pack(&self) -> u64;
}

/// Identity of one decoded chunk in the cache.
///
/// All three components are *indices* (into the catalog's archive list and
/// the archive's member/chunk tables), not names: the serving layer
/// resolves names once per request, and the per-chunk hot path stays
/// string-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkKey {
    /// Catalog index of the archive.
    pub archive: u32,
    /// Member index within the archive directory.
    pub member: u32,
    /// Chunk index within the member.
    pub chunk: u32,
}

impl CacheKey for ChunkKey {
    fn pack(&self) -> u64 {
        (u64::from(self.archive) << 44) ^ (u64::from(self.member) << 22) ^ u64::from(self.chunk)
    }
}

impl CacheKey for crate::product::ProductKey {
    fn pack(&self) -> u64 {
        self.hi ^ self.lo.rotate_left(32)
    }
}

/// One cached value block with its LRU stamp.
struct Entry {
    values: Arc<[f64]>,
    /// Last-touch tick; smallest stamp in a shard is the LRU entry.
    stamp: u64,
}

/// Entries and bookkeeping of one shard, guarded by one mutex.
struct Shard<K> {
    map: HashMap<K, Entry>,
    /// Decoded bytes currently held (8 × values).
    bytes: usize,
    /// Monotonic touch counter feeding the stamps.
    tick: u64,
}

crate::metrics::counters! {
    /// Point-in-time counters of one [`ValueCache`] instance. The chunk and
    /// product caches each keep their own, so chunk traffic and product
    /// traffic never mix in one set of counters.
    pub struct CacheStats {
        /// Lookups that found the entry.
        pub hits: u64,
        /// Lookups that missed.
        pub misses: u64,
        /// Entries evicted to make room.
        pub evictions: u64,
        /// Inserts rejected because the value alone exceeds a shard budget.
        pub oversize_rejects: u64,
        /// Decoded bytes currently resident.
        pub resident_bytes: u64,
        /// Entries currently resident.
        pub resident_chunks: u64,
        /// Misses that became single-flight leaders (computed the value).
        pub flight_leads: u64,
        /// Misses that coalesced onto an in-flight computation instead of
        /// recomputing — cross-batch stampede work the reservation map saved.
        pub flight_waits: u64,
    }

    /// The live counters of one [`ValueCache`]. `resident_bytes` and
    /// `resident_chunks` stay zero here: [`ValueCache::stats`] reads them
    /// off the shards.
    pub(crate) struct CacheCounters;
}

impl CacheStats {
    /// Hit fraction over all lookups so far (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Sharded, byte-budgeted LRU cache of immutable `Arc<[f64]>` blocks
/// with single-flight stampede protection, generic over its key.
///
/// ```
/// use exaclim_serve::cache::{ChunkCache, ChunkKey};
/// use std::sync::Arc;
///
/// let cache = ChunkCache::new(1 << 20, 4); // 1 MiB budget, ≤ 4 shards
/// let key = ChunkKey { archive: 0, member: 0, chunk: 7 };
/// assert!(cache.get(key).is_none());
/// cache.insert(key, Arc::from(vec![1.0, 2.0, 3.0]));
/// assert_eq!(cache.get(key).unwrap().as_ref(), &[1.0, 2.0, 3.0]);
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses), (1, 1));
/// ```
pub struct ValueCache<K: CacheKey> {
    shards: Vec<Mutex<Shard<K>>>,
    /// Byte budget of each shard (total budget / shard count).
    shard_budget: usize,
    /// Reservations of values currently being computed, keyed like the
    /// cache. Touched only on misses; completion removes the entry under
    /// this lock *after* the cache insert, so post-completion fetchers
    /// always find the cached value.
    inflight: Mutex<HashMap<K, Arc<Flight>>>,
    stats: CacheCounters,
}

/// The cache of decoded field chunks, keyed by [`ChunkKey`].
pub type ChunkCache = ValueCache<ChunkKey>;

/// The cache of evaluated derived products, keyed by
/// [`crate::product::ProductKey`].
pub type ProductCache = ValueCache<crate::product::ProductKey>;

/// One in-flight computation, shared between its leader and waiters.
pub struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

enum FlightState {
    /// The leader is still computing.
    Pending,
    /// The leader published its result (waiters clone it).
    Done(Result<Arc<[f64]>, ServeError>),
}

impl std::fmt::Debug for Flight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match &*self.state.lock() {
            FlightState::Pending => "pending",
            FlightState::Done(Ok(_)) => "done",
            FlightState::Done(Err(_)) => "failed",
        };
        f.debug_struct("Flight").field("state", &state).finish()
    }
}

impl Flight {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(FlightState::Pending),
            done: Condvar::new(),
        })
    }

    /// Block until the leader publishes, then return its result. The
    /// leader is always another thread actively computing on its own
    /// worker (never queued behind this one), so waiting cannot deadlock;
    /// a leader that dies publishes an error from its guard's `Drop`.
    pub fn wait(&self) -> Result<Arc<[f64]>, ServeError> {
        let mut state = self.state.lock();
        loop {
            if let FlightState::Done(result) = &*state {
                return result.clone();
            }
            self.done.wait(&mut state);
        }
    }

    fn publish(&self, result: Result<Arc<[f64]>, ServeError>) {
        *self.state.lock() = FlightState::Done(result);
        self.done.notify_all();
    }
}

/// Outcome of [`ValueCache::begin_fetch`].
#[derive(Debug)]
pub enum Fetch<'a, K: CacheKey> {
    /// Cache hit: the stored values.
    Ready(Arc<[f64]>),
    /// Cache miss with no computation in flight: the caller is the leader
    /// and **must** resolve the guard via [`FlightLead::finish`]
    /// (dropping it fails the flight, so waiters never hang).
    Lead(FlightLead<'a, K>),
    /// Another fetch is already computing this value: park on it via
    /// [`Flight::wait`].
    Wait(Arc<Flight>),
}

/// Leadership of one in-flight computation; ties the reservation to the
/// cache it was made in.
#[derive(Debug)]
pub struct FlightLead<'a, K: CacheKey> {
    cache: &'a ValueCache<K>,
    key: K,
    flight: Arc<Flight>,
    resolved: bool,
}

impl<K: CacheKey> FlightLead<'_, K> {
    /// Publish the result: a success is inserted into the cache (before
    /// the reservation is released) and handed to every waiter; an error
    /// is handed to the waiters as-is.
    pub fn finish(mut self, result: Result<Arc<[f64]>, ServeError>) {
        self.resolved = true;
        self.cache.complete_flight(self.key, &self.flight, result);
    }
}

impl<K: CacheKey> Drop for FlightLead<'_, K> {
    fn drop(&mut self) {
        if !self.resolved {
            // The leader unwound (panic mid-computation) — fail the
            // waiters instead of leaving them parked forever.
            self.cache.complete_flight(
                self.key,
                &self.flight,
                Err(ServeError::BadRequest(
                    "chunk decode abandoned by its leader".to_string(),
                )),
            );
        }
    }
}

impl<K: CacheKey> std::fmt::Debug for ValueCache<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ValueCache")
            .field("shards", &self.shards.len())
            .field("shard_budget", &self.shard_budget)
            .finish()
    }
}

impl<K: CacheKey> ValueCache<K> {
    /// Bytes of budget below which a shard is not worth its lock: the
    /// shard count is reduced until every shard holds at least this much
    /// (or one shard remains), so small budgets degrade to fewer shards
    /// instead of shards too small to fit any entry.
    pub const MIN_SHARD_BUDGET: usize = 8 << 20;

    /// Build a cache holding at most `budget_bytes` of decoded values,
    /// split evenly across up to `shards` independently locked shards
    /// (clamped to `1..=1024`, and reduced so each shard gets at least
    /// [`ValueCache::MIN_SHARD_BUDGET`] — a tiny budget becomes one
    /// shard, never many useless ones). A value larger than one shard's
    /// share is served but not cached. A budget of 0 disables caching:
    /// every `get` misses and every `insert` is dropped, which is the
    /// "cold" configuration the benches compare against.
    pub fn new(budget_bytes: usize, shards: usize) -> Self {
        let shards = shards
            .min(budget_bytes.div_ceil(Self::MIN_SHARD_BUDGET).max(1))
            .clamp(1, 1024);
        Self {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        bytes: 0,
                        tick: 0,
                    })
                })
                .collect(),
            shard_budget: budget_bytes / shards,
            inflight: Mutex::new(HashMap::new()),
            stats: CacheCounters::default(),
        }
    }

    /// Shard owning `key` (fixed multiplicative hash of the packed key).
    fn shard_of(&self, key: K) -> &Mutex<Shard<K>> {
        let h = key.pack().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let idx = (h >> 32) as usize % self.shards.len();
        &self.shards[idx]
    }

    /// Look up an entry, refreshing its LRU position on a hit.
    pub fn get(&self, key: K) -> Option<Arc<[f64]>> {
        let found = self.touch(key);
        let counter = if found.is_some() {
            &self.stats.hits
        } else {
            &self.stats.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// [`ValueCache::get`] without the hit/miss counters.
    fn touch(&self, key: K) -> Option<Arc<[f64]>> {
        let mut shard = self.shard_of(key).lock();
        shard.tick += 1;
        let tick = shard.tick;
        let entry = shard.map.get_mut(&key)?;
        entry.stamp = tick;
        Some(Arc::clone(&entry.values))
    }

    /// Every value of `keys` if all are cached right now, each counted
    /// as a hit as [`ValueCache::get`] would. If any is missing, `None`
    /// and no counter moves, so a caller that then resolves the keys the
    /// usual way ([`ValueCache::begin_fetch`]) counts each lookup once.
    pub(crate) fn get_resident(&self, keys: &[K]) -> Option<Vec<Arc<[f64]>>> {
        let values = keys
            .iter()
            .map(|&key| self.touch(key))
            .collect::<Option<Vec<_>>>()?;
        self.stats
            .hits
            .fetch_add(values.len() as u64, Ordering::Relaxed);
        Some(values)
    }

    /// Look up an entry without touching the hit/miss counters or the LRU
    /// stamp — the double-check inside [`ValueCache::begin_fetch`], whose
    /// first (counted) lookup already classified this fetch.
    fn peek(&self, key: K) -> Option<Arc<[f64]>> {
        let shard = self.shard_of(key).lock();
        shard.map.get(&key).map(|e| Arc::clone(&e.values))
    }

    /// Start resolving a value with cross-batch stampede protection.
    ///
    /// * [`Fetch::Ready`] — cached; nothing to do.
    /// * [`Fetch::Lead`] — this caller owns the (single) computation; it
    ///   must call [`FlightLead::finish`] with the outcome.
    /// * [`Fetch::Wait`] — some other caller is computing this very
    ///   value; [`Flight::wait`] returns its published result.
    ///
    /// The fast path is one counted cache lookup — identical to
    /// [`ValueCache::get`] — so hits never touch the reservation lock.
    /// On a miss, the reservation map is consulted (and the cache
    /// re-checked) under the reservation lock; because a completing
    /// leader inserts into the cache *before* releasing its reservation,
    /// every fetch lands in exactly one of the three arms and at most one
    /// computation per key can be in flight.
    pub fn begin_fetch(&self, key: K) -> Fetch<'_, K> {
        if let Some(values) = self.get(key) {
            return Fetch::Ready(values);
        }
        let mut inflight = self.inflight.lock();
        // Double-check: a leader may have completed between the miss
        // above and taking the reservation lock.
        if let Some(values) = self.peek(key) {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            // The first lookup counted a miss for what is now a hit;
            // leave both counts — they describe what each lookup saw.
            return Fetch::Ready(values);
        }
        if let Some(flight) = inflight.get(&key) {
            self.stats.flight_waits.fetch_add(1, Ordering::Relaxed);
            return Fetch::Wait(Arc::clone(flight));
        }
        let flight = Flight::new();
        inflight.insert(key, Arc::clone(&flight));
        self.stats.flight_leads.fetch_add(1, Ordering::Relaxed);
        Fetch::Lead(FlightLead {
            cache: self,
            key,
            flight,
            resolved: false,
        })
    }

    /// Publish a leader's result and release its reservation. The cache
    /// insert strictly precedes the reservation removal, so a racer that
    /// misses the cache and then takes the reservation lock either finds
    /// the flight still registered (→ waits) or, if it is gone, is
    /// guaranteed to find the value cached by its double-check. The
    /// insert itself (shard lock + possible LRU eviction loop) runs
    /// *outside* the reservation lock so leaders completing unrelated
    /// keys never serialize on it.
    fn complete_flight(
        &self,
        key: K,
        flight: &Arc<Flight>,
        result: Result<Arc<[f64]>, ServeError>,
    ) {
        if let Ok(values) = &result {
            self.insert(key, Arc::clone(values));
        }
        self.inflight.lock().remove(&key);
        flight.publish(result);
    }

    /// Insert a value, evicting LRU entries of its shard until it fits.
    /// Re-inserting an existing key refreshes the value (the bytes are
    /// identical by construction — both sides computed the same
    /// deterministic function of the same inputs). Values larger than one
    /// shard's budget are not cached.
    pub fn insert(&self, key: K, values: Arc<[f64]>) {
        let cost = std::mem::size_of_val(values.as_ref());
        if cost > self.shard_budget {
            self.stats.oversize_rejects.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut evicted = 0u64;
        {
            let mut shard = self.shard_of(key).lock();
            if let Some(old) = shard.map.remove(&key) {
                shard.bytes -= std::mem::size_of_val(old.values.as_ref());
            }
            while shard.bytes + cost > self.shard_budget {
                // O(n) LRU scan: eviction only triggers once a shard is
                // full, and shards stay small under tight budgets — the
                // regime where this runs at all.
                let Some((&lru, _)) = shard.map.iter().min_by_key(|(_, e)| e.stamp) else {
                    break;
                };
                let old = shard.map.remove(&lru).expect("lru key present");
                shard.bytes -= std::mem::size_of_val(old.values.as_ref());
                evicted += 1;
            }
            shard.tick += 1;
            let stamp = shard.tick;
            shard.bytes += cost;
            shard.map.insert(key, Entry { values, stamp });
        }
        if evicted > 0 {
            self.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let mut resident_bytes = 0u64;
        let mut resident_chunks = 0u64;
        for shard in &self.shards {
            let s = shard.lock();
            resident_bytes += s.bytes as u64;
            resident_chunks += s.map.len() as u64;
        }
        CacheStats {
            resident_bytes,
            resident_chunks,
            ..self.stats.snapshot()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(chunk: u32) -> ChunkKey {
        ChunkKey {
            archive: 0,
            member: 0,
            chunk,
        }
    }

    fn chunk_of(len: usize, fill: f64) -> Arc<[f64]> {
        Arc::from(vec![fill; len])
    }

    #[test]
    fn hit_returns_inserted_values() {
        let cache = ChunkCache::new(1 << 16, 2);
        cache.insert(key(1), chunk_of(8, 1.5));
        assert_eq!(cache.get(key(1)).unwrap().as_ref(), &[1.5; 8]);
        assert!(cache.get(key(2)).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.resident_chunks), (1, 1, 1));
    }

    #[test]
    fn lru_entry_is_evicted_first() {
        // Single shard, room for exactly two 8-value chunks.
        let cache = ChunkCache::new(2 * 8 * 8, 1);
        cache.insert(key(1), chunk_of(8, 1.0));
        cache.insert(key(2), chunk_of(8, 2.0));
        // Touch 1 so 2 becomes LRU.
        assert!(cache.get(key(1)).is_some());
        cache.insert(key(3), chunk_of(8, 3.0));
        assert!(cache.get(key(1)).is_some(), "recently used stays");
        assert!(cache.get(key(2)).is_none(), "LRU evicted");
        assert!(cache.get(key(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let cache = ChunkCache::new(0, 4);
        cache.insert(key(1), chunk_of(4, 1.0));
        assert!(cache.get(key(1)).is_none());
        assert_eq!(cache.stats().resident_bytes, 0);
        assert_eq!(cache.stats().oversize_rejects, 1);
    }

    #[test]
    fn oversize_chunks_are_served_uncached() {
        let cache = ChunkCache::new(64, 1); // budget: one 8-value chunk
        cache.insert(key(1), chunk_of(100, 1.0));
        assert!(cache.get(key(1)).is_none());
        assert_eq!(cache.stats().oversize_rejects, 1);
        // Small chunks still cache fine.
        cache.insert(key(2), chunk_of(4, 2.0));
        assert!(cache.get(key(2)).is_some());
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let cache = ChunkCache::new(1 << 12, 1);
        cache.insert(key(1), chunk_of(16, 1.0));
        cache.insert(key(1), chunk_of(16, 1.0));
        let s = cache.stats();
        assert_eq!(s.resident_chunks, 1);
        assert_eq!(s.resident_bytes, 16 * 8);
    }

    #[test]
    fn budget_is_respected_under_churn() {
        let budget = 4 * 32 * 8;
        let cache = ChunkCache::new(budget, 2);
        for i in 0..200 {
            cache.insert(key(i), chunk_of(32, f64::from(i)));
        }
        let s = cache.stats();
        assert!(s.resident_bytes <= budget as u64);
        assert!(s.evictions > 0);
        // Whatever survived reads back intact.
        for i in 0..200 {
            if let Some(v) = cache.get(key(i)) {
                assert!(v.iter().all(|&x| x == f64::from(i)));
            }
        }
    }

    #[test]
    fn small_budgets_collapse_to_fewer_shards() {
        // A budget far below MIN_SHARD_BUDGET × shards must not be diced
        // into shards too small to hold a chunk: 16 requested shards over
        // a 2-chunk budget become one shard holding both chunks.
        let cache = ChunkCache::new(2 * 64 * 8, 16);
        cache.insert(key(1), chunk_of(64, 1.0));
        cache.insert(key(2), chunk_of(64, 2.0));
        assert!(cache.get(key(1)).is_some());
        assert!(cache.get(key(2)).is_some());
        assert_eq!(cache.stats().oversize_rejects, 0);
        // Large budgets keep the requested shard count.
        let cache = ChunkCache::new(256 << 20, 16);
        assert_eq!(cache.shards.len(), 16);
    }

    #[test]
    fn single_flight_leads_then_serves_from_cache() {
        let cache = ChunkCache::new(1 << 16, 2);
        // First fetch leads…
        let Fetch::Lead(lead) = cache.begin_fetch(key(1)) else {
            panic!("first fetch must lead");
        };
        // …a racing fetch waits on the same flight…
        let Fetch::Wait(flight) = cache.begin_fetch(key(1)) else {
            panic!("racing fetch must wait");
        };
        // …and an unrelated key gets its own lead.
        let Fetch::Lead(other) = cache.begin_fetch(key(2)) else {
            panic!("unrelated key must lead");
        };
        other.finish(Ok(chunk_of(4, 2.0)));
        lead.finish(Ok(chunk_of(4, 1.0)));
        assert_eq!(flight.wait().unwrap().as_ref(), &[1.0; 4]);
        // Post-completion fetches are plain hits.
        let Fetch::Ready(v) = cache.begin_fetch(key(1)) else {
            panic!("completed chunk must be cached");
        };
        assert_eq!(v.as_ref(), &[1.0; 4]);
        let s = cache.stats();
        assert_eq!((s.flight_leads, s.flight_waits), (2, 1));
    }

    #[test]
    fn dropped_leader_fails_waiters_instead_of_hanging() {
        let cache = ChunkCache::new(1 << 16, 1);
        let Fetch::Lead(lead) = cache.begin_fetch(key(7)) else {
            panic!()
        };
        let Fetch::Wait(flight) = cache.begin_fetch(key(7)) else {
            panic!()
        };
        drop(lead); // leader panicked / unwound
        assert!(flight.wait().is_err());
        // The reservation is released: the next fetch leads afresh.
        assert!(matches!(cache.begin_fetch(key(7)), Fetch::Lead(_)));
    }

    #[test]
    fn failed_decode_propagates_to_waiters_and_is_not_cached() {
        let cache = ChunkCache::new(1 << 16, 1);
        let Fetch::Lead(lead) = cache.begin_fetch(key(3)) else {
            panic!()
        };
        let Fetch::Wait(flight) = cache.begin_fetch(key(3)) else {
            panic!()
        };
        lead.finish(Err(crate::error::ServeError::BadRequest("boom".into())));
        assert!(flight.wait().is_err());
        assert_eq!(cache.stats().resident_chunks, 0);
        assert!(matches!(cache.begin_fetch(key(3)), Fetch::Lead(_)));
    }

    #[test]
    fn zero_budget_single_flight_still_hands_waiters_the_value() {
        let cache = ChunkCache::new(0, 4);
        let Fetch::Lead(lead) = cache.begin_fetch(key(1)) else {
            panic!()
        };
        let Fetch::Wait(flight) = cache.begin_fetch(key(1)) else {
            panic!()
        };
        lead.finish(Ok(chunk_of(4, 9.0)));
        // Waiters share the flight's value even though nothing is cached…
        assert_eq!(flight.wait().unwrap().as_ref(), &[9.0; 4]);
        // …and with no cache to land in, the next fetch decodes again.
        assert!(matches!(cache.begin_fetch(key(1)), Fetch::Lead(_)));
    }

    #[test]
    fn concurrent_stampede_coalesces_to_one_lead() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = std::sync::Arc::new(ChunkCache::new(1 << 20, 4));
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
        let decodes = std::sync::Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = std::sync::Arc::clone(&cache);
                let barrier = std::sync::Arc::clone(&barrier);
                let decodes = std::sync::Arc::clone(&decodes);
                std::thread::spawn(move || -> Arc<[f64]> {
                    barrier.wait();
                    match cache.begin_fetch(key(42)) {
                        Fetch::Ready(v) => v,
                        Fetch::Wait(flight) => flight.wait().unwrap(),
                        Fetch::Lead(lead) => {
                            decodes.fetch_add(1, Ordering::SeqCst);
                            let v = chunk_of(16, 42.0);
                            lead.finish(Ok(Arc::clone(&v)));
                            v
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap().as_ref(), &[42.0; 16]);
        }
        assert_eq!(
            decodes.load(Ordering::SeqCst),
            1,
            "exactly one thread may decode a stampeded chunk"
        );
    }

    #[test]
    fn hit_rate_reports_fraction() {
        let cache = ChunkCache::new(1 << 12, 1);
        assert_eq!(cache.stats().hit_rate(), 0.0);
        cache.insert(key(1), chunk_of(4, 0.0));
        let _ = cache.get(key(1));
        let _ = cache.get(key(2));
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn product_cache_instantiates_independently() {
        use crate::product::{ProductDescriptor, ProductSource, ProductStat};
        let products = ProductCache::new(1 << 16, 2);
        let d = ProductDescriptor {
            source: ProductSource::Member {
                archive: "a".to_string(),
                member: "m".to_string(),
            },
            stat: ProductStat::MeanStd,
            time: None,
            space: None,
        };
        let Fetch::Lead(lead) = products.begin_fetch(d.key()) else {
            panic!("first product fetch must lead");
        };
        lead.finish(Ok(chunk_of(2, 3.5)));
        let Fetch::Ready(v) = products.begin_fetch(d.key()) else {
            panic!("product must be cached");
        };
        assert_eq!(v.as_ref(), &[3.5; 2]);
        let s = products.stats();
        assert_eq!((s.hits, s.misses, s.flight_leads), (1, 1, 1));
    }
}
