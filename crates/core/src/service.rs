//! A concurrent serving surface over prepared queries.
//!
//! [`PlanService`] is the piece the ROADMAP's "serve heavy traffic"
//! north star asks for: a bounded, LRU-evicting cache of
//! [`PreparedQuery`] artifacts keyed by the *normalized* query plus the
//! optimizer configuration. The first request for a query pays the
//! optimization + counting cost; every subsequent request — from any
//! thread — gets an [`Arc`] handle to the same immutable artifact and
//! serves counts, pages, and samples lock-free (the cache lock is held
//! only for the key lookup, never during optimization or sampling).
//!
//! Two bounds are supported, separately or together:
//!
//! * an **entry capacity** (classic LRU count), and
//! * a **byte budget**: entries are charged their real
//!   [`PreparedQuery::size_bytes`] (the flat link/count buffers plus the
//!   memo) and the LRU tail is evicted until the resident total fits.
//!   A single artifact larger than the whole budget is still admitted —
//!   the cache then holds exactly that one entry — so pathological
//!   queries degrade to "no caching" rather than a livelock.
//!
//! Racing first preparations of the same key are *single-flighted*: the
//! first thread optimizes, every concurrent requester for the same key
//! blocks on that flight and adopts its artifact, so a thundering herd
//! performs one optimization in total (observable via
//! [`ServiceStats::coalesced`] and the optimizer's
//! `thread_optimizations_performed` counter).

use crate::{Error, PreparedQuery};
use plansample_catalog::Catalog;
use plansample_optimizer::OptimizerConfig;
use plansample_query::QuerySpec;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Snapshot of a service's cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that had to prepare (optimize + count) the query.
    pub misses: u64,
    /// Requests that joined another thread's in-flight preparation
    /// instead of optimizing themselves (singleflight adoptions).
    pub coalesced: u64,
    /// Prepared artifacts evicted by the LRU policy (count or byte
    /// bound).
    pub evictions: u64,
    /// Prepared artifacts currently cached.
    pub entries: usize,
    /// First preparations currently in flight (leader optimizing,
    /// possibly with waiters coalesced onto it). The admission-control
    /// signal a serving front-end sheds new preparations on.
    pub inflight: usize,
    /// Bytes held by the cached artifacts
    /// (Σ [`PreparedQuery::size_bytes`]).
    pub resident_bytes: usize,
    /// Maximum cached artifacts (`usize::MAX` when only byte-bounded).
    pub capacity: usize,
    /// Byte budget, if the service is byte-bounded.
    pub byte_budget: Option<usize>,
}

struct CacheEntry {
    prepared: Arc<PreparedQuery>,
    size_bytes: usize,
    last_used: u64,
}

/// One in-flight first preparation, shared by the leader and any
/// requesters that arrive while it runs.
struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

enum FlightState {
    Pending,
    Done(Result<Arc<PreparedQuery>, Error>),
    /// The leader unwound without a result (a panic inside `prepare`);
    /// waiters retry from scratch.
    Abandoned,
}

struct CacheState {
    entries: HashMap<String, CacheEntry>,
    inflight: HashMap<String, Arc<Flight>>,
    resident_bytes: usize,
    tick: u64,
    evictions: u64,
}

impl CacheState {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Evicts LRU entries until both bounds hold. At least one entry is
    /// always kept, so an artifact larger than the byte budget does not
    /// evict itself (the cache degrades to single-entry, not to a
    /// livelock).
    fn enforce_bounds(&mut self, capacity: usize, byte_budget: Option<usize>) {
        let over = |s: &CacheState| {
            s.entries.len() > capacity
                || byte_budget.is_some_and(|b| s.resident_bytes > b && s.entries.len() > 1)
        };
        while over(self) {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("over-bound cache is non-empty");
            let removed = self.entries.remove(&oldest).expect("key just observed");
            self.resident_bytes -= removed.size_bytes;
            self.evictions += 1;
        }
    }
}

/// A bounded LRU cache of prepared queries, safe to share across
/// threads, with a normalized-query + optimizer-config key.
///
/// ```
/// use plansample::PlanService;
/// use plansample_optimizer::OptimizerConfig;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use std::sync::Arc;
///
/// let (catalog, _) = plansample_catalog::tpch::catalog();
/// let service = Arc::new(PlanService::new(catalog, OptimizerConfig::default(), 8));
/// let query = plansample_query::tpch::q6(service.catalog());
///
/// // First call prepares; later calls (any thread) hit the cache.
/// let p1 = service.get_or_prepare(&query).unwrap();
/// let p2 = service.get_or_prepare(&query).unwrap();
/// assert!(Arc::ptr_eq(&p1, &p2));
/// assert_eq!(service.stats().misses, 1);
/// assert_eq!(service.stats().hits, 1);
/// assert_eq!(service.stats().resident_bytes, p1.size_bytes());
///
/// let mut rng = StdRng::seed_from_u64(1);
/// assert_eq!(p1.sample_batch(&mut rng, 10).len(), 10);
/// ```
pub struct PlanService {
    catalog: Catalog,
    config: OptimizerConfig,
    capacity: usize,
    byte_budget: Option<usize>,
    state: Mutex<CacheState>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    /// Write-through persistence hook: called with every freshly
    /// prepared artifact, outside all cache locks (see
    /// [`set_persist`](Self::set_persist)).
    persist: Mutex<Option<PersistHook>>,
}

/// Shape of the write-through persistence hook installed by
/// [`PlanService::set_persist`].
pub type PersistHook = Arc<dyn Fn(&Arc<PreparedQuery>) + Send + Sync>;

impl std::fmt::Debug for PlanService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("PlanService")
            .field("capacity", &self.capacity)
            .field("byte_budget", &self.byte_budget)
            .field("stats", &stats)
            .finish_non_exhaustive()
    }
}

impl PlanService {
    /// Creates a service over a catalog and optimizer configuration,
    /// caching at most `capacity` prepared queries (at least 1), with no
    /// byte bound.
    pub fn new(catalog: Catalog, config: OptimizerConfig, capacity: usize) -> Self {
        Self::bounded(catalog, config, capacity.max(1), None)
    }

    /// Creates a service bounded by resident *bytes* instead of entry
    /// count: entries are charged their [`PreparedQuery::size_bytes`]
    /// and the LRU tail is evicted once the total exceeds `max_bytes`.
    /// (One entry is always retained, even if alone it exceeds the
    /// budget.)
    pub fn with_byte_budget(catalog: Catalog, config: OptimizerConfig, max_bytes: usize) -> Self {
        Self::bounded(catalog, config, usize::MAX, Some(max_bytes))
    }

    /// Creates a service with both bounds: at most `capacity` entries
    /// *and* (when given) at most `max_bytes` resident.
    pub fn bounded(
        catalog: Catalog,
        config: OptimizerConfig,
        capacity: usize,
        max_bytes: Option<usize>,
    ) -> Self {
        PlanService {
            catalog,
            config,
            capacity: capacity.max(1),
            byte_budget: max_bytes,
            state: Mutex::new(CacheState {
                entries: HashMap::new(),
                inflight: HashMap::new(),
                resident_bytes: 0,
                tick: 0,
                evictions: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            persist: Mutex::new(None),
        }
    }

    /// Installs a write-through persistence hook (e.g. an
    /// `ArtifactStore` save). The hook runs on the flight *leader*
    /// after each successful first preparation — once per prepared
    /// artifact, never for cache hits or coalesced waiters — after the
    /// artifact is published to the cache and with no service lock
    /// held, so a slow disk stalls only the one request that paid for
    /// the optimization anyway. Errors are the hook's own business
    /// (log and carry on); serving never depends on persistence.
    pub fn set_persist(&self, hook: PersistHook) {
        *self.persist.lock().expect("persist hook poisoned") = Some(hook);
    }

    /// Seeds the cache with an externally prepared artifact (startup
    /// warming from an artifact store). Returns `true` if the artifact
    /// was admitted: it must have been prepared under this service's
    /// exact optimizer configuration (checked via the same normalized
    /// key `get_or_prepare` uses — a stale artifact from an old config
    /// is silently refused rather than served wrong), and a key that is
    /// already cached or in flight keeps its existing artifact.
    /// Admission charges the byte budget and may evict LRU entries,
    /// like any other insert.
    pub fn warm(&self, prepared: Arc<PreparedQuery>) -> bool {
        // Same query on both sides, so the two keys differ exactly when
        // the configurations' renderings do.
        if format!("{:?}", prepared.config()) != format!("{:?}", self.config) {
            return false;
        }
        let key = self.key_for(prepared.query());
        let mut state = self.state.lock().expect("service cache poisoned");
        if state.entries.contains_key(&key) || state.inflight.contains_key(&key) {
            return false;
        }
        let tick = state.next_tick();
        let size_bytes = prepared.size_bytes();
        state.entries.insert(
            key,
            CacheEntry {
                prepared,
                size_bytes,
                last_used: tick,
            },
        );
        state.resident_bytes += size_bytes;
        state.enforce_bounds(self.capacity, self.byte_budget);
        true
    }

    /// The service's catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The optimizer configuration every cached artifact is prepared
    /// under.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// The key this service caches `query` under: [`cache_key`] with the
    /// service's own configuration. A caller that serves the same query
    /// many times computes it once and uses the keyed entry points
    /// below, which format nothing.
    pub fn key_for(&self, query: &QuerySpec) -> String {
        cache_key(query, &self.config)
    }

    /// The hit path as one call and one lock acquisition: if `key` (from
    /// [`key_for`](Self::key_for)) is cached, bumps its LRU tick, counts
    /// a hit and returns the artifact. A key that is not cached returns
    /// `None` and counts nothing, so a serving front-end can decide
    /// whether to shed the preparation (see [`ServiceStats::inflight`])
    /// before calling [`get_or_prepare_keyed`](Self::get_or_prepare_keyed).
    pub fn get_keyed(&self, key: &str) -> Option<Arc<PreparedQuery>> {
        self.get_keyed_if(key, |_| true)
    }

    /// [`get_keyed`](Self::get_keyed) for a caller that can only use
    /// some artifacts: one that `accept` turns down is treated like a
    /// key that is not cached — `None`, nothing counted, its LRU tick
    /// untouched — so the request can be handed to whoever serves it
    /// and be counted there, once. `accept` runs under the cache lock;
    /// keep it to a field read.
    pub fn get_keyed_if(
        &self,
        key: &str,
        accept: impl FnOnce(&PreparedQuery) -> bool,
    ) -> Option<Arc<PreparedQuery>> {
        let mut state = self.state.lock().expect("service cache poisoned");
        self.hit(&mut state, key, accept)
    }

    /// Counts and returns a cache hit on an artifact `accept` takes; the
    /// LRU clock ticks either way.
    fn hit(
        &self,
        state: &mut CacheState,
        key: &str,
        accept: impl FnOnce(&PreparedQuery) -> bool,
    ) -> Option<Arc<PreparedQuery>> {
        let tick = state.next_tick();
        let entry = state.entries.get_mut(key)?;
        if !accept(&entry.prepared) {
            return None;
        }
        entry.last_used = tick;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&entry.prepared))
    }

    /// Returns the prepared artifact for `query`, preparing and caching
    /// it on first request.
    ///
    /// The cache lock is *not* held while optimizing, so concurrent
    /// misses on different queries prepare in parallel. Concurrent
    /// requests for the *same* fresh query are single-flighted: exactly
    /// one thread optimizes, the rest block on its flight and adopt the
    /// shared artifact (or its error).
    pub fn get_or_prepare(&self, query: &QuerySpec) -> Result<Arc<PreparedQuery>, Error> {
        self.get_or_prepare_keyed(&self.key_for(query), query)
    }

    /// [`get_or_prepare`](Self::get_or_prepare) for a caller that kept
    /// the key: `key` must be `self.key_for(query)`.
    pub fn get_or_prepare_keyed(
        &self,
        key: &str,
        query: &QuerySpec,
    ) -> Result<Arc<PreparedQuery>, Error> {
        loop {
            let flight = {
                let mut state = self.state.lock().expect("service cache poisoned");
                if let Some(prepared) = self.hit(&mut state, key, |_| true) {
                    return Ok(prepared);
                }
                match state.inflight.get(key) {
                    Some(flight) => Some(Arc::clone(flight)),
                    None => {
                        state.inflight.insert(
                            key.to_string(),
                            Arc::new(Flight {
                                state: Mutex::new(FlightState::Pending),
                                done: Condvar::new(),
                            }),
                        );
                        None
                    }
                }
            };

            match flight {
                // Someone else is preparing this key: wait and adopt.
                Some(flight) => {
                    let mut fs = flight.state.lock().expect("flight poisoned");
                    loop {
                        match &*fs {
                            FlightState::Pending => {
                                fs = flight.done.wait(fs).expect("flight poisoned");
                            }
                            FlightState::Done(result) => {
                                self.coalesced.fetch_add(1, Ordering::Relaxed);
                                return result.clone();
                            }
                            // Leader unwound without a result: retry from
                            // the top (cache may or may not hold the key).
                            FlightState::Abandoned => break,
                        }
                    }
                }
                // This thread is the leader: prepare outside every lock.
                None => return self.lead_flight(key, query),
            }
        }
    }

    /// Leader path of one flight: optimize, publish the result to both
    /// the cache and the flight, wake waiters. The guard marks the
    /// flight abandoned if `prepare` unwinds, so waiters never hang.
    fn lead_flight(&self, key: &str, query: &QuerySpec) -> Result<Arc<PreparedQuery>, Error> {
        struct FlightGuard<'a> {
            service: &'a PlanService,
            key: &'a str,
            result: Option<Result<Arc<PreparedQuery>, Error>>,
        }
        impl Drop for FlightGuard<'_> {
            fn drop(&mut self) {
                let mut state = self.service.state.lock().expect("service cache poisoned");
                if let Some(Ok(prepared)) = &self.result {
                    let tick = state.next_tick();
                    let size_bytes = prepared.size_bytes();
                    // A racing insert cannot exist: the flight owned the
                    // key from registration to here.
                    state.entries.insert(
                        self.key.to_string(),
                        CacheEntry {
                            prepared: Arc::clone(prepared),
                            size_bytes,
                            last_used: tick,
                        },
                    );
                    state.resident_bytes += size_bytes;
                    state.enforce_bounds(self.service.capacity, self.service.byte_budget);
                }
                let flight = state
                    .inflight
                    .remove(self.key)
                    .expect("leader owns the in-flight marker");
                drop(state);
                let mut fs = flight.state.lock().expect("flight poisoned");
                *fs = match self.result.take() {
                    Some(result) => FlightState::Done(result),
                    None => FlightState::Abandoned,
                };
                drop(fs);
                flight.done.notify_all();
            }
        }

        let mut guard = FlightGuard {
            service: self,
            key,
            result: None,
        };
        debug_assert_eq!(key, self.key_for(query), "key is not this query's");
        self.misses.fetch_add(1, Ordering::Relaxed);
        let result = PreparedQuery::prepare(&self.catalog, query, &self.config).map(Arc::new);
        guard.result = Some(result.clone());
        drop(guard); // publish + wake before returning
        if let Ok(prepared) = &result {
            // Write-through persistence: after publication, outside
            // every cache lock, on the leader only.
            let hook = self.persist.lock().expect("persist hook poisoned").clone();
            if let Some(hook) = hook {
                hook(prepared);
            }
        }
        result
    }

    /// Current cache counters.
    pub fn stats(&self) -> ServiceStats {
        let state = self.state.lock().expect("service cache poisoned");
        ServiceStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: state.evictions,
            entries: state.entries.len(),
            inflight: state.inflight.len(),
            resident_bytes: state.resident_bytes,
            capacity: self.capacity,
            byte_budget: self.byte_budget,
        }
    }

    /// Drops every cached artifact (outstanding [`Arc`] handles stay
    /// valid — the artifacts are immutable). In-flight preparations are
    /// unaffected.
    pub fn clear(&self) {
        let mut state = self.state.lock().expect("service cache poisoned");
        state.entries.clear();
        state.resident_bytes = 0;
    }
}

/// Normalized cache key: queries that differ only in the *order* their
/// join predicates or filters were written hash to the same prepared
/// artifact; the optimizer configuration participates because it changes
/// the memo (and therefore every count and rank).
///
/// Public because the artifact store fingerprints its entries with the
/// same normalization, so a store key and a cache key agree byte for
/// byte (see `plansample-artifact`).
pub fn cache_key(query: &QuerySpec, config: &OptimizerConfig) -> String {
    let mut edges: Vec<String> = query.join_edges.iter().map(|e| format!("{e:?}")).collect();
    edges.sort_unstable();
    let mut filters: Vec<String> = query.filters.iter().map(|f| format!("{f:?}")).collect();
    filters.sort_unstable();
    format!(
        "rels:{:?};edges:{:?};filters:{:?};agg:{:?};proj:{:?};cfg:{:?}",
        query.relations, edges, filters, query.aggregate, query.projection, config
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn service(capacity: usize) -> PlanService {
        let (catalog, _) = plansample_catalog::tpch::catalog();
        PlanService::new(catalog, OptimizerConfig::default(), capacity)
    }

    fn two_rel_query(catalog: &Catalog, a: &str, b: &str, ak: &str, bk: &str) -> QuerySpec {
        let mut qb = plansample_query::QueryBuilder::new(catalog);
        qb.rel(a, None).unwrap();
        qb.rel(b, None).unwrap();
        qb.join((a, ak), (b, bk)).unwrap();
        qb.build().unwrap()
    }

    #[test]
    fn repeated_requests_share_one_artifact() {
        let s = service(4);
        let q = two_rel_query(
            s.catalog(),
            "nation",
            "region",
            "n_regionkey",
            "r_regionkey",
        );
        let before = plansample_optimizer::thread_optimizations_performed();
        let p1 = s.get_or_prepare(&q).unwrap();
        let p2 = s.get_or_prepare(&q).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(
            plansample_optimizer::thread_optimizations_performed() - before,
            1
        );
        let stats = s.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.resident_bytes, p1.size_bytes());
        assert_eq!(stats.coalesced, 0);
    }

    #[test]
    fn normalization_ignores_predicate_order() {
        let (catalog, _) = plansample_catalog::tpch::catalog();
        let build = |swap: bool| {
            let mut qb = plansample_query::QueryBuilder::new(&catalog);
            qb.rel("supplier", Some("s")).unwrap();
            qb.rel("nation", Some("n")).unwrap();
            qb.rel("region", Some("r")).unwrap();
            if swap {
                qb.join(("n", "n_regionkey"), ("r", "r_regionkey")).unwrap();
                qb.join(("s", "s_nationkey"), ("n", "n_nationkey")).unwrap();
            } else {
                qb.join(("s", "s_nationkey"), ("n", "n_nationkey")).unwrap();
                qb.join(("n", "n_regionkey"), ("r", "r_regionkey")).unwrap();
            }
            qb.build().unwrap()
        };
        let config = OptimizerConfig::default();
        // Join edges end up in different vector orders…
        assert_ne!(
            format!("{:?}", build(false).join_edges),
            format!("{:?}", build(true).join_edges)
        );
        // …but normalize to the same cache key.
        assert_eq!(
            cache_key(&build(false), &config),
            cache_key(&build(true), &config)
        );
        let (q_a, q_b) = (build(false), build(true));
        let s = PlanService::new(catalog, config, 4);
        s.get_or_prepare(&q_a).unwrap();
        s.get_or_prepare(&q_b).unwrap();
        assert_eq!(s.stats().entries, 1, "one artifact for both spellings");
    }

    #[test]
    fn config_participates_in_the_key() {
        let (catalog, _) = plansample_catalog::tpch::catalog();
        let q = two_rel_query(&catalog, "nation", "region", "n_regionkey", "r_regionkey");
        assert_ne!(
            cache_key(&q, &OptimizerConfig::default()),
            cache_key(&q, &OptimizerConfig::with_cross_products())
        );
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let s = service(2);
        let q1 = two_rel_query(
            s.catalog(),
            "nation",
            "region",
            "n_regionkey",
            "r_regionkey",
        );
        let q2 = two_rel_query(
            s.catalog(),
            "supplier",
            "nation",
            "s_nationkey",
            "n_nationkey",
        );
        let q3 = two_rel_query(
            s.catalog(),
            "customer",
            "nation",
            "c_nationkey",
            "n_nationkey",
        );
        s.get_or_prepare(&q1).unwrap();
        s.get_or_prepare(&q2).unwrap();
        s.get_or_prepare(&q1).unwrap(); // refresh q1: q2 is now coldest
        s.get_or_prepare(&q3).unwrap(); // evicts q2
        let stats = s.stats();
        assert_eq!((stats.entries, stats.evictions), (2, 1));
        s.get_or_prepare(&q1).unwrap();
        assert_eq!(s.stats().misses, 3, "q1 survived the eviction");
        s.get_or_prepare(&q2).unwrap();
        assert_eq!(s.stats().misses, 4, "q2 was evicted and re-prepares");
    }

    #[test]
    fn byte_budget_bounds_resident_bytes() {
        let (catalog, _) = plansample_catalog::tpch::catalog();
        // Size one artifact, then budget for roughly two.
        let probe = {
            let s = PlanService::new(catalog.clone(), OptimizerConfig::default(), 1);
            let q = two_rel_query(&catalog, "nation", "region", "n_regionkey", "r_regionkey");
            s.get_or_prepare(&q).unwrap().size_bytes()
        };
        let budget = probe * 5 / 2;
        let s = PlanService::with_byte_budget(catalog, OptimizerConfig::default(), budget);
        let queries = [
            ("nation", "region", "n_regionkey", "r_regionkey"),
            ("supplier", "nation", "s_nationkey", "n_nationkey"),
            ("customer", "nation", "c_nationkey", "n_nationkey"),
            ("orders", "customer", "o_custkey", "c_custkey"),
        ];
        for (a, b, ak, bk) in queries {
            let q = two_rel_query(s.catalog(), a, b, ak, bk);
            s.get_or_prepare(&q).unwrap();
            let stats = s.stats();
            assert!(
                stats.resident_bytes <= budget,
                "resident {} exceeds budget {budget}",
                stats.resident_bytes
            );
        }
        let stats = s.stats();
        assert_eq!(stats.byte_budget, Some(budget));
        assert!(stats.evictions >= 1, "the budget forced evictions");
        assert!(stats.entries >= 1 && stats.entries < queries.len());
        // Resident bytes stay consistent with the surviving entries.
        assert!(stats.resident_bytes > 0);
        s.clear();
        assert_eq!(s.stats().resident_bytes, 0);
    }

    #[test]
    fn oversized_artifact_is_admitted_alone() {
        let (catalog, _) = plansample_catalog::tpch::catalog();
        // Budget far below any artifact: every insert evicts the
        // previous entry but keeps itself.
        let s = PlanService::with_byte_budget(catalog, OptimizerConfig::default(), 1);
        let q1 = two_rel_query(
            s.catalog(),
            "nation",
            "region",
            "n_regionkey",
            "r_regionkey",
        );
        let q2 = two_rel_query(
            s.catalog(),
            "supplier",
            "nation",
            "s_nationkey",
            "n_nationkey",
        );
        s.get_or_prepare(&q1).unwrap();
        assert_eq!(s.stats().entries, 1, "single oversized entry is kept");
        s.get_or_prepare(&q2).unwrap();
        let stats = s.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn racing_first_preparations_single_flight() {
        let (catalog, _) = plansample_catalog::tpch::catalog();
        let s = Arc::new(PlanService::new(catalog, OptimizerConfig::default(), 4));
        let q = Arc::new(two_rel_query(
            s.catalog(),
            "lineitem",
            "orders",
            "l_orderkey",
            "o_orderkey",
        ));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (s, q, barrier) = (Arc::clone(&s), Arc::clone(&q), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    let before = plansample_optimizer::thread_optimizations_performed();
                    barrier.wait();
                    let prepared = s.get_or_prepare(&q).unwrap();
                    let delta = plansample_optimizer::thread_optimizations_performed() - before;
                    (prepared, delta)
                })
            })
            .collect();
        let results: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        let total_optimizations: u64 = results.iter().map(|(_, d)| d).sum();
        assert_eq!(
            total_optimizations, 1,
            "racing threads must perform exactly one optimization in total"
        );
        assert!(
            Arc::ptr_eq(&results[0].0, &results[1].0),
            "both racers share one artifact"
        );
        let stats = s.stats();
        assert_eq!(stats.misses, 1, "one leader");
        assert_eq!(
            stats.hits + stats.coalesced,
            1,
            "the other racer adopted via the cache or the flight"
        );
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn failed_preparation_propagates_to_all_racers_and_caches_nothing() {
        let (catalog, _) = plansample_catalog::tpch::catalog();
        let s = Arc::new(PlanService::new(catalog, OptimizerConfig::default(), 4));
        // Disconnected query: optimization fails.
        let q = {
            let mut qb = plansample_query::QueryBuilder::new(s.catalog());
            qb.rel("nation", None).unwrap();
            qb.rel("region", None).unwrap();
            Arc::new(qb.build().unwrap())
        };
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (s, q, barrier) = (Arc::clone(&s), Arc::clone(&q), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    s.get_or_prepare(&q)
                })
            })
            .collect();
        for w in workers {
            assert!(matches!(w.join().unwrap(), Err(Error::Opt(_))));
        }
        assert_eq!(s.stats().entries, 0, "failures are not cached");
        // A later retry attempts preparation again (and fails again).
        assert!(s.get_or_prepare(&q).is_err());
        assert!(s.stats().misses >= 2);
    }

    #[test]
    fn keyed_hit_counts_and_refreshes_and_a_keyed_miss_counts_nothing() {
        let s = service(2);
        let q1 = two_rel_query(
            s.catalog(),
            "nation",
            "region",
            "n_regionkey",
            "r_regionkey",
        );
        let q2 = two_rel_query(
            s.catalog(),
            "supplier",
            "nation",
            "s_nationkey",
            "n_nationkey",
        );
        let q3 = two_rel_query(
            s.catalog(),
            "customer",
            "nation",
            "c_nationkey",
            "n_nationkey",
        );
        let (k1, k2) = (s.key_for(&q1), s.key_for(&q2));
        assert_eq!(k1, cache_key(&q1, s.config()));
        assert!(s.get_keyed(&k1).is_none());
        let stats = s.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.inflight),
            (0, 0, 0),
            "a keyed miss counts nothing and starts nothing"
        );

        let p1 = s.get_or_prepare_keyed(&k1, &q1).unwrap();
        s.get_or_prepare(&q2).unwrap();
        let hit = s.get_keyed(&k1).expect("prepared key is cached");
        assert!(Arc::ptr_eq(&hit, &p1));
        let stats = s.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));

        // An artifact the caller turns down is a keyed miss (nothing
        // counted); one it takes is a keyed hit.
        assert!(s.get_keyed_if(&k2, |_| false).is_none());
        assert_eq!(s.stats().hits, 1);
        assert!(s.get_keyed_if(&k1, |p| !p.total().is_zero()).is_some());
        assert_eq!(s.stats().hits, 2);

        // The keyed hit refreshed q1, so q3 evicts q2.
        s.get_or_prepare(&q3).unwrap();
        assert!(s.get_keyed(&k1).is_some(), "q1 survived the eviction");
        assert!(s.get_keyed(&k2).is_none(), "q2 was the coldest entry");
        s.clear();
        assert!(s.get_keyed(&k1).is_none());
    }

    #[test]
    fn clear_empties_but_handles_stay_valid() {
        let s = service(4);
        let q = two_rel_query(
            s.catalog(),
            "nation",
            "region",
            "n_regionkey",
            "r_regionkey",
        );
        let p = s.get_or_prepare(&q).unwrap();
        s.clear();
        assert_eq!(s.stats().entries, 0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(p.sample_batch(&mut rng, 5).len(), 5);
    }
}
