//! A concurrent serving surface over prepared queries, in two pieces.
//!
//! [`ArtifactCache`] is the piece the ROADMAP's "serve heavy traffic"
//! north star asks for: a bounded, LRU-evicting, singleflighted cache of
//! [`PreparedQuery`] artifacts. It knows no catalog and no query — keys
//! are opaque strings, a preparation is a closure — so one cache can
//! hold every workload a process serves, and what is resident, what is
//! evicted and how many preparations are in flight is decided in one
//! place. The first request for a key pays the optimization + counting
//! cost; every subsequent request — from any thread — gets an [`Arc`]
//! handle to the same immutable artifact and serves counts, pages, and
//! samples lock-free (the cache lock is held only for the key lookup,
//! never during optimization or sampling).
//!
//! [`PlanService`] is that cache with a catalog and an optimizer
//! configuration of its own, keyed by [`cache_key`] — the convenience
//! for a process that prepares over one catalog. A caller holding many
//! workloads (the server) keys one cache itself.
//!
//! Two bounds are supported, separately or together:
//!
//! * an **entry capacity** (classic LRU count), and
//! * a **byte budget**: entries are charged their real
//!   [`PreparedQuery::size_bytes`] (the flat link/count buffers plus the
//!   memo) and the LRU tail is evicted until the resident total fits.
//!   A single artifact larger than the whole budget is still admitted
//!   and served — the cache then holds exactly that one entry, the
//!   first thing the next insert evicts — so pathological queries
//!   degrade to "no caching" rather than a livelock, for whoever shares
//!   the cache: nothing is ever refused for being over budget.
//!
//! Racing first preparations of the same key are *single-flighted*: the
//! first thread optimizes, every concurrent requester for the same key
//! blocks on that flight and adopts its artifact, so a thundering herd
//! performs one optimization in total (observable via
//! [`ServiceStats::coalesced`] and the optimizer's
//! `thread_optimizations_performed` counter).

use crate::lru::Lru;
use crate::{Error, PreparedQuery};
use plansample_catalog::Catalog;
use plansample_optimizer::OptimizerConfig;
use plansample_query::QuerySpec;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Snapshot of a cache's counters, taken under its lock.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
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
    /// Byte budget, if the cache is byte-bounded.
    pub byte_budget: Option<usize>,
}

struct CacheEntry {
    prepared: Arc<PreparedQuery>,
    size_bytes: usize,
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
    /// The leader unwound without a result (a panic inside the
    /// preparation); waiters retry from scratch.
    Abandoned,
}

/// Lands a leader's flight when dropped: publishes its result to both
/// the cache and the flight and wakes the waiters — or, if the
/// preparation unwound and left no result, marks the flight abandoned,
/// so waiters never hang.
struct Landing<'a> {
    cache: &'a ArtifactCache,
    key: &'a str,
    result: Option<Result<Arc<PreparedQuery>, Error>>,
}

impl Drop for Landing<'_> {
    fn drop(&mut self) {
        let mut state = self.cache.lock();
        let flight = state
            .inflight
            .remove(self.key)
            .expect("leader owns the in-flight marker");
        if let Some(Ok(prepared)) = &self.result {
            let published = state.publish(self.key, Arc::clone(prepared));
            debug_assert!(published, "the flight owned the key until here");
        }
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

struct CacheState {
    entries: Lru<String, CacheEntry>,
    inflight: HashMap<String, Arc<Flight>>,
    /// The ledger; `entries` and `inflight` are read off the maps.
    stats: ServiceStats,
}

impl CacheState {
    /// Counts and returns a cache hit on an artifact `accept` takes.
    fn hit(
        &mut self,
        key: &str,
        accept: impl FnOnce(&PreparedQuery) -> bool,
    ) -> Option<Arc<PreparedQuery>> {
        let entry = self.entries.get_if(key, |e| accept(&e.prepared))?;
        self.stats.hits += 1;
        Some(Arc::clone(&entry.prepared))
    }

    /// Publishes `prepared` under `key` unless the key is taken
    /// (`false`), then evicts LRU entries until both bounds hold. At
    /// least one entry is always kept, so an artifact larger than the
    /// byte budget does not evict itself.
    fn publish(&mut self, key: &str, prepared: Arc<PreparedQuery>) -> bool {
        let size_bytes = prepared.size_bytes();
        let entry = CacheEntry {
            prepared,
            size_bytes,
        };
        if self.inflight.contains_key(key) || !self.entries.insert(key.to_string(), entry) {
            return false;
        }
        let stats = &mut self.stats;
        stats.resident_bytes += size_bytes;
        while self.entries.len() > stats.capacity
            || (self.entries.len() > 1
                && stats.byte_budget.is_some_and(|b| stats.resident_bytes > b))
        {
            let evicted = self.entries.pop_oldest().expect("more than one entry");
            stats.resident_bytes -= evicted.size_bytes;
            stats.evictions += 1;
        }
        true
    }
}

/// A bounded LRU cache of prepared queries under opaque string keys,
/// safe to share across threads, with singleflighted preparation (see
/// the module docs). The caller decides what a key means.
pub struct ArtifactCache {
    state: Mutex<CacheState>,
}

impl ArtifactCache {
    /// Creates a cache of at most `capacity` artifacts (at least 1)
    /// *and* (when given) at most `max_bytes` resident.
    pub fn new(capacity: usize, max_bytes: Option<usize>) -> Self {
        let stats = ServiceStats {
            capacity: capacity.max(1),
            byte_budget: max_bytes,
            ..ServiceStats::default()
        };
        ArtifactCache {
            state: Mutex::new(CacheState {
                entries: Lru::default(),
                inflight: HashMap::new(),
                stats,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().expect("artifact cache poisoned")
    }

    /// Seeds the cache with an externally prepared artifact. Returns
    /// `false`, keeping what is there, if `key` is already cached or in
    /// flight. Admission charges the byte budget and may evict LRU
    /// entries, like any other insert.
    pub fn insert(&self, key: &str, prepared: Arc<PreparedQuery>) -> bool {
        self.lock().publish(key, prepared)
    }

    /// The hit path as one call and one lock acquisition: if `key` is
    /// cached and `accept` takes the artifact, marks it most recently
    /// used, counts a hit and returns it. Otherwise — not cached, or
    /// turned down — returns `None` having counted and refreshed
    /// nothing, so the caller can decide whether to shed the
    /// preparation (see [`ServiceStats::inflight`]) or hand the request
    /// to whoever serves it, to be counted there, once. `accept` runs
    /// under the cache lock; keep it to a field read.
    pub fn get_if(
        &self,
        key: &str,
        accept: impl FnOnce(&PreparedQuery) -> bool,
    ) -> Option<Arc<PreparedQuery>> {
        self.lock().hit(key, accept)
    }

    /// Returns the artifact under `key`, running `prepare` and caching
    /// its result on first request, and whether this call *led* the
    /// flight — ran `prepare` itself — rather than hit the cache or
    /// adopted another thread's result.
    ///
    /// The cache lock is *not* held while preparing, so concurrent
    /// misses on different keys prepare in parallel. Concurrent requests
    /// for the *same* fresh key are single-flighted: exactly one thread
    /// runs its `prepare`, the rest block on its flight and adopt the
    /// shared artifact (or its error).
    pub fn get_or_prepare(
        &self,
        key: &str,
        prepare: impl FnOnce() -> Result<PreparedQuery, Error>,
    ) -> Result<(Arc<PreparedQuery>, bool), Error> {
        loop {
            let flight = {
                let mut state = self.lock();
                if let Some(prepared) = state.hit(key, |_| true) {
                    return Ok((prepared, false));
                }
                let Some(flight) = state.inflight.get(key) else {
                    // This thread is the leader: register the flight,
                    // then prepare outside every lock.
                    let flight = Flight {
                        state: Mutex::new(FlightState::Pending),
                        done: Condvar::new(),
                    };
                    state.inflight.insert(key.to_string(), Arc::new(flight));
                    state.stats.misses += 1;
                    drop(state);
                    let mut landing = Landing {
                        cache: self,
                        key,
                        result: None,
                    };
                    let result = prepare().map(Arc::new);
                    landing.result = Some(result.clone());
                    drop(landing); // publish + wake before returning
                    return Ok((result?, true));
                };
                Arc::clone(flight)
            };
            // Someone else is preparing this key: wait and adopt.
            let mut fs = flight.state.lock().expect("flight poisoned");
            loop {
                match &*fs {
                    FlightState::Pending => fs = flight.done.wait(fs).expect("flight poisoned"),
                    FlightState::Done(result) => {
                        let result = result.clone();
                        drop(fs);
                        self.lock().stats.coalesced += 1;
                        return result.map(|prepared| (prepared, false));
                    }
                    // Leader unwound without a result: retry from the
                    // top (cache may or may not hold the key).
                    FlightState::Abandoned => break,
                }
            }
        }
    }

    /// Current cache counters.
    pub fn stats(&self) -> ServiceStats {
        let state = self.lock();
        ServiceStats {
            entries: state.entries.len(),
            inflight: state.inflight.len(),
            ..state.stats
        }
    }
}

/// A catalog-bound [`ArtifactCache`] of its own: prepares queries over
/// one catalog under one optimizer configuration, keyed by
/// [`cache_key`] — the one-process, one-catalog convenience. A server
/// that holds many workloads keys one cache itself.
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
    cache: ArtifactCache,
}

impl PlanService {
    /// Creates a service over a catalog and optimizer configuration,
    /// caching at most `capacity` prepared queries (at least 1), with no
    /// byte bound.
    pub fn new(catalog: Catalog, config: OptimizerConfig, capacity: usize) -> Self {
        PlanService {
            catalog,
            config,
            cache: ArtifactCache::new(capacity, None),
        }
    }

    /// The service's catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Returns the prepared artifact for `query`, preparing and caching
    /// it on first request ([`ArtifactCache::get_or_prepare`]: no lock
    /// held while optimizing, one optimization per key however many
    /// threads race for it).
    pub fn get_or_prepare(&self, query: &QuerySpec) -> Result<Arc<PreparedQuery>, Error> {
        let key = cache_key(query, &self.config);
        let prepare = || PreparedQuery::prepare(&self.catalog, query, &self.config);
        Ok(self.cache.get_or_prepare(&key, prepare)?.0)
    }

    /// The cache's counters ([`ArtifactCache::stats`]).
    pub fn stats(&self) -> ServiceStats {
        self.cache.stats()
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

    fn tpch() -> Catalog {
        plansample_catalog::tpch::catalog().0
    }

    fn two_rel_query(catalog: &Catalog, a: &str, b: &str, ak: &str, bk: &str) -> QuerySpec {
        let mut qb = plansample_query::QueryBuilder::new(catalog);
        qb.rel(a, None).unwrap();
        qb.rel(b, None).unwrap();
        qb.join((a, ak), (b, bk)).unwrap();
        qb.build().unwrap()
    }

    /// The three two-relation joins the cache tests cycle through.
    fn three_queries(catalog: &Catalog) -> [QuerySpec; 3] {
        [
            two_rel_query(catalog, "nation", "region", "n_regionkey", "r_regionkey"),
            two_rel_query(catalog, "supplier", "nation", "s_nationkey", "n_nationkey"),
            two_rel_query(catalog, "customer", "nation", "c_nationkey", "n_nationkey"),
        ]
    }

    /// An artifact, and whether the call that returned it led the
    /// preparation.
    type Fetched = Result<(Arc<PreparedQuery>, bool), Error>;

    /// `query`'s artifact through `cache` under its [`cache_key`].
    fn fetch(cache: &ArtifactCache, catalog: &Catalog, query: &QuerySpec) -> Fetched {
        let config = OptimizerConfig::default();
        let prepare = || PreparedQuery::prepare(catalog, query, &config);
        cache.get_or_prepare(&cache_key(query, &config), prepare)
    }

    #[test]
    fn repeated_requests_share_one_artifact() {
        let s = PlanService::new(tpch(), OptimizerConfig::default(), 4);
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
        let catalog = tpch();
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
        let q = two_rel_query(&tpch(), "nation", "region", "n_regionkey", "r_regionkey");
        assert_ne!(
            cache_key(&q, &OptimizerConfig::default()),
            cache_key(&q, &OptimizerConfig::with_cross_products())
        );
    }

    #[test]
    fn lru_evicts_the_coldest_entry_and_its_handles_stay_valid() {
        let catalog = tpch();
        let cache = ArtifactCache::new(2, None);
        let [q1, q2, q3] = three_queries(&catalog);
        fetch(&cache, &catalog, &q1).unwrap();
        let (p2, led) = fetch(&cache, &catalog, &q2).unwrap();
        assert!(led, "a first preparation is led by its caller");
        assert!(
            !fetch(&cache, &catalog, &q1).unwrap().1,
            "a hit leads nothing"
        );
        fetch(&cache, &catalog, &q3).unwrap(); // q1 was refreshed: evicts q2
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (2, 1));
        fetch(&cache, &catalog, &q1).unwrap();
        assert_eq!(cache.stats().misses, 3, "q1 survived the eviction");
        // The evicted artifact is immutable: its handle still serves.
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(p2.sample_batch(&mut rng, 5).len(), 5);
        fetch(&cache, &catalog, &q2).unwrap();
        assert_eq!(cache.stats().misses, 4, "q2 was evicted and re-prepares");
    }

    #[test]
    fn byte_budget_bounds_resident_bytes() {
        let catalog = tpch();
        let queries = [
            ("nation", "region", "n_regionkey", "r_regionkey"),
            ("supplier", "nation", "s_nationkey", "n_nationkey"),
            ("customer", "nation", "c_nationkey", "n_nationkey"),
            ("orders", "customer", "o_custkey", "c_custkey"),
        ]
        .map(|(a, b, ak, bk)| two_rel_query(&catalog, a, b, ak, bk));
        // Size one artifact, then budget for roughly two.
        let probe = fetch(&ArtifactCache::new(1, None), &catalog, &queries[0]);
        let budget = probe.unwrap().0.size_bytes() * 5 / 2;
        let cache = ArtifactCache::new(usize::MAX, Some(budget));
        for q in &queries {
            fetch(&cache, &catalog, q).unwrap();
            let stats = cache.stats();
            assert!(
                stats.resident_bytes <= budget,
                "resident {} exceeds budget {budget}",
                stats.resident_bytes
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.byte_budget, Some(budget));
        assert!(stats.evictions >= 1, "the budget forced evictions");
        assert!(stats.entries >= 1 && stats.entries < queries.len());
        // Resident bytes stay consistent with the surviving entries.
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn oversized_artifact_is_admitted_alone() {
        let catalog = tpch();
        // Budget far below any artifact: every insert evicts the
        // previous entry but keeps itself.
        let cache = ArtifactCache::new(usize::MAX, Some(1));
        let [q1, q2, _] = three_queries(&catalog);
        fetch(&cache, &catalog, &q1).unwrap();
        assert_eq!(cache.stats().entries, 1, "single oversized entry is kept");
        fetch(&cache, &catalog, &q2).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 1);
    }

    /// Two threads meet at a barrier, then ask `cache` for `query`.
    fn race(cache: &ArtifactCache, catalog: &Catalog, query: &QuerySpec) -> Vec<(Fetched, u64)> {
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let before = plansample_optimizer::thread_optimizations_performed();
                        barrier.wait();
                        let result = fetch(cache, catalog, query);
                        let delta = plansample_optimizer::thread_optimizations_performed() - before;
                        (result, delta)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        })
    }

    #[test]
    fn racing_first_preparations_single_flight() {
        let catalog = tpch();
        let cache = ArtifactCache::new(4, None);
        let q = two_rel_query(&catalog, "lineitem", "orders", "l_orderkey", "o_orderkey");
        let results = race(&cache, &catalog, &q);
        let total_optimizations: u64 = results.iter().map(|(_, d)| d).sum();
        assert_eq!(
            total_optimizations, 1,
            "racing threads must perform exactly one optimization in total"
        );
        let [(a, _), (b, _)] = <[_; 2]>::try_from(results).ok().unwrap();
        let ((a, a_led), (b, b_led)) = (a.unwrap(), b.unwrap());
        assert!(Arc::ptr_eq(&a, &b), "both racers share one artifact");
        assert!(a_led != b_led, "exactly one racer led");
        let stats = cache.stats();
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
        let catalog = tpch();
        let cache = ArtifactCache::new(4, None);
        // Disconnected query: optimization fails.
        let q = {
            let mut qb = plansample_query::QueryBuilder::new(&catalog);
            qb.rel("nation", None).unwrap();
            qb.rel("region", None).unwrap();
            qb.build().unwrap()
        };
        for (result, _) in race(&cache, &catalog, &q) {
            assert!(matches!(result, Err(Error::Opt(_))));
        }
        assert_eq!(cache.stats().entries, 0, "failures are not cached");
        // A later retry attempts preparation again (and fails again).
        assert!(fetch(&cache, &catalog, &q).is_err());
        assert!(cache.stats().misses >= 2);
    }

    #[test]
    fn keyed_hit_counts_and_refreshes_and_a_keyed_miss_counts_nothing() {
        let catalog = tpch();
        let cache = ArtifactCache::new(2, None);
        let [q1, q2, q3] = three_queries(&catalog);
        let config = OptimizerConfig::default();
        let (k1, k2) = (cache_key(&q1, &config), cache_key(&q2, &config));
        assert!(cache.get_if(&k1, |_| true).is_none());
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.inflight),
            (0, 0, 0),
            "a keyed miss counts nothing and starts nothing"
        );

        let (p1, _) = fetch(&cache, &catalog, &q1).unwrap();
        fetch(&cache, &catalog, &q2).unwrap();
        let hit = cache.get_if(&k1, |_| true).expect("prepared key is cached");
        assert!(Arc::ptr_eq(&hit, &p1));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));

        // An artifact the caller turns down is a keyed miss (nothing
        // counted); one it takes is a keyed hit.
        assert!(cache.get_if(&k2, |_| false).is_none());
        assert_eq!(cache.stats().hits, 1);
        assert!(cache.get_if(&k1, |p| !p.total().is_zero()).is_some());
        assert_eq!(cache.stats().hits, 2);

        // The keyed hit refreshed q1, so q3 evicts q2.
        fetch(&cache, &catalog, &q3).unwrap();
        assert!(
            cache.get_if(&k1, |_| true).is_some(),
            "q1 survived the eviction"
        );
        assert!(
            cache.get_if(&k2, |_| true).is_none(),
            "q2 was the coldest entry"
        );
    }

    #[test]
    fn insert_keeps_what_is_cached() {
        let catalog = tpch();
        let cache = ArtifactCache::new(4, None);
        let [q1, ..] = three_queries(&catalog);
        let key = cache_key(&q1, &OptimizerConfig::default());
        let (p1, _) = fetch(&cache, &catalog, &q1).unwrap();
        let fresh = PreparedQuery::prepare(&catalog, &q1, &OptimizerConfig::default()).unwrap();
        assert!(!cache.insert(&key, Arc::new(fresh)), "the key was taken");
        assert!(Arc::ptr_eq(&cache.get_if(&key, |_| true).unwrap(), &p1));
        assert!(cache.insert("other", p1));
        assert_eq!(cache.stats().entries, 2);
    }
}
