//! Shared server state: workload resolution, request execution, and
//! admission control.
//!
//! The state is one [`PlanService`] over the TPC-H catalog (SQL
//! workloads) plus a lazily-populated family of single-entry services
//! for synthetic join-graph workloads, each over the catalog the spec
//! deterministically materializes. Routing every preparation through a
//! `PlanService` buys the serving layer the cache, the byte-budget
//! eviction, and — critically for the network determinism contract —
//! the singleflight: a thundering herd of connections asking for the
//! same fresh query performs exactly one optimization in total.
//!
//! A workload's *identity* — the service that caches it, its query spec
//! and the service's cache key for that spec — is computed once per
//! workload, not once per request: a synthetic spec's identity lives in
//! its entry of the synthetic-service table, an SQL text's in a small
//! bounded memo (the crate-private `SqlMemo`). Both hold identity only,
//! never an artifact, so what is resident, what is evicted and what is
//! written to `--artifact-dir` is decided by the `PlanService`s alone. A
//! warm request is therefore two map lookups — identity, then
//! [`PlanService::get_keyed`] — with no parse, no catalog build, no key
//! formatting and one service lock.
//!
//! Admission control (the `Overloaded` reply) is two-layered:
//!
//! 1. the reactors bound the *queue* — requests beyond `max_inflight`
//!    (a single bound shared by every reactor, claimed through
//!    [`ServerState::try_admit`]) are answered `Overloaded` immediately
//!    instead of queueing unboundedly (`shed_queue`), and
//! 2. this module bounds the *expensive work* — a request that would
//!    have to optimize (its key is not cached:
//!    [`PlanService::get_keyed`] returned `None`, having counted
//!    nothing) is shed when the byte budget is already saturated or too
//!    many first preparations are in flight (`shed_prepare`). Cached
//!    workloads are always served: hits are cheap no matter how hot the
//!    cache is.

use crate::wire::{
    ErrorCode, ReactorStats, Request, Response, SamplesEncoder, StatsReply, WirePlan, Workload,
    MAX_SAMPLE_BATCH, MAX_SYNTH_RELATIONS,
};
use plansample_core::{Error, PlanBatch, PlanService, PreparedQuery};
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_memo::{PhysId, PlanNode};
use plansample_optimizer::OptimizerConfig;
use plansample_query::QuerySpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Admission-control knobs (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Maximum requests queued or executing — across every reactor —
    /// before new ones are shed.
    pub max_inflight: usize,
    /// Maximum concurrent first preparations before uncached requests
    /// are shed.
    pub max_prepares: usize,
    /// Shed uncached requests once the TPC-H service's resident bytes
    /// reach this fraction of its byte budget (when one is set).
    pub byte_high_water: f64,
    /// Maximum synthetic services resident at once; the least recently
    /// used is evicted past this bound, so a client cycling
    /// `(topology, relations, seed)` triples cannot grow server memory
    /// without limit.
    pub max_synth_services: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_inflight: 1024,
            max_prepares: 4,
            byte_high_water: 1.0,
            max_synth_services: 32,
        }
    }
}

/// One reactor's slice of the request/connection counters, owned by
/// [`ServerState`] so a stats snapshot can read every reactor's share
/// without touching the reactor threads.
#[derive(Debug, Default)]
pub struct ReactorCounters {
    /// Requests this reactor decoded (admitted or queue-shed).
    pub requests: AtomicU64,
    /// Connections handed to this reactor over the server's lifetime.
    pub connections: AtomicU64,
}

/// What a workload resolves to: the service that caches it, its query
/// spec, and `service.key_for(&query)`. Computed once per workload and
/// shared by every request that names it.
struct Identity {
    service: Arc<PlanService>,
    query: QuerySpec,
    key: String,
}

/// A map of at most `cap` entries that evicts the least recently used.
/// `tick` orders recency; it is bumped under the owner's lock, so it
/// needs no atomicity of its own.
struct Lru<K, V> {
    map: HashMap<K, (V, u64)>,
    tick: u64,
    cap: usize,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    fn new(cap: usize) -> Self {
        Lru {
            map: HashMap::new(),
            tick: 0,
            cap: cap.max(1),
        }
    }

    /// Looks `key` up, marking it the most recently used.
    fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.tick += 1;
        let (value, last_used) = self.map.get_mut(key)?;
        *last_used = self.tick;
        Some(value)
    }

    /// Inserts `key` as the most recently used, first evicting least
    /// recently used entries until there is room for it; returns how
    /// many were evicted.
    fn insert(&mut self, key: K, value: V) -> u64 {
        self.tick += 1;
        let mut evicted = 0;
        if !self.map.contains_key(&key) {
            while self.map.len() >= self.cap {
                let oldest = self
                    .map
                    .iter()
                    .min_by_key(|(_, (_, last_used))| *last_used)
                    .map(|(k, _)| k.clone())
                    .expect("map at cap is non-empty");
                self.map.remove(&oldest);
                evicted += 1;
            }
        }
        self.map.insert(key, (value, self.tick));
        evicted
    }
}

/// The synthetic-service table: single-entry services keyed by spec,
/// each with the identity of the one query it serves.
type SynthServices = Lru<(Topology, u16, u64), Arc<Identity>>;

/// SQL text → identity on the TPC-H service, so that a text is parsed
/// and keyed once, not once per request. It holds no artifact: a
/// memoised text whose artifact was evicted misses in the service and
/// re-prepares like any other.
///
/// Bounded at [`MEMO_TEXTS_PER_ENTRY`] texts per `cache_entries`; a text
/// longer than [`MEMO_MAX_TEXT`], or whose key is longer than
/// [`MEMO_MAX_KEY`], is resolved the long way every time, and a text
/// that fails to parse is never memoised. An entry is its text (held
/// once, as the map's key), its key and its spec; a spec occupies fewer
/// than two bytes per character of its key (the key renders every field
/// at more characters than the field has bytes, and a `Vec`'s spare
/// capacity at most doubles it). Worst case: 4 + 16 + 32 = 52 KiB an
/// entry, 6.5 MiB at the default 64 `cache_entries`; the benchmark's
/// six SQL texts take about 1.5 KiB an entry.
type SqlMemo = Lru<String, Arc<Identity>>;

/// Memoised texts per `cache_entries`: room for a second spelling of
/// each cached query, or for texts whose artifacts the byte budget
/// evicted.
const MEMO_TEXTS_PER_ENTRY: usize = 2;
/// Longest SQL text the memo keeps, in bytes.
const MEMO_MAX_TEXT: usize = 4 << 10;
/// Longest cache key the memo keeps, in bytes.
const MEMO_MAX_KEY: usize = 16 << 10;

/// The serving state shared by the reactors and the worker pools.
pub struct ServerState {
    tpch: Arc<PlanService>,
    synth: Mutex<SynthServices>,
    sql_memo: Mutex<SqlMemo>,
    admission: AdmissionConfig,
    byte_budget: Option<usize>,
    /// Requests decoded by the reactors, whether admitted or shed at
    /// the queue bound; `requests == requests_admitted + shed_queue`
    /// once the server is quiescent.
    pub requests: AtomicU64,
    /// Requests that passed the queue bound and reached
    /// [`ServerState::handle`].
    pub requests_admitted: AtomicU64,
    /// Requests shed at the queue bound (incremented by the reactors).
    pub shed_queue: AtomicU64,
    /// Requests shed at the preparation bound.
    pub shed_prepare: AtomicU64,
    /// Frames that failed to decode (incremented by the reactors).
    pub wire_errors: AtomicU64,
    /// `accept(2)` failures other than `WouldBlock`/`EINTR`.
    pub accept_errors: AtomicU64,
    /// Connections currently open (maintained by the reactors).
    pub connections_open: AtomicU64,
    /// Connections accepted over the server's lifetime.
    pub connections_total: AtomicU64,
    /// Synthetic services evicted to stay under the LRU cap.
    pub synth_evictions: AtomicU64,
    /// High-water mark of per-request sampling memory: flat batch plus
    /// reply buffer of the largest `SampleBatch` stream-encoded so far
    /// (maintained by [`ServerState::handle_encoded`] via `fetch_max`).
    pub batch_peak_bytes: AtomicU64,
    /// Requests queued or executing across all reactors — the count the
    /// queue bound admits against (see [`ServerState::try_admit`]).
    inflight: AtomicU64,
    /// Per-reactor counter slices, indexed by reactor.
    pub per_reactor: Vec<ReactorCounters>,
}

impl ServerState {
    /// Builds the state over the TPC-H catalog.
    ///
    /// `byte_budget` bounds the TPC-H service's resident artifact bytes
    /// (and participates in admission); `None` leaves it entry-bounded
    /// only. `reactors` sizes the per-reactor counter slices.
    pub fn new(
        config: OptimizerConfig,
        cache_entries: usize,
        byte_budget: Option<usize>,
        admission: AdmissionConfig,
        reactors: usize,
    ) -> Self {
        let (catalog, _) = plansample_catalog::tpch::catalog();
        let tpch = Arc::new(PlanService::bounded(
            catalog,
            config,
            cache_entries,
            byte_budget,
        ));
        ServerState {
            tpch,
            synth: Mutex::new(Lru::new(admission.max_synth_services)),
            sql_memo: Mutex::new(Lru::new(
                cache_entries.max(1).saturating_mul(MEMO_TEXTS_PER_ENTRY),
            )),
            admission,
            byte_budget,
            requests: AtomicU64::new(0),
            requests_admitted: AtomicU64::new(0),
            shed_queue: AtomicU64::new(0),
            shed_prepare: AtomicU64::new(0),
            wire_errors: AtomicU64::new(0),
            accept_errors: AtomicU64::new(0),
            connections_open: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            synth_evictions: AtomicU64::new(0),
            batch_peak_bytes: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            per_reactor: (0..reactors.max(1))
                .map(|_| ReactorCounters::default())
                .collect(),
        }
    }

    /// The queue bound the reactors enforce.
    pub fn max_inflight(&self) -> usize {
        self.admission.max_inflight
    }

    /// Claims one slot of the global queue bound. Returns `false` (and
    /// leaves the count unchanged) when the bound is already reached —
    /// the caller sheds the request. Shared by every reactor, so the
    /// bound holds across the whole server, not per event loop.
    pub fn try_admit(&self) -> bool {
        let prev = self.inflight.fetch_add(1, Ordering::AcqRel);
        if prev >= self.admission.max_inflight as u64 {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            return false;
        }
        true
    }

    /// Releases a slot claimed by [`ServerState::try_admit`] (called
    /// when the reply drains back to its reactor).
    pub fn release_inflight(&self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
    }

    /// The TPC-H service (test observability).
    pub fn tpch_service(&self) -> &PlanService {
        &self.tpch
    }

    /// Executes one decoded request. Infallible at this layer: every
    /// failure becomes a typed [`Response::Error`]. Only requests that
    /// passed the queue bound reach this point — queue-shed requests
    /// are answered inside the reactor and counted in `shed_queue` (and
    /// `requests`), never here.
    pub fn handle(&self, request: &Request) -> Response {
        self.requests_admitted.fetch_add(1, Ordering::Relaxed);
        match request {
            Request::Prepare(wl) => self.with_prepared(wl, |p, cached| Response::Prepared {
                total: p.total().clone(),
                groups: p.memo().num_groups() as u32,
                exprs: p.memo().num_physical() as u32,
                size_bytes: p.size_bytes() as u64,
                cached,
            }),
            Request::Count(wl) => self.with_prepared(wl, |p, _| Response::Count(p.total().clone())),
            Request::Best(wl) => self.with_prepared(wl, |p, _| {
                let (plan, cost) = p.best();
                Response::Best(to_wire_plan(plan), cost)
            }),
            Request::Unrank(wl, rank) => self.with_prepared(wl, |p, _| match p.unrank(rank) {
                Ok(plan) => Response::Plan(to_wire_plan(&plan), p.scaled_cost(&plan)),
                Err(e) => error_response(&e),
            }),
            Request::SampleBatch(wl, seed, k) => {
                if *k > MAX_SAMPLE_BATCH {
                    return Response::error(
                        ErrorCode::BadRequest,
                        format!("batch of {k} exceeds the {MAX_SAMPLE_BATCH} bound"),
                    );
                }
                let (seed, k) = (*seed, *k);
                self.with_prepared(wl, move |p, _| {
                    let mut items = Vec::with_capacity(k as usize);
                    for_each_sample(p, seed, k, |ids, cost| {
                        items.push((wire_ids(ids).collect(), cost))
                    });
                    Response::Samples(items)
                })
            }
            Request::Stats => Response::Stats(self.stats()),
        }
    }

    /// Executes one decoded request straight to reply *bytes* — the
    /// path the worker pools and reactors use. For `SampleBatch` within
    /// bounds this streams: plans are drawn into a reusable flat
    /// [`PlanBatch`] (zero steady-state allocations per draw on the
    /// fixed-width count tiers) and encoded into the reply buffer one
    /// at a time via [`SamplesEncoder`], so a 4096-plan batch never
    /// materializes a `WirePlan` per plan — peak memory is the reply
    /// plus the flat ids, tracked in
    /// [`ServerState::batch_peak_bytes`]. [`handle`](Self::handle)
    /// draws the same flat batch, so the produced bytes are identical
    /// to `self.handle(request).encode(request_id)` exactly when the
    /// streaming encoder is byte-compatible with [`Response::encode`] —
    /// which the unit tests below assert; `tests/reply_digest.rs` pins
    /// a digest of the reply bytes themselves.
    /// Every other request defers to [`handle`](Self::handle).
    pub fn handle_encoded(&self, request: &Request, request_id: u64) -> Vec<u8> {
        if let Request::SampleBatch(wl, seed, k) = request {
            if *k <= MAX_SAMPLE_BATCH {
                self.requests_admitted.fetch_add(1, Ordering::Relaxed);
                return self.stream_samples(wl, *seed, *k, request_id);
            }
        }
        self.handle(request).encode(request_id)
    }

    /// The streaming `SampleBatch` body behind
    /// [`handle_encoded`](Self::handle_encoded).
    fn stream_samples(&self, workload: &Workload, seed: u64, k: u32, request_id: u64) -> Vec<u8> {
        let prepared = match self.prepared_for(workload) {
            Ok((prepared, _)) => prepared,
            Err(resp) => return resp.encode(request_id),
        };
        let mut enc = SamplesEncoder::new(request_id);
        let batch_bytes = for_each_sample(&prepared, seed, k, |ids, cost| {
            enc.push(wire_ids(ids), cost)
        });
        let peak = (batch_bytes + enc.len_bytes()) as u64;
        self.batch_peak_bytes.fetch_max(peak, Ordering::Relaxed);
        enc.finish()
    }

    /// Resolves the workload through its service and applies `f`,
    /// mapping every failure (shed, parse, optimize) to a typed error
    /// reply. `f` receives whether the artifact was already cached.
    fn with_prepared(
        &self,
        workload: &Workload,
        f: impl FnOnce(&PreparedQuery, bool) -> Response,
    ) -> Response {
        match self.prepared_for(workload) {
            Ok((prepared, cached)) => f(&prepared, cached),
            Err(resp) => *resp,
        }
    }

    /// Resolves and prepares a workload, applying admission control:
    /// the shared front half of [`with_prepared`](Self::with_prepared)
    /// and the streaming sample path. A cached workload takes the
    /// service lock once, in `get_keyed`; only a miss reaches the
    /// admission check and the preparing entry point.
    fn prepared_for(
        &self,
        workload: &Workload,
    ) -> Result<(Arc<PreparedQuery>, bool), Box<Response>> {
        let id = self.resolve(workload)?;
        if let Some(prepared) = id.service.get_keyed(&id.key) {
            return Ok((prepared, true));
        }
        if let Some(denial) = self.deny_preparation(&id.service) {
            self.shed_prepare.fetch_add(1, Ordering::Relaxed);
            return Err(Box::new(denial));
        }
        id.service
            .get_or_prepare_keyed(&id.key, &id.query)
            .map(|prepared| (prepared, false))
            .map_err(|e| Box::new(error_response(&e)))
    }

    /// Maps a workload to its identity, without preparing anything.
    fn resolve(&self, workload: &Workload) -> Result<Arc<Identity>, Box<Response>> {
        match workload {
            Workload::Sql(sql) => self.sql_identity(sql),
            Workload::Synthetic {
                topology,
                relations,
                seed,
            } => {
                let min = if *topology == Topology::Cycle { 3 } else { 2 };
                if *relations < min || *relations > MAX_SYNTH_RELATIONS {
                    return Err(Box::new(Response::error(
                        ErrorCode::BadRequest,
                        format!(
                            "synthetic {} workload needs {min}..={MAX_SYNTH_RELATIONS} relations, got {relations}",
                            topology.name()
                        ),
                    )));
                }
                Ok(self.synth_identity((*topology, *relations, *seed)))
            }
        }
    }

    /// The identity of an SQL text on the TPC-H service, from the memo
    /// when the text has been seen (see [`SqlMemo`] for what is kept).
    /// The memo's lock is never held across a parse.
    fn sql_identity(&self, sql: &str) -> Result<Arc<Identity>, Box<Response>> {
        let memoisable = sql.len() <= MEMO_MAX_TEXT;
        if memoisable {
            let mut memo = self.sql_memo.lock().expect("sql memo poisoned");
            if let Some(id) = memo.get(sql) {
                return Ok(Arc::clone(id));
            }
        }
        let parsed = plansample_sql::parse(self.tpch.catalog(), sql).map_err(|e| {
            // `render` quotes the offending line; `error` clamps
            // it so the reply stays within the frame bound.
            Box::new(Response::error(ErrorCode::Sql, e.render(sql)))
        })?;
        // The front door serves plan-space operations; execution
        // hints (USEPLAN) have no meaning here.
        let id = Arc::new(Identity {
            service: Arc::clone(&self.tpch),
            key: self.tpch.key_for(&parsed.spec),
            query: parsed.spec,
        });
        if memoisable && id.key.len() <= MEMO_MAX_KEY {
            let mut memo = self.sql_memo.lock().expect("sql memo poisoned");
            memo.insert(sql.to_string(), Arc::clone(&id));
        }
        Ok(id)
    }

    /// The (created-on-demand) identity of one synthetic spec, service
    /// included. Synthetic services hold a single entry — the spec *is*
    /// the query — so their footprint is exactly one artifact, and the
    /// table as a whole is LRU-bounded by `max_synth_services`: past the
    /// cap, the least recently used spec's service is dropped (in-flight
    /// preparations keep their `Arc` alive; only the cache slot goes).
    fn synth_identity(&self, key: (Topology, u16, u64)) -> Arc<Identity> {
        let mut synth = self.synth.lock().expect("synth map poisoned");
        if let Some(id) = synth.get(&key) {
            return Arc::clone(id);
        }
        let spec = JoinGraphSpec::new(key.0, key.1 as usize, key.2);
        let (catalog, query) = spec.build();
        let service = Arc::new(PlanService::new(catalog, self.tpch.config().clone(), 1));
        let id = Arc::new(Identity {
            key: service.key_for(&query),
            service,
            query,
        });
        let evicted = synth.insert(key, Arc::clone(&id));
        self.synth_evictions.fetch_add(evicted, Ordering::Relaxed);
        id
    }

    /// Whether an uncached request must be shed right now, and the
    /// typed reply if so.
    fn deny_preparation(&self, service: &Arc<PlanService>) -> Option<Response> {
        let stats = service.stats();
        if stats.inflight >= self.admission.max_prepares {
            return Some(overloaded(format!(
                "{} first preparations already in flight",
                stats.inflight
            )));
        }
        if let Some(budget) = self.byte_budget {
            let high_water = (budget as f64 * self.admission.byte_high_water) as usize;
            // The byte-budget tie-in applies to the TPC-H service (the
            // one sharing `self.byte_budget`); synthetic services are
            // single-entry and bounded by construction.
            if Arc::ptr_eq(service, &self.tpch) && stats.resident_bytes >= high_water {
                return Some(overloaded(format!(
                    "artifact cache at {} of {} budgeted bytes",
                    stats.resident_bytes, budget
                )));
            }
        }
        None
    }

    /// Snapshot of every counter, for [`Request::Stats`].
    pub fn stats(&self) -> StatsReply {
        let tpch = self.tpch.stats();
        let (synth_services, synth_resident_bytes) = {
            let synth = self.synth.lock().expect("synth map poisoned");
            let bytes: usize = synth
                .map
                .values()
                .map(|(id, _)| id.service.stats().resident_bytes)
                .sum();
            (synth.map.len() as u64, bytes as u64)
        };
        StatsReply {
            requests: self.requests.load(Ordering::Relaxed),
            requests_admitted: self.requests_admitted.load(Ordering::Relaxed),
            shed_queue: self.shed_queue.load(Ordering::Relaxed),
            shed_prepare: self.shed_prepare.load(Ordering::Relaxed),
            wire_errors: self.wire_errors.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            connections_open: self.connections_open.load(Ordering::Relaxed),
            connections_total: self.connections_total.load(Ordering::Relaxed),
            hits: tpch.hits,
            misses: tpch.misses,
            coalesced: tpch.coalesced,
            evictions: tpch.evictions,
            entries: tpch.entries as u64,
            resident_bytes: tpch.resident_bytes as u64,
            byte_budget: tpch.byte_budget.unwrap_or(0) as u64,
            inflight_prepares: tpch.inflight as u64,
            synth_services,
            synth_resident_bytes,
            synth_evictions: self.synth_evictions.load(Ordering::Relaxed),
            batch_peak_bytes: self.batch_peak_bytes.load(Ordering::Relaxed),
            per_reactor: self
                .per_reactor
                .iter()
                .map(|r| ReactorStats {
                    requests: r.requests.load(Ordering::Relaxed),
                    connections: r.connections.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

/// The one sampler behind every `SampleBatch` reply: draws the `k`
/// plans of `seed` into this worker's reusable flat batch and hands
/// `emit` each plan's preorder ids and scaled cost, in draw order.
/// Returns the batch's resident bytes (for the peak-memory gauge).
fn for_each_sample(
    prepared: &PreparedQuery,
    seed: u64,
    k: u32,
    mut emit: impl FnMut(&[PhysId], f64),
) -> usize {
    thread_local! {
        /// Per-worker sampling scratch; capacity persists across
        /// requests, so steady-state fills allocate nothing.
        static SCRATCH: std::cell::RefCell<PlanBatch> =
            std::cell::RefCell::new(PlanBatch::new());
    }
    SCRATCH.with(|cell| {
        let mut batch = cell.borrow_mut();
        let mut rng = StdRng::seed_from_u64(seed);
        prepared.sample_batch_flat(&mut rng, k as usize, &mut batch);
        for ids in batch.iter() {
            emit(ids, prepared.scaled_cost_ids(ids));
        }
        batch.size_bytes()
    })
}

/// Preorder ids in wire form: `(group, index)` pairs.
fn wire_ids(ids: &[PhysId]) -> impl ExactSizeIterator<Item = (u32, u32)> + '_ {
    ids.iter().map(|id| (id.group.0, id.index as u32))
}

/// A plan's wire form: its preorder `(group, index)` listing.
pub fn to_wire_plan(plan: &PlanNode) -> WirePlan {
    wire_ids(&plan.preorder_ids()).collect()
}

fn overloaded(message: String) -> Response {
    Response::error(ErrorCode::Overloaded, message)
}

fn error_response(e: &Error) -> Response {
    let code = match e {
        Error::Opt(_) => ErrorCode::Optimize,
        _ => ErrorCode::Space,
    };
    Response::error(code, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(max_synth_services: usize) -> ServerState {
        ServerState::new(
            OptimizerConfig::default(),
            4,
            None,
            AdmissionConfig {
                max_synth_services,
                ..AdmissionConfig::default()
            },
            2,
        )
    }

    /// Cheap synthetic workload (2-relation chain) where only the seed
    /// varies — the exact shape of the unbounded-growth attack.
    fn chain(seed: u64) -> Request {
        Request::Count(Workload::Synthetic {
            topology: Topology::Chain,
            relations: 2,
            seed,
        })
    }

    #[test]
    fn synth_map_is_bounded_under_seed_cycling() {
        let state = state(2);
        for seed in 0..5 {
            let reply = state.handle(&chain(seed));
            assert!(matches!(reply, Response::Count(_)), "got {reply:?}");
        }
        let stats = state.stats();
        assert_eq!(
            stats.synth_services, 2,
            "seed cycling must not grow the map past the cap"
        );
        assert_eq!(stats.synth_evictions, 3);
        assert_eq!(stats.requests_admitted, 5);
    }

    #[test]
    fn synth_eviction_order_is_least_recently_used() {
        let state = state(2);
        let evictions = || state.synth_evictions.load(Ordering::Relaxed);
        state.handle(&chain(1));
        state.handle(&chain(2));
        state.handle(&chain(1)); // refresh 1: seed 2 is now the LRU
        state.handle(&chain(3)); // evicts seed 2
        assert_eq!(evictions(), 1);
        state.handle(&chain(1)); // still resident: a hit, no eviction
        assert_eq!(evictions(), 1);
        state.handle(&chain(2)); // re-materializes: evicts seed 3
        assert_eq!(evictions(), 2);
        state.handle(&chain(1)); // the refreshed entry survived both
        assert_eq!(evictions(), 2);
    }

    fn sql_state(cache_entries: usize, admission: AdmissionConfig) -> ServerState {
        ServerState::new(
            OptimizerConfig::default(),
            cache_entries,
            None,
            admission,
            1,
        )
    }

    fn sql(text: &str) -> Workload {
        Workload::Sql(text.to_string())
    }

    fn memo_len(state: &ServerState) -> usize {
        state.sql_memo.lock().unwrap().map.len()
    }

    /// `Prepare` through the state: the artifact's bytes and whether it
    /// was already cached.
    fn prepare(state: &ServerState, text: &str) -> (u64, bool) {
        match state.handle(&Request::Prepare(sql(text))) {
            Response::Prepared {
                size_bytes, cached, ..
            } => (size_bytes, cached),
            other => panic!("prepare of {text:?} answered {other:?}"),
        }
    }

    const NATIONS_BY_REGION: &str = "SELECT COUNT(*) FROM nation n, region r \
         WHERE n.n_regionkey = r.r_regionkey AND r.r_regionkey < 3";

    #[test]
    fn a_warm_workload_resolves_to_the_identity_it_already_has() {
        let state = state(4);
        let Request::Count(synthetic) = chain(1) else {
            unreachable!("chain() builds a Count");
        };
        for workload in [sql(NATIONS_BY_REGION), synthetic] {
            let first = state.resolve(&workload).unwrap();
            let again = state.resolve(&workload).unwrap();
            assert!(
                Arc::ptr_eq(&first, &again),
                "{workload:?} was parsed, built or keyed a second time"
            );
            assert_eq!(first.key, first.service.key_for(&first.query));
        }
    }

    /// (a) The memo holds identity, never an artifact: a memoised text
    /// whose artifact was evicted re-prepares.
    #[test]
    fn memoised_text_does_not_pin_its_evicted_artifact() {
        let state = sql_state(1, AdmissionConfig::default());
        let texts = [
            NATIONS_BY_REGION,
            "SELECT * FROM region WHERE r_regionkey < 3",
        ];
        for round in 0..3 {
            for text in texts {
                let (size_bytes, cached) = prepare(&state, text);
                assert!(!cached, "round {round}: {text:?} outlived its eviction");
                let stats = state.stats();
                assert_eq!(stats.entries, 1);
                assert_eq!(stats.resident_bytes, size_bytes);
            }
        }
        let stats = state.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 6, 5));
        assert_eq!(memo_len(&state), 2, "both texts stayed memoised throughout");
    }

    /// (b) Two spellings are two memo entries with one key between them.
    #[test]
    fn two_spellings_of_a_query_share_one_artifact() {
        let state = sql_state(4, AdmissionConfig::default());
        let reordered = "SELECT COUNT(*) FROM nation n, region r \
             WHERE r.r_regionkey < 3 AND n.n_regionkey = r.r_regionkey";
        assert!(!prepare(&state, NATIONS_BY_REGION).1);
        assert!(prepare(&state, reordered).1, "second spelling is a hit");
        let stats = state.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(memo_len(&state), 2);
    }

    /// (c) The memo stays at its cap, and keeps neither over-length
    /// texts, nor over-length keys, nor texts that do not parse.
    #[test]
    fn memo_is_bounded_and_keeps_only_short_texts_that_parse() {
        let state = sql_state(2, AdmissionConfig::default());
        let cap = 2 * MEMO_TEXTS_PER_ENTRY;
        for i in 0..10 * cap {
            let text = format!("SELECT * FROM region WHERE r_regionkey < {i}");
            let reply = state.handle(&Request::Count(sql(&text)));
            assert!(matches!(reply, Response::Count(_)), "got {reply:?}");
            assert_eq!(memo_len(&state), cap.min(i + 1));
        }

        let padded = format!(
            "SELECT * FROM region WHERE r_regionkey < 3{}",
            " ".repeat(MEMO_MAX_TEXT)
        );
        let many_filters = format!(
            "SELECT * FROM region WHERE r_regionkey < 3{}",
            " AND r_regionkey < 3".repeat(150)
        );
        assert!(many_filters.len() <= MEMO_MAX_TEXT);
        let bad = "SELECT * FROM no_such_table";
        let memo_before: Vec<String> = {
            let memo = state.sql_memo.lock().unwrap();
            let mut texts: Vec<String> = memo.map.keys().cloned().collect();
            texts.sort();
            texts
        };
        for text in [padded.as_str(), many_filters.as_str()] {
            for _ in 0..2 {
                let reply = state.handle(&Request::Count(sql(text)));
                assert!(matches!(reply, Response::Count(_)), "got {reply:?}");
            }
        }
        let key_len = state.resolve(&sql(&many_filters)).unwrap().key.len();
        assert!(key_len > MEMO_MAX_KEY, "key of {key_len} bytes is short");
        let first = state.handle_encoded(&Request::Count(sql(bad)), 9);
        assert!(matches!(
            Response::decode(&first).unwrap().1,
            Response::Error {
                code: ErrorCode::Sql,
                ..
            }
        ));
        for _ in 0..3 {
            assert_eq!(state.handle_encoded(&Request::Count(sql(bad)), 9), first);
        }
        let memo = state.sql_memo.lock().unwrap();
        let mut memo_after: Vec<&String> = memo.map.keys().collect();
        memo_after.sort();
        assert_eq!(memo_after, memo_before.iter().collect::<Vec<_>>());
    }

    /// (d) Only a miss reaches the admission check.
    #[test]
    fn uncached_workloads_are_shed_while_cached_ones_are_served() {
        let state = sql_state(
            4,
            AdmissionConfig {
                max_prepares: 0,
                ..AdmissionConfig::default()
            },
        );
        let cold = "SELECT * FROM region WHERE r_regionkey < 3";
        let warm = plansample_sql::parse(state.tpch_service().catalog(), NATIONS_BY_REGION)
            .unwrap()
            .spec;
        state.tpch_service().get_or_prepare(&warm).unwrap();

        for round in 1..=2 {
            assert!(prepare(&state, NATIONS_BY_REGION).1, "cached: served");
            let reply = state.handle(&Request::Count(sql(cold)));
            assert!(
                matches!(
                    reply,
                    Response::Error {
                        code: ErrorCode::Overloaded,
                        ..
                    }
                ),
                "got {reply:?}"
            );
            assert_eq!(state.stats().shed_prepare, round);
        }
        let stats = state.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.entries),
            (2, 1, 1),
            "a shed request is neither a hit nor a miss"
        );
    }

    /// `SamplesEncoder` (streaming) against `Response::encode` (the
    /// materialized reply): both are fed by the same flat sampler, so
    /// this is purely the encoders' byte-identity.
    #[test]
    fn streamed_sample_batch_bytes_match_the_tree_path() {
        let state = state(4);
        let wl = Workload::Synthetic {
            topology: Topology::Chain,
            relations: 5,
            seed: 9,
        };
        for k in [0u32, 1, 7, 64] {
            let request = Request::SampleBatch(wl.clone(), 123, k);
            let streamed = state.handle_encoded(&request, 42);
            let tree = state.handle(&request).encode(42);
            assert_eq!(streamed, tree, "k={k}");
        }
        // Oversized batches fall through to the ordinary error path.
        let too_big = Request::SampleBatch(wl, 1, MAX_SAMPLE_BATCH + 1);
        assert_eq!(
            state.handle_encoded(&too_big, 7),
            state.handle(&too_big).encode(7)
        );
    }

    #[test]
    fn sampling_peak_bytes_is_tracked_and_bounded() {
        let state = state(4);
        let wl = Workload::Synthetic {
            topology: Topology::Chain,
            relations: 6,
            seed: 2,
        };
        assert_eq!(state.stats().batch_peak_bytes, 0);
        state.handle_encoded(&Request::SampleBatch(wl.clone(), 5, 64), 1);
        let small = state.stats().batch_peak_bytes;
        assert!(small > 0, "peak counter never moved");
        state.handle_encoded(&Request::SampleBatch(wl.clone(), 5, 4096), 2);
        let large = state.stats().batch_peak_bytes;
        assert!(large >= small, "fetch_max is monotone");
        // Streaming keeps the peak at flat-ids + reply: for a 6-relation
        // chain every plan is ≤ a few dozen nodes, so 4096 plans must
        // stay well under a megabyte per node-u32 — no per-plan tree or
        // WirePlan materialization.
        assert!(
            large < 16 << 20,
            "peak {large} bytes suggests the batch was materialized"
        );
        // A later smaller batch never lowers the high-water mark.
        state.handle_encoded(&Request::SampleBatch(wl, 5, 1), 3);
        assert_eq!(state.stats().batch_peak_bytes, large);
    }

    #[test]
    fn global_queue_bound_admits_then_sheds() {
        let tight = ServerState::new(
            OptimizerConfig::default(),
            4,
            None,
            AdmissionConfig {
                max_inflight: 2,
                ..AdmissionConfig::default()
            },
            1,
        );
        assert!(tight.try_admit());
        assert!(tight.try_admit());
        assert!(!tight.try_admit(), "third request exceeds the bound");
        tight.release_inflight();
        assert!(tight.try_admit(), "released slot is reusable");
    }
}
