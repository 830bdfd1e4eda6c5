//! Shared server state: workload resolution, request execution, and
//! admission control.
//!
//! The state owns **one** [`ArtifactCache`], sized by `cache_entries`
//! and `byte_budget`, for the artifacts of every workload — SQL over the
//! TPC-H catalog and synthetic join-graph specs alike — so residency,
//! eviction, the in-flight count and the `Stats` ledger are each decided
//! in one place, and its singleflight — critical for the network
//! determinism contract — holds for any workload: a thundering herd of
//! connections asking for the same fresh query performs exactly one
//! optimization in total. The state keys that cache itself, in one
//! place: [`cache_key`] behind a *scope* — `tpch` for SQL (the only
//! scope `--artifact-dir` persists), and a synthetic spec's label for
//! the catalog that spec deterministically materializes — so keys of
//! different workloads are disjoint by construction, not by what a spec
//! happens to render.
//!
//! A workload's *identity* — the catalog it is prepared over, its query
//! spec and its key — is computed once per workload, not once per
//! request, and kept in **one** bounded LRU table keyed by the
//! [`Workload`] itself, which holds identity only, never an
//! artifact. A warm request is therefore two map lookups — identity,
//! then [`ArtifactCache::get_if`] — with no parse, no catalog build, no
//! key formatting and one cache lock. Neither lock is ever held across a
//! parse, a catalog build or a preparation: two threads racing on a
//! workload nobody has seen both resolve it, to the same key, and meet
//! in the cache's singleflight.
//!
//! That is also what lets a reactor answer a warm request itself
//! instead of handing it to a worker: [`ServerState::handle_inline`]
//! performs exactly those two lookups, in their lookup-only form, and
//! declines — having counted nothing — whenever either misses, so the
//! event loop never parses, builds, optimizes or waits on a
//! preparation. Both paths then run the one request body
//! (`ServerState::answer`), so a reply does not show which of them
//! produced it.
//!
//! Admission control (the `Overloaded` reply) is two-layered:
//!
//! 1. the reactors bound the *queue* — requests beyond `max_inflight`
//!    (a single bound shared by every reactor, claimed through
//!    [`ServerState::try_admit`]) are answered `Overloaded` immediately
//!    instead of queueing unboundedly (`shed_queue`), and
//! 2. this module bounds the *expensive work*, server-wide — a request
//!    that would have to optimize (its key is not cached:
//!    [`ArtifactCache::get_if`] returned `None`, having counted
//!    nothing) is shed when `max_prepares` first preparations, of any
//!    workloads, are already in flight (`shed_prepare`). Cached
//!    workloads are always served: hits are cheap no matter how hot the
//!    cache is. Memory is bounded by eviction, never by refusal.

use crate::wire::{
    ErrorCode, ReactorStats, Request, Response, SamplesEncoder, StatsReply, WirePlan, Workload,
    MAX_SAMPLE_BATCH, MAX_SYNTH_RELATIONS,
};
use plansample_artifact::ArtifactStore;
use plansample_catalog::Catalog;
use plansample_core::{cache_key, ArtifactCache, CountTier, Error, Lru, PlanBatch, PreparedQuery};
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_memo::{PhysId, PlanNode};
use plansample_optimizer::OptimizerConfig;
use plansample_query::QuerySpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
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
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_inflight: 1024,
            max_prepares: 4,
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

/// What a workload resolves to — what a preparation needs and never an
/// artifact: the catalog it is prepared over (for SQL, the state's one
/// TPC-H catalog), its query spec, and its key
/// ([`ServerState::key`]).
struct Identity {
    catalog: Arc<Catalog>,
    query: QuerySpec,
    key: String,
}

/// Known workloads per `cache_entries`: room for a second spelling of
/// each cached query, or for workloads whose artifacts the byte budget
/// evicted.
const IDENTITIES_PER_ENTRY: usize = 2;
/// Longest SQL text the identity table keeps, in bytes.
const MEMO_MAX_TEXT: usize = 4 << 10;
/// Longest cache key of an SQL text the identity table keeps, in bytes.
const MEMO_MAX_KEY: usize = 16 << 10;

/// Largest `SampleBatch` a reactor answers itself
/// ([`ServerState::handle_inline`]); a larger one goes to a worker.
///
/// Derived from the tracked per-layer rows (EXPERIMENTS.md §E15; the
/// per-plan figures are §E20's), from both sides. What a batch costs on
/// a fixed-width tier: a plan is drawn, costed and encoded in 0.3–0.4 µs
/// on the point mix's small spaces (`serve.state.handle_us.sample16`
/// 2.9 µs a batch of ≤ 16), 1.1 µs on Q8+CP
/// (`core.sample.flat_b1_ns_per_plan` 0.89 + 0.15 for costing it in the
/// same walk + an encode of 0.03; the costing has no row of its own —
/// `core.prepared.scaled_cost_ids_ns_per_plan` times the separate-pass
/// reference, 0.25) and 2.0 µs on cycle-16 (1.67 + 0.25 + 0.05), the
/// slowest cache-resident space measured — so 32 plans hold the loop
/// for 10–65 µs, inside the ~185 µs p99 a reply already had before
/// anything was answered on a reactor. What the hand-off costs: 15 µs
/// of latency and 13 µs of CPU a request (`serve.transport.overhead_us`,
/// `proc.cpu_ms_per_op`, before and after) — at 32 plans of 1.1 µs that
/// is still under half of the request's own work, so a larger batch
/// loses little by taking the worker path, where it also stops delaying
/// its reactor's other connections. Cheaper plans argue for a larger
/// constant, the hand-off figures for this one; both readings leave 32
/// inside the range either supports, so it stays.
pub(crate) const INLINE_MAX_SAMPLES: u32 = 32;

/// The serving state shared by the reactors and the workers.
pub struct ServerState {
    /// Every workload's artifacts (see module docs).
    cache: ArtifactCache,
    /// The catalog every SQL identity shares.
    tpch: Arc<Catalog>,
    /// The configuration every artifact is prepared under.
    config: OptimizerConfig,
    /// Where SQL preparations are written through to, if anywhere
    /// ([`ServerState::persist_to`]).
    store: Option<ArtifactStore>,
    /// Workload → identity, so that a text is parsed, a spec built and
    /// either keyed once, not once per request; a known workload whose
    /// artifact was evicted misses in the cache and re-prepares like any
    /// other. Bounded at [`IDENTITIES_PER_ENTRY`] × `cache_entries`, so
    /// a client cycling texts or seeds cannot grow it without limit; an
    /// SQL text longer than [`MEMO_MAX_TEXT`], or whose key is longer
    /// than [`MEMO_MAX_KEY`], is resolved the long way every time, and a
    /// workload that fails to resolve is never kept. An SQL entry is its
    /// text, its key and its spec (under two bytes per character of the
    /// key, which renders every field at more characters than it has
    /// bytes): at worst 4 + 16 + 32 = 52 KiB, 6.5 MiB at the default 64
    /// `cache_entries`; the benchmark's six texts take about 1.5 KiB
    /// each. A synthetic entry adds an `Arc` of its catalog — at most
    /// [`MAX_SYNTH_RELATIONS`] two-column tables — and stays under that.
    identities: Mutex<Lru<Workload, Arc<Identity>>>,
    max_identities: usize,
    admission: AdmissionConfig,
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
    /// `cache_entries` and `byte_budget` bound the one artifact cache,
    /// whatever the workloads in it; `None` leaves it entry-bounded
    /// only. `reactors` sizes the per-reactor counter slices.
    pub fn new(
        config: OptimizerConfig,
        cache_entries: usize,
        byte_budget: Option<usize>,
        admission: AdmissionConfig,
        reactors: usize,
    ) -> Self {
        let (catalog, _) = plansample_catalog::tpch::catalog();
        ServerState {
            cache: ArtifactCache::new(cache_entries, byte_budget),
            tpch: Arc::new(catalog),
            config,
            store: None,
            identities: Mutex::new(Lru::default()),
            max_identities: cache_entries.max(1).saturating_mul(IDENTITIES_PER_ENTRY),
            admission,
            requests: AtomicU64::new(0),
            requests_admitted: AtomicU64::new(0),
            shed_queue: AtomicU64::new(0),
            shed_prepare: AtomicU64::new(0),
            wire_errors: AtomicU64::new(0),
            accept_errors: AtomicU64::new(0),
            connections_open: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
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

    /// Requests currently holding a slot of the queue bound: zero once
    /// every reply has been handed to its connection (test
    /// observability).
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Acquire)
    }

    /// Writes every SQL artifact this state prepares through to
    /// `store`: on the flight leader only, once per preparation, after
    /// the artifact is published and with no cache lock held, so a slow
    /// disk stalls only the one request that paid for the optimization
    /// anyway. A failed save is logged; serving never depends on it.
    pub fn persist_to(&mut self, store: ArtifactStore) {
        self.store = Some(store);
    }

    /// Seeds the cache with an externally prepared SQL artifact (startup
    /// warming from an artifact store). Returns `true` if the artifact
    /// was admitted: it must have been prepared under this state's exact
    /// optimizer configuration (a stale artifact from an old config is
    /// refused rather than served wrong), and a key that is already
    /// cached or in flight keeps its artifact ([`ArtifactCache::insert`]).
    pub fn warm(&self, prepared: Arc<PreparedQuery>) -> bool {
        // Same query on both sides, so the two keys differ exactly when
        // the configurations' renderings do.
        format!("{:?}", prepared.config()) == format!("{:?}", self.config)
            && self
                .cache
                .insert(&self.key("tpch", prepared.query()), prepared)
    }

    /// The one key function: [`cache_key`] behind `scope|` — `tpch` for
    /// SQL, a synthetic spec's label otherwise. Neither contains `'|'`,
    /// so keys of different scopes never meet.
    fn key(&self, scope: &str, query: &QuerySpec) -> String {
        format!("{scope}|{}", cache_key(query, &self.config))
    }

    /// The one artifact cache (test observability).
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// Executes one decoded request and returns the typed reply — the
    /// in-process API. Infallible at this layer: every failure becomes
    /// a typed [`Response::Error`]. It is
    /// [`handle_encoded`](Self::handle_encoded), decoded: one body
    /// produces every reply, so the typed and the encoded form cannot
    /// drift apart.
    pub fn handle(&self, request: &Request) -> Response {
        let payload = self.handle_encoded(request, 0);
        let (_, reply) = Response::decode(&payload).expect("the server's own reply decodes");
        reply
    }

    /// Executes one decoded request to reply *bytes*, preparing the
    /// workload if it has to — the path the workers take. Only
    /// requests that passed the queue bound reach this point —
    /// queue-shed requests are answered inside the reactor and counted
    /// in `shed_queue` (and `requests`), never here.
    pub fn handle_encoded(&self, request: &Request, request_id: u64) -> Vec<u8> {
        self.requests_admitted.fetch_add(1, Ordering::Relaxed);
        let Some(workload) = request.workload() else {
            return Response::Stats(self.stats()).encode(request_id);
        };
        if let Request::SampleBatch(_, _, k) = request {
            if *k > MAX_SAMPLE_BATCH {
                let message = format!("batch of {k} exceeds the {MAX_SAMPLE_BATCH} bound");
                return Response::error(ErrorCode::BadRequest, message).encode(request_id);
            }
        }
        match self.prepared_for(workload) {
            Ok((prepared, cached)) => self.answer(&prepared, cached, request, request_id),
            Err(denial) => denial.encode(request_id),
        }
    }

    /// Answers `request` if that is a small, bounded amount of work,
    /// and otherwise declines (`None`) having done and counted nothing
    /// — the path a reactor takes before handing a request to its
    /// workers. The rule reads only the request and the caches:
    ///
    /// * `Stats` is always answered;
    /// * any other request is answered when its workload's identity is
    ///   already known (`known_identity`: a
    ///   lookup, never a parse or a catalog build) **and** its artifact
    ///   is cached ([`ArtifactCache::get_if`]: a lookup, never a
    ///   preparation, and nothing counted on a miss);
    /// * a `SampleBatch` additionally needs `k` ≤
    ///   `INLINE_MAX_SAMPLES` (tested before any lookup) and an
    ///   artifact on a fixed-width count tier — the exact-`Nat` sampler
    ///   allocates per draw and is several times slower.
    ///
    /// A request answered here was counted exactly as
    /// [`handle_encoded`](Self::handle_encoded) would have counted it
    /// (one `requests_admitted`, one cache hit) and its reply is the
    /// same bytes: both run `answer`.
    pub fn handle_inline(&self, request: &Request, request_id: u64) -> Option<Vec<u8>> {
        let Some(workload) = request.workload() else {
            // Counted first, as on the worker path: a snapshot includes
            // the request that asked for it.
            self.requests_admitted.fetch_add(1, Ordering::Relaxed);
            return Some(Response::Stats(self.stats()).encode(request_id));
        };
        let sampling = match request {
            Request::SampleBatch(_, _, k) if *k > INLINE_MAX_SAMPLES => return None,
            Request::SampleBatch(..) => true,
            _ => false,
        };
        let id = self.known_identity(workload)?;
        let prepared = self.cache.get_if(&id.key, |prepared| {
            !sampling || prepared.tier() != CountTier::Nat
        })?;
        self.requests_admitted.fetch_add(1, Ordering::Relaxed);
        Some(self.answer(&prepared, true, request, request_id))
    }

    /// Answers `request` from its artifact (`cached`: whether that was
    /// already resident): the one body per opcode, whichever path found
    /// the artifact. `SampleBatch` streams — see
    /// [`stream_samples`](Self::stream_samples).
    fn answer(
        &self,
        p: &PreparedQuery,
        cached: bool,
        request: &Request,
        request_id: u64,
    ) -> Vec<u8> {
        let reply = match request {
            Request::Prepare(_) => Response::Prepared {
                total: p.total().clone(),
                groups: p.memo().num_groups() as u32,
                exprs: p.memo().num_physical() as u32,
                size_bytes: p.size_bytes() as u64,
                cached,
            },
            Request::Count(_) => Response::Count(p.total().clone()),
            Request::Best(_) => {
                let (plan, cost) = p.best();
                Response::Best(to_wire_plan(plan), cost)
            }
            Request::Unrank(_, rank) => match p.unrank(rank) {
                Ok(plan) => Response::Plan(to_wire_plan(&plan), p.scaled_cost(&plan)),
                Err(e) => error_response(&Error::from(e)),
            },
            Request::SampleBatch(_, seed, k) => {
                return self.stream_samples(p, *seed, *k, request_id)
            }
            Request::Stats => unreachable!("Stats names no workload, so no artifact answers it"),
        };
        reply.encode(request_id)
    }

    /// The `SampleBatch` body: plans are drawn *and costed* into a
    /// reusable flat [`PlanBatch`] in one walk each (zero steady-state
    /// allocations per draw on the fixed-width count tiers), then
    /// encoded into a reply buffer reserved once, at its exact size, via
    /// [`SamplesEncoder`] — so a 4096-plan batch never materializes a
    /// `WirePlan` per plan, and no plan is read again between the draw
    /// and the encode. Peak memory is the reply plus the flat batch,
    /// tracked in [`ServerState::batch_peak_bytes`]. The streaming
    /// encoder is byte-compatible with [`Response::encode`] — which the
    /// unit tests below assert; `tests/reply_digest.rs` pins a digest of
    /// the reply bytes themselves.
    fn stream_samples(&self, p: &PreparedQuery, seed: u64, k: u32, request_id: u64) -> Vec<u8> {
        thread_local! {
            /// Per-thread sampling scratch; its capacity persists across
            /// requests, so steady-state batches allocate only their
            /// reply.
            static BATCH: RefCell<PlanBatch> = RefCell::new(PlanBatch::new());
        }
        BATCH.with(|cell| {
            let batch = &mut *cell.borrow_mut();
            p.sample_batch_scaled(&mut StdRng::seed_from_u64(seed), k as usize, batch);
            let mut enc = SamplesEncoder::new(request_id);
            enc.reserve(batch.len(), batch.total_nodes());
            for (ids, &cost) in batch.iter().zip(batch.costs()) {
                enc.push(wire_ids(ids), cost);
            }
            let peak = (batch.size_bytes() + enc.len_bytes()) as u64;
            self.batch_peak_bytes.fetch_max(peak, Ordering::Relaxed);
            enc.finish()
        })
    }

    /// Resolves and prepares a workload, applying admission control —
    /// "find the artifact" in its lookup-then-prepare form
    /// ([`handle_inline`](Self::handle_inline) holds the lookup-only
    /// one). A cached workload takes the cache lock once, in `get_if`;
    /// only a miss reaches the admission check and the preparing entry
    /// point, and only an SQL preparation this call led is written
    /// through to the store ([`persist_to`](Self::persist_to)).
    /// Failures (shed, parse, optimize) come back as the typed error
    /// reply.
    fn prepared_for(
        &self,
        workload: &Workload,
    ) -> Result<(Arc<PreparedQuery>, bool), Box<Response>> {
        let id = self.resolve(workload)?;
        if let Some(prepared) = self.cache.get_if(&id.key, |_| true) {
            return Ok((prepared, true));
        }
        if let Some(denial) = self.deny_preparation() {
            self.shed_prepare.fetch_add(1, Ordering::Relaxed);
            return Err(Box::new(denial));
        }
        let prepare = || PreparedQuery::prepare(&id.catalog, &id.query, &self.config);
        let (prepared, led) = self
            .cache
            .get_or_prepare(&id.key, prepare)
            .map_err(|e| Box::new(error_response(&e)))?;
        if led && Arc::ptr_eq(&id.catalog, &self.tpch) {
            if let Some(Err(e)) = self.store.as_ref().map(|store| store.save(&prepared)) {
                eprintln!("plansample-serve: artifact save failed: {e}");
            }
        }
        Ok((prepared, false))
    }

    /// The identity of a workload this state has already resolved —
    /// one hash lookup under the table's lock, and nothing parsed,
    /// built or inserted. `None` for a workload not seen yet (or since
    /// evicted from the table), for an SQL text too long to keep, and
    /// for a synthetic spec out of range (such a spec never gets an
    /// entry).
    fn known_identity(&self, workload: &Workload) -> Option<Arc<Identity>> {
        if matches!(workload, Workload::Sql(sql) if sql.len() > MEMO_MAX_TEXT) {
            return None;
        }
        let mut identities = self.identities.lock().expect("identity table poisoned");
        identities.get_if(workload, |_| true).cloned()
    }

    /// Maps a workload to its identity, learning it if this is the
    /// first time; prepares nothing. The table's lock is never held
    /// across a parse or a catalog build; two threads racing on a new
    /// workload both resolve it, to the same key, and the table keeps
    /// the first.
    fn resolve(&self, workload: &Workload) -> Result<Arc<Identity>, Box<Response>> {
        if let Some(id) = self.known_identity(workload) {
            return Ok(id);
        }
        let (id, keep) = match workload {
            Workload::Sql(sql) => {
                let id = self.learn_sql(sql)?;
                let keep = sql.len() <= MEMO_MAX_TEXT && id.key.len() <= MEMO_MAX_KEY;
                (id, keep)
            }
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
                let spec = JoinGraphSpec::new(*topology, *relations as usize, *seed);
                (self.learn_synth(&spec), true)
            }
        };
        let id = Arc::new(id);
        if keep {
            let mut identities = self.identities.lock().expect("identity table poisoned");
            identities.insert(workload.clone(), Arc::clone(&id));
            while identities.len() > self.max_identities {
                identities.pop_oldest();
            }
        }
        Ok(id)
    }

    /// Parses an SQL text into its identity over the TPC-H catalog.
    fn learn_sql(&self, sql: &str) -> Result<Identity, Box<Response>> {
        let parsed = plansample_sql::parse(&self.tpch, sql).map_err(|e| {
            // `render` quotes the offending line; `error` clamps
            // it so the reply stays within the frame bound.
            Box::new(Response::error(ErrorCode::Sql, e.render(sql)))
        })?;
        // The front door serves plan-space operations; execution
        // hints (USEPLAN) have no meaning here.
        Ok(Identity {
            catalog: Arc::clone(&self.tpch),
            key: self.key("tpch", &parsed.spec),
            query: parsed.spec,
        })
    }

    /// Builds the identity of one synthetic spec: the catalog the spec
    /// materializes, keyed under the spec's label — which names every
    /// input of the build, so two specs never share a key even where
    /// their queries render alike.
    fn learn_synth(&self, spec: &JoinGraphSpec) -> Identity {
        let (catalog, query) = spec.build();
        Identity {
            key: self.key(&spec.label(), &query),
            catalog: Arc::new(catalog),
            query,
        }
    }

    /// Whether an uncached request must be shed right now — too many
    /// first preparations in flight, whatever their workloads — and the
    /// typed reply if so.
    fn deny_preparation(&self) -> Option<Response> {
        let inflight = self.cache.stats().inflight;
        (inflight >= self.admission.max_prepares).then(|| {
            let message = format!("{inflight} first preparations already in flight");
            Response::error(ErrorCode::Overloaded, message)
        })
    }

    /// Snapshot of every counter, for [`Request::Stats`]: the atomics
    /// and one lock, the cache's. `hits + misses + coalesced` is the
    /// number of requests that resolved, whatever workloads they named.
    pub fn stats(&self) -> StatsReply {
        let cache = self.cache.stats();
        StatsReply {
            requests: self.requests.load(Ordering::Relaxed),
            requests_admitted: self.requests_admitted.load(Ordering::Relaxed),
            shed_queue: self.shed_queue.load(Ordering::Relaxed),
            shed_prepare: self.shed_prepare.load(Ordering::Relaxed),
            wire_errors: self.wire_errors.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            connections_open: self.connections_open.load(Ordering::Relaxed),
            connections_total: self.connections_total.load(Ordering::Relaxed),
            hits: cache.hits,
            misses: cache.misses,
            coalesced: cache.coalesced,
            evictions: cache.evictions,
            entries: cache.entries as u64,
            resident_bytes: cache.resident_bytes as u64,
            byte_budget: cache.byte_budget.unwrap_or(0) as u64,
            inflight_prepares: cache.inflight as u64,
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

/// Preorder ids in wire form: `(group, index)` pairs.
fn wire_ids(ids: &[PhysId]) -> impl ExactSizeIterator<Item = (u32, u32)> + '_ {
    ids.iter().map(|id| (id.group.0, id.index as u32))
}

/// A plan's wire form: its preorder `(group, index)` listing.
pub fn to_wire_plan(plan: &PlanNode) -> WirePlan {
    wire_ids(&plan.preorder_ids()).collect()
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
    use plansample_bignum::Nat;

    fn state() -> ServerState {
        ServerState::new(
            OptimizerConfig::default(),
            4,
            None,
            AdmissionConfig::default(),
            2,
        )
    }

    /// Cheap synthetic workload (2-relation chain) where only the seed
    /// varies — the exact shape of the unbounded-growth attack.
    fn chain_spec(seed: u64) -> Workload {
        Workload::Synthetic {
            topology: Topology::Chain,
            relations: 2,
            seed,
        }
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

    fn known_workloads(state: &ServerState) -> usize {
        state.identities.lock().unwrap().len()
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
        let state = state();
        let chain = JoinGraphSpec::new(Topology::Chain, 2, 1).label();
        for (workload, scope) in [(sql(NATIONS_BY_REGION), "tpch"), (chain_spec(1), &chain)] {
            let first = state.resolve(&workload).unwrap();
            let again = state.resolve(&workload).unwrap();
            assert!(
                Arc::ptr_eq(&first, &again),
                "{workload:?} was parsed, built or keyed a second time"
            );
            assert_eq!(first.key, state.key(scope, &first.query));
        }
    }

    /// Keys are disjoint by scope, not by what a spec happens to
    /// render: SQL under `tpch`, a synthetic spec under its label —
    /// which no two specs share.
    #[test]
    fn keys_are_scoped_by_workload_family_and_by_spec() {
        let state = state();
        let key = |workload: &Workload| state.resolve(workload).unwrap().key.clone();
        assert!(key(&sql(NATIONS_BY_REGION)).starts_with("tpch|rels:"));
        let (one, two) = (key(&chain_spec(1)), key(&chain_spec(2)));
        assert!(one.starts_with("chain-2#1|rels:"), "got {one}");
        assert!(two.starts_with("chain-2#2|rels:"), "got {two}");
    }

    /// (a) The table holds identity, never an artifact: a known text
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
        assert_eq!(known_workloads(&state), 2, "both texts stayed known");
    }

    /// (b) Two spellings are two table entries with one key between them.
    #[test]
    fn two_spellings_of_a_query_share_one_artifact() {
        let state = sql_state(4, AdmissionConfig::default());
        let reordered = "SELECT COUNT(*) FROM nation n, region r \
             WHERE r.r_regionkey < 3 AND n.n_regionkey = r.r_regionkey";
        assert!(!prepare(&state, NATIONS_BY_REGION).1);
        assert!(prepare(&state, reordered).1, "second spelling is a hit");
        let stats = state.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(known_workloads(&state), 2);
    }

    /// (c) The table stays at its cap whatever is cycled through it —
    /// texts or seeds — and keeps neither over-length texts, nor
    /// over-length keys, nor workloads that do not resolve.
    #[test]
    fn identity_table_is_bounded_and_keeps_only_short_workloads_that_resolve() {
        let state = sql_state(2, AdmissionConfig::default());
        let cap = 2 * IDENTITIES_PER_ENTRY;
        let cycled: Vec<Workload> = (0..10 * cap)
            .map(|i| match i % 2 {
                0 => sql(&format!("SELECT * FROM region WHERE r_regionkey < {i}")),
                _ => chain_spec(i as u64),
            })
            .collect();
        for (i, workload) in cycled.iter().enumerate() {
            let reply = state.handle(&Request::Count(workload.clone()));
            assert!(matches!(reply, Response::Count(_)), "got {reply:?}");
            assert_eq!(known_workloads(&state), cap.min(i + 1));
        }
        let known = |state: &ServerState| -> Vec<bool> {
            let is_known = |w| state.known_identity(w).is_some();
            cycled.iter().map(is_known).collect()
        };
        let known_before = known(&state);
        assert_eq!(known_before.iter().filter(|k| **k).count(), cap);

        let padded = format!(
            "SELECT * FROM region WHERE r_regionkey < 3{}",
            " ".repeat(MEMO_MAX_TEXT)
        );
        let many_filters = format!(
            "SELECT * FROM region WHERE r_regionkey < 3{}",
            " AND r_regionkey < 3".repeat(150)
        );
        assert!(many_filters.len() <= MEMO_MAX_TEXT);
        for text in [padded.as_str(), many_filters.as_str()] {
            for _ in 0..2 {
                let reply = state.handle(&Request::Count(sql(text)));
                assert!(matches!(reply, Response::Count(_)), "got {reply:?}");
            }
            assert!(state.known_identity(&sql(text)).is_none());
        }
        let key_len = state.resolve(&sql(&many_filters)).unwrap().key.len();
        assert!(key_len > MEMO_MAX_KEY, "key of {key_len} bytes is short");

        let out_of_range = Workload::Synthetic {
            topology: Topology::Cycle,
            relations: 2,
            seed: 1,
        };
        for (workload, code) in [
            (sql("SELECT * FROM no_such_table"), ErrorCode::Sql),
            (out_of_range, ErrorCode::BadRequest),
        ] {
            let request = Request::Count(workload.clone());
            let first = state.handle_encoded(&request, 9);
            assert!(matches!(
                Response::decode(&first).unwrap().1,
                Response::Error { code: got, .. } if got == code
            ));
            for _ in 0..3 {
                assert_eq!(state.handle_encoded(&request, 9), first);
            }
            assert!(state.known_identity(&workload).is_none());
        }
        assert_eq!(
            known(&state),
            known_before,
            "a workload not kept evicts nothing"
        );
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
        let warm = plansample_sql::parse(&state.tpch, NATIONS_BY_REGION)
            .unwrap()
            .spec;
        let key = state.key("tpch", &warm);
        let fill = || PreparedQuery::prepare(&state.tpch, &warm, &state.config);
        assert!(state.cache.get_or_prepare(&key, fill).unwrap().1);

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

    /// The reactor's entry point turns `request` down, and no counter
    /// anywhere shows that it was asked.
    fn assert_declines(state: &ServerState, request: &Request, why: &str) {
        let before = state.stats();
        assert_eq!(state.handle_inline(request, 5), None, "{why}: {request:?}");
        assert_eq!(state.stats(), before, "{why}: declining moved a counter");
    }

    /// The reactor's entry point answers `request` with the bytes the
    /// worker path gives, counted once as admitted and (when it names a
    /// workload) once as a hit.
    fn assert_answers(state: &ServerState, request: &Request) {
        let before = state.stats();
        let reply = state.handle_inline(request, 5);
        let after = state.stats();
        let hit = u64::from(request.workload().is_some());
        assert_eq!(
            (after.requests_admitted, after.hits, after.misses),
            (
                before.requests_admitted + 1,
                before.hits + hit,
                before.misses
            ),
            "{request:?}"
        );
        if *request == Request::Stats {
            // The counters it reports have moved since; the snapshot
            // includes the request that asked for it.
            let (_, reply) = Response::decode(&reply.unwrap()).unwrap();
            assert!(
                matches!(&reply, Response::Stats(s) if s.requests_admitted == after.requests_admitted),
                "got {reply:?}"
            );
        } else {
            assert_eq!(reply, Some(state.handle_encoded(request, 5)), "{request:?}");
        }
    }

    const REGION: &str = "SELECT * FROM region WHERE r_regionkey < 3";

    /// Every request kind over `workload`, with the largest batch a
    /// reactor samples and one rank past the space's last.
    fn every_inline_request(workload: &Workload, total: &Nat) -> Vec<Request> {
        vec![
            Request::Prepare(workload.clone()),
            Request::Count(workload.clone()),
            Request::Best(workload.clone()),
            Request::Unrank(workload.clone(), Nat::one()),
            Request::Unrank(workload.clone(), total.clone()),
            Request::SampleBatch(workload.clone(), 7, 0),
            Request::SampleBatch(workload.clone(), 7, INLINE_MAX_SAMPLES),
        ]
    }

    /// Both sides of every branch of the inline rule but the count
    /// tier (next test).
    #[test]
    fn inline_answers_known_cached_small_requests_and_declines_the_rest_uncounted() {
        let state = sql_state(1, AdmissionConfig::default());
        let chain = chain_spec(1);
        let out_of_range = Workload::Synthetic {
            topology: Topology::Cycle,
            relations: 2,
            seed: 1,
        };
        let padded = format!("{REGION}{}", " ".repeat(MEMO_MAX_TEXT));

        // A state that has seen nothing knows no identity...
        for workload in [sql(NATIONS_BY_REGION), chain.clone(), out_of_range.clone()] {
            assert_declines(&state, &Request::Count(workload), "unknown identity");
        }
        // ...and answers `Stats` all the same.
        assert_answers(&state, &Request::Stats);

        // Once a worker has resolved and prepared them, every small
        // request is answered here; a batch past the constant is not.
        for workload in [sql(NATIONS_BY_REGION), chain] {
            let Response::Count(total) = state.handle(&Request::Count(workload.clone())) else {
                panic!("{workload:?} does not count");
            };
            for request in every_inline_request(&workload, &total) {
                assert_answers(&state, &request);
            }
            let bulk = Request::SampleBatch(workload, 7, INLINE_MAX_SAMPLES + 1);
            assert_declines(&state, &bulk, "k past the constant");
        }

        // Resolved by a worker, but never known: a spec out of range
        // (refused) and a text too long to memoise (cached, served the
        // long way every time).
        state.handle(&Request::Count(out_of_range.clone()));
        assert_declines(&state, &Request::Count(out_of_range), "refused spec");
        assert!(matches!(
            state.handle(&Request::Count(sql(&padded))),
            Response::Count(_)
        ));
        assert_declines(&state, &Request::Count(sql(&padded)), "unmemoisable text");

        // Identity known, artifact evicted (one cache entry, and the
        // padded text just took it).
        assert_declines(&state, &Request::Count(sql(NATIONS_BY_REGION)), "evicted");
    }

    /// A `SampleBatch` is answered on the fixed-width tiers only; every
    /// other request does not care.
    #[test]
    fn inline_sampling_declines_the_exact_tier() {
        let state = sql_state(4, AdmissionConfig::default());
        state.handle(&Request::Count(sql(REGION)));
        let id = state.known_identity(&sql(REGION)).unwrap();
        let cached = state.cache.get_if(&id.key, |_| true).unwrap();
        assert_eq!(cached.tier(), CountTier::U64);
        assert_answers(&state, &Request::SampleBatch(sql(REGION), 7, 1));

        // The same artifact with its counts re-stored as exact naturals.
        let mut space = cached.space().clone();
        space.force_tier(CountTier::Nat);
        let (plan, cost) = cached.best();
        let exact =
            PreparedQuery::from_parts(space, plan.clone(), cost, cached.config().clone()).unwrap();
        assert_eq!(exact.tier(), CountTier::Nat);
        // Seeded into a fresh state that knows the text but has
        // prepared nothing.
        let state = sql_state(4, AdmissionConfig::default());
        state.resolve(&sql(REGION)).unwrap();
        assert!(state.warm(Arc::new(exact)));

        assert_declines(
            &state,
            &Request::SampleBatch(sql(REGION), 7, 1),
            "exact tier",
        );
        assert_answers(&state, &Request::Count(sql(REGION)));
        assert_answers(&state, &Request::Unrank(sql(REGION), Nat::zero()));
    }

    /// A rank one past the space's last plan is a typed `Space` error
    /// whose message is the pipeline error's, not the rank layer's.
    #[test]
    fn out_of_range_unrank_replies_with_the_pipeline_space_error() {
        let state = state();
        let Response::Count(total) = state.handle(&Request::Count(sql(REGION))) else {
            panic!("{REGION:?} does not count");
        };
        assert_eq!(
            state.handle(&Request::Unrank(sql(REGION), total)),
            Response::Error {
                code: ErrorCode::Space,
                message: "plan-space operation failed".to_string(),
            }
        );
    }

    /// `SamplesEncoder` (streaming) against `Response::encode` (the
    /// materialized reply): both are fed by the same flat sampler, so
    /// this is purely the encoders' byte-identity.
    #[test]
    fn streamed_sample_batch_bytes_match_the_tree_path() {
        let state = state();
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
        let state = state();
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
