//! One cache, one budget, one prepare bound. A server keeps the
//! artifacts of every workload — SQL over TPC-H and synthetic join
//! graphs alike — in a single singleflighted cache, so the byte budget,
//! the `max_prepares` bound and the `Stats` ledger each hold across
//! workloads. Every test here drives a `ServerState` in process with
//! small specs (tier-1 runs in debug) and would fail on a server that
//! kept a service per synthetic spec beside the TPC-H one.

use plansample::PreparedQuery;
use plansample_datagen::joingraph::Topology;
use plansample_optimizer::OptimizerConfig;
use plansample_serve::wire::{ErrorCode, Request, Response, StatsReply, Workload};
use plansample_serve::{AdmissionConfig, ServerState};
use std::sync::{mpsc, Barrier};

const REGION: &str = "SELECT * FROM region WHERE region.r_regionkey < 3";
const NATIONS: &str = "SELECT COUNT(*) FROM nation n, region r \
     WHERE n.n_regionkey = r.r_regionkey AND r.r_regionkey < 3";
const SUPPLIERS: &str = "SELECT COUNT(*) FROM supplier s, nation n \
     WHERE s.s_nationkey = n.n_nationkey";

fn state(byte_budget: Option<usize>, max_prepares: usize) -> ServerState {
    let admission = AdmissionConfig {
        max_prepares,
        ..AdmissionConfig::default()
    };
    ServerState::new(OptimizerConfig::default(), 64, byte_budget, admission, 1)
}

fn sql(text: &str) -> Workload {
    Workload::Sql(text.to_string())
}

fn star(relations: u16, seed: u64) -> Workload {
    Workload::Synthetic {
        topology: Topology::Star,
        relations,
        seed,
    }
}

/// Counts `workload` and returns the counters after the reply; panics
/// unless the reply is a `Count`.
fn count(state: &ServerState, workload: &Workload) -> StatsReply {
    let reply = state.handle(&Request::Count(workload.clone()));
    assert!(
        matches!(reply, Response::Count(_)),
        "{workload:?}: {reply:?}"
    );
    state.stats()
}

fn is_overloaded(state: &ServerState, workload: &Workload) -> bool {
    let reply = state.handle(&Request::Count(workload.clone()));
    matches!(
        reply,
        Response::Error {
            code: ErrorCode::Overloaded,
            ..
        }
    )
}

/// (a) The byte budget sees synthetic workloads: forty seeds of one
/// topology never hold more than the budget resident, and each eviction
/// shows on the one ledger.
#[test]
fn one_budget_bounds_synthetic_artifacts_by_eviction() {
    const SEEDS: u64 = 40;
    let one_artifact = count(&state(None, 4), &star(6, 0)).resident_bytes;
    assert!(one_artifact > 0);
    let budget = one_artifact * 7 / 2;
    let state = state(Some(budget as usize), 4);
    for seed in 0..SEEDS {
        let stats = count(&state, &star(6, seed));
        assert!(
            stats.resident_bytes <= budget,
            "seed {seed}: {} resident of {budget} budgeted",
            stats.resident_bytes
        );
    }
    let stats = state.stats();
    assert_eq!(stats.byte_budget, budget);
    assert!(stats.entries >= 2, "{stats:?}");
    assert_eq!(stats.evictions, SEEDS - stats.entries, "{stats:?}");
    assert_eq!(
        (stats.misses, stats.hits, stats.shed_prepare),
        (SEEDS, 0, 0)
    );
}

/// (b) An artifact larger than the whole budget is served, kept alone,
/// and evicted by the next insert — it does not shed the workloads
/// after it.
#[test]
fn an_oversized_artifact_is_served_and_does_not_wedge_the_server() {
    let state = state(Some(1), 4);
    let workloads = [sql(REGION), sql(NATIONS), star(4, 1)];
    for round in 1..=3u64 {
        for (i, workload) in workloads.iter().enumerate() {
            let stats = count(&state, workload);
            assert_eq!(stats.entries, 1, "round {round}: {stats:?}");
            assert_eq!(stats.shed_prepare, 0, "round {round}: {stats:?}");
            assert_eq!(stats.misses, (round - 1) * 3 + i as u64 + 1);
        }
    }
}

/// (c) `max_prepares` bounds first preparations server-wide: while one
/// flight — of any key — is open at `max_prepares: 1`, an uncached SQL
/// text and an uncached synthetic spec are both shed, cached ones are
/// served, and once the flight lands both prepare.
#[test]
fn one_prepare_bound_holds_across_workload_families() {
    let state = &state(None, 1);
    let (warm_sql, warm_spec) = (sql(REGION), star(4, 1));
    let (cold_sql, cold_spec) = (sql(NATIONS), star(4, 2));
    count(state, &warm_sql);
    count(state, &warm_spec);

    let (entered, has_entered) = mpsc::channel();
    let (release, released) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let leader = scope.spawn(move || {
            state.cache().get_or_prepare("held open", || {
                entered.send(()).unwrap();
                released.recv().unwrap();
                let (catalog, _) = plansample_catalog::tpch::catalog();
                let spec = plansample_sql::parse(&catalog, SUPPLIERS).unwrap().spec;
                PreparedQuery::prepare(&catalog, &spec, &OptimizerConfig::default())
            })
        });
        has_entered.recv().unwrap();
        assert_eq!(state.stats().inflight_prepares, 1);

        assert!(is_overloaded(state, &cold_sql));
        assert!(is_overloaded(state, &cold_spec));
        let stats = count(state, &warm_sql);
        assert_eq!((stats.shed_prepare, stats.hits, stats.misses), (2, 1, 3));
        assert_eq!(count(state, &warm_spec).hits, 2);

        release.send(()).unwrap();
        let (_, led) = leader.join().unwrap().unwrap();
        assert!(led);
    });

    count(state, &cold_sql);
    let stats = count(state, &cold_spec);
    assert_eq!((stats.shed_prepare, stats.misses), (2, 5));
    assert_eq!(stats.inflight_prepares, 0);
}

/// (d) Nothing but the cache's singleflight stands between racing
/// threads and a fresh synthetic spec — each builds its own catalog,
/// under no lock — and one optimization still serves them all.
#[test]
fn racing_threads_on_a_fresh_spec_optimize_once() {
    const THREADS: usize = 8;
    let state = state(None, 4);
    let request = Request::Count(Workload::Synthetic {
        topology: Topology::Clique,
        relations: 5,
        seed: 3,
    });
    let barrier = Barrier::new(THREADS);
    let results: Vec<(Vec<u8>, u64)> = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let before = plansample_optimizer::thread_optimizations_performed();
                    barrier.wait();
                    let reply = state.handle_encoded(&request, 7);
                    let after = plansample_optimizer::thread_optimizations_performed();
                    (reply, after - before)
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert_eq!(
        results.iter().map(|(_, optimized)| optimized).sum::<u64>(),
        1
    );
    for (reply, _) in &results {
        assert_eq!(reply, &results[0].0);
    }
    let (_, reply) = Response::decode(&results[0].0).unwrap();
    assert!(matches!(reply, Response::Count(_)), "got {reply:?}");
    let stats = state.stats();
    assert_eq!((stats.misses, stats.entries, stats.shed_prepare), (1, 1, 0));
    assert_eq!(stats.hits + stats.coalesced, THREADS as u64 - 1);
}
