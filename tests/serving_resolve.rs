//! Warm equals cold, byte for byte. A `ServerState` resolves a workload
//! once and afterwards serves it from memoised identity (SQL text →
//! spec + key, synthetic spec → front + spec + key); a state that has
//! never seen the workload parses, builds, keys and prepares it on the
//! spot. One seeded point-mix stream goes through a single long-lived
//! state — sequentially, then from four threads at once — and every
//! reply must be the bytes a *fresh* state gives for that request alone.
//! The one cache's ledger must balance on the way: every request that
//! resolved, SQL or synthetic, is exactly one of a hit, a miss, or a
//! coalesced wait.

use plansample_bignum::Nat;
use plansample_datagen::joingraph::Topology;
use plansample_optimizer::OptimizerConfig;
use plansample_serve::wire::{Request, Response, Workload};
use plansample_serve::{AdmissionConfig, ServerState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Barrier;

const REQUESTS: usize = 2_000;
const SEED: u64 = 20_000;

/// Texts 1 and 2 are two spellings of one query (one artifact, two
/// table entries); the last does not parse and must never be kept.
const SQL_TEXTS: [&str; 5] = [
    "SELECT * FROM region WHERE region.r_regionkey < 3",
    "SELECT COUNT(*) FROM nation n, region r \
     WHERE n.n_regionkey = r.r_regionkey AND r.r_regionkey < 3",
    "SELECT COUNT(*) FROM nation n, region r \
     WHERE r.r_regionkey < 3 AND n.n_regionkey = r.r_regionkey",
    "SELECT n_name, COUNT(*) FROM supplier s, nation n, region r \
     WHERE s.s_nationkey = n.n_nationkey AND n.n_regionkey = r.r_regionkey \
     GROUP BY n.n_name",
    "SELECT * FROM no_such_table",
];

/// The last spec is out of range: refused before the cache sees it.
const SYNTH_SPECS: [(Topology, u16); 5] = [
    (Topology::Chain, 4),
    (Topology::Star, 4),
    (Topology::Cycle, 3),
    (Topology::Clique, 3),
    (Topology::Cycle, 2),
];

fn fresh_state() -> ServerState {
    ServerState::new(
        OptimizerConfig::default(),
        64,
        None,
        AdmissionConfig::default(),
        1,
    )
}

/// Every workload with its plan-space total (`None`: it does not
/// resolve), learned from a state of its own.
fn workloads() -> Vec<(Workload, Option<Nat>)> {
    let state = fresh_state();
    let sql = SQL_TEXTS.iter().map(|text| Workload::Sql(text.to_string()));
    let synth = SYNTH_SPECS
        .iter()
        .map(|&(topology, relations)| Workload::Synthetic {
            topology,
            relations,
            seed: SEED,
        });
    sql.chain(synth)
        .map(|workload| {
            let total = match state.handle(&Request::Count(workload.clone())) {
                Response::Count(total) => Some(total),
                Response::Error { .. } => None,
                other => panic!("count of {workload:?} answered {other:?}"),
            };
            (workload, total)
        })
        .collect()
}

/// Count 30 / Best 20 / Unrank 25 / SampleBatch(≤ 16) 25, uniformly
/// over the workloads.
fn stream(workloads: &[(Workload, Option<Nat>)]) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(SEED);
    (0..REQUESTS)
        .map(|_| {
            let (workload, total) = &workloads[rng.gen_range(0..workloads.len())];
            let workload = workload.clone();
            match rng.gen_range(0..100u32) {
                0..=29 => Request::Count(workload),
                30..=49 => Request::Best(workload),
                50..=74 => {
                    let bound = total.clone().unwrap_or_else(|| Nat::from(1u64));
                    Request::Unrank(workload, Nat::random_below(&mut rng, &bound))
                }
                _ => Request::SampleBatch(workload, rng.gen(), rng.gen_range(1..=16u32)),
            }
        })
        .collect()
}

fn workload_of(request: &Request) -> &Workload {
    match request {
        Request::Prepare(w)
        | Request::Count(w)
        | Request::Best(w)
        | Request::Unrank(w, _)
        | Request::SampleBatch(w, _, _) => w,
        Request::Stats => unreachable!("the stream has no Stats requests"),
    }
}

#[test]
fn a_long_lived_state_answers_like_a_fresh_one_at_1_and_4_threads() {
    let workloads = workloads();
    let resolves = |w: &Workload| workloads.iter().any(|(x, total)| x == w && total.is_some());
    let requests = stream(&workloads);
    let cold: Vec<Vec<u8>> = requests
        .iter()
        .enumerate()
        .map(|(id, request)| fresh_state().handle_encoded(request, id as u64))
        .collect();
    let resolved = requests
        .iter()
        .map(workload_of)
        .filter(|w| resolves(w))
        .count() as u64;
    assert!(resolved > 0 && (resolved as usize) < REQUESTS);

    for threads in [1usize, 4] {
        let state = fresh_state();
        let barrier = Barrier::new(threads);
        let warm: Vec<Vec<(usize, Vec<u8>)>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let (state, barrier, requests) = (&state, &barrier, &requests);
                    scope.spawn(move || {
                        barrier.wait();
                        (t..requests.len())
                            .step_by(threads)
                            .map(|id| (id, state.handle_encoded(&requests[id], id as u64)))
                            .collect()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (id, reply) in warm.into_iter().flatten() {
            assert!(
                reply == cold[id],
                "{threads} thread(s): reply {id} to {:?} differs from a fresh state's",
                requests[id]
            );
        }

        let stats = state.stats();
        assert_eq!(
            stats.hits + stats.misses + stats.coalesced,
            resolved,
            "{threads} thread(s): {stats:?}"
        );
        // One ledger for every workload (it used to count SQL only):
        // four texts resolve, two of them to one key, and four specs.
        assert_eq!(stats.entries, 7);
        assert_eq!(stats.misses, 7, "one preparation per distinct key");
        assert_eq!(stats.requests_admitted, REQUESTS as u64);
        assert_eq!(stats.shed_prepare, 0);
    }
}
