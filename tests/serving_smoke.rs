//! Concurrency smoke test for the network front end: a thundering herd
//! of client threads hammers one server over loopback with a shared
//! workload set, and every reply must be byte-for-byte identical to
//! what the in-process `PreparedQuery` API produces for the same
//! operation — the serving layer adds transport, not behavior. The
//! server-side cache counters then pin the singleflight property across
//! the network: one optimization per distinct query, no matter how many
//! connections raced for it.
//!
//! The whole herd runs at 1, 2, and 4 reactors: reactors shard
//! connections, never workloads, so the reply bytes must be identical
//! at every count, the singleflight counters must not move, and the
//! per-reactor counters must sum exactly to the globals.

use plansample::PlanService;
use plansample_bignum::Nat;
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_optimizer::OptimizerConfig;
use plansample_serve::server::{self, ServerConfig};
use plansample_serve::state::to_wire_plan;
use plansample_serve::{AdmissionConfig, Client, Request, Response, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::{Barrier, Mutex};
use std::time::Duration;

const THREADS: usize = 8;
const REACTOR_COUNTS: &[usize] = &[1, 2, 4];
const SAMPLE_SEED: u64 = 0xDEAD_BEEF;
const SAMPLE_K: u32 = 8;

const SQL_WORKLOADS: &[&str] = &[
    "SELECT COUNT(*) FROM nation n1, nation n2 WHERE n1.n_regionkey = n2.n_regionkey",
    "SELECT n_name, COUNT(*) FROM supplier s, nation n, region r \
     WHERE s.s_nationkey = n.n_nationkey AND n.n_regionkey = r.r_regionkey \
     GROUP BY n.n_name",
];

const SYNTH_WORKLOADS: &[(Topology, u16, u64)] = &[(Topology::Chain, 6, 5), (Topology::Star, 5, 9)];

fn workloads() -> Vec<Workload> {
    let mut all: Vec<Workload> = SQL_WORKLOADS
        .iter()
        .map(|sql| Workload::Sql(sql.to_string()))
        .collect();
    all.extend(
        SYNTH_WORKLOADS
            .iter()
            .map(|&(topology, relations, seed)| Workload::Synthetic {
                topology,
                relations,
                seed,
            }),
    );
    all
}

/// The operations each thread performs per workload, in order.
fn ops(workload: &Workload) -> Vec<Request> {
    vec![
        Request::Count(workload.clone()),
        Request::Best(workload.clone()),
        Request::Unrank(workload.clone(), Nat::from(0u64)),
        Request::SampleBatch(workload.clone(), SAMPLE_SEED, SAMPLE_K),
    ]
}

/// What the in-process API says the reply must be, computed through the
/// same `PlanService` machinery the server uses (fresh instances, so
/// nothing is shared with the server under test).
fn expected_replies() -> HashMap<Vec<u8>, Vec<u8>> {
    let config = OptimizerConfig::default();
    let mut expected = HashMap::new();
    for workload in workloads() {
        let (service, query) = match &workload {
            Workload::Sql(sql) => {
                let (catalog, _) = plansample_catalog::tpch::catalog();
                let parsed = plansample_sql::parse(&catalog, sql).expect("workload SQL parses");
                (PlanService::new(catalog, config.clone(), 4), parsed.spec)
            }
            Workload::Synthetic {
                topology,
                relations,
                seed,
            } => {
                let spec = JoinGraphSpec::new(*topology, *relations as usize, *seed);
                let (catalog, query) = spec.build();
                (PlanService::new(catalog, config.clone(), 1), query)
            }
        };
        let p = service.get_or_prepare(&query).expect("workload prepares");
        for request in ops(&workload) {
            let reply = match &request {
                Request::Count(_) => Response::Count(p.total().clone()),
                Request::Best(_) => {
                    let (plan, cost) = p.best();
                    Response::Best(to_wire_plan(plan), cost)
                }
                Request::Unrank(_, rank) => {
                    let plan = p.unrank(rank).expect("rank 0 in range");
                    Response::Plan(to_wire_plan(&plan), p.scaled_cost(&plan))
                }
                Request::SampleBatch(_, seed, k) => {
                    let mut rng = StdRng::seed_from_u64(*seed);
                    Response::Samples(
                        p.sample_batch(&mut rng, *k as usize)
                            .iter()
                            .map(|plan| (to_wire_plan(plan), p.scaled_cost(plan)))
                            .collect(),
                    )
                }
                other => unreachable!("not in the op set: {other:?}"),
            };
            // Key and value both under a fixed id: the comparison is on
            // bytes, not decoded values.
            expected.insert(request.encode(0), reply.encode(0));
        }
    }
    expected
}

/// Runs the full herd against a fresh server with `reactors` event
/// loops and returns (request bytes -> deduplicated reply bytes). Every
/// per-run invariant — reply correctness, singleflight, counter
/// accounting — is asserted in here; the caller only compares the maps
/// across reactor counts.
fn run_herd(reactors: usize, expected: &HashMap<Vec<u8>, Vec<u8>>) -> HashMap<Vec<u8>, Vec<u8>> {
    // Admission raised so the herd's simultaneous *distinct* first
    // preparations are not shed — this test is about correctness and
    // coalescing, not shedding (serving_faults covers that).
    let handle = server::start(ServerConfig {
        reactors,
        workers: 4,
        admission: AdmissionConfig {
            max_prepares: 64,
            ..AdmissionConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr();

    // Every thread issues every op for every workload, all released at
    // once; replies are collected as (request bytes -> reply bytes).
    let barrier = Barrier::new(THREADS);
    let observed: Mutex<HashMap<Vec<u8>, Vec<Vec<u8>>>> = Mutex::new(HashMap::new());
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let barrier = &barrier;
            let observed = &observed;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.set_timeout(Some(Duration::from_secs(60))).unwrap();
                // Stagger workload order per thread so distinct queries
                // race each other, not just themselves.
                let mut mine = workloads();
                let shift = t % mine.len();
                mine.rotate_left(shift);
                barrier.wait();
                for workload in &mine {
                    for request in ops(workload) {
                        let reply = client.call(&request).expect("clean reply");
                        assert!(
                            !matches!(reply, Response::Error { .. }),
                            "typed error under herd: {reply:?}"
                        );
                        observed
                            .lock()
                            .unwrap()
                            .entry(request.encode(0))
                            .or_default()
                            .push(reply.encode(0));
                    }
                }
            });
        }
    });

    // Every reply matches the in-process API byte-for-byte, across
    // every thread.
    let observed = observed.into_inner().unwrap();
    assert_eq!(observed.len(), expected.len(), "every op was exercised");
    for (request, replies) in &observed {
        let want = expected.get(request).expect("request came from the op set");
        assert_eq!(replies.len(), THREADS);
        for got in replies {
            assert_eq!(
                got, want,
                "network reply diverged from the in-process API at {reactors} reactors"
            );
        }
    }

    // Singleflight through the network, read off the server's one
    // ledger (it used to be the TPC-H service's alone): each distinct
    // workload, SQL or synthetic, was optimized exactly once — every
    // other request was a hit or coalesced onto the flight — no matter
    // how many reactors the connections were sharded over.
    let stats = handle.state().stats();
    assert_eq!(
        stats.misses,
        workloads().len() as u64,
        "one optimization per distinct workload at {reactors} reactors, got {stats:?}"
    );
    assert_eq!(stats.entries, workloads().len() as u64);
    assert_eq!(
        stats.hits + stats.misses + stats.coalesced,
        stats.requests,
        "every request resolved: {stats:?}"
    );
    assert_eq!(stats.shed_queue, 0);
    assert_eq!(stats.shed_prepare, 0);
    assert_eq!(stats.wire_errors, 0);
    assert_eq!(
        stats.requests,
        (THREADS * workloads().len() * 4) as u64,
        "every request was decoded"
    );
    // The admission ledger: everything decoded was either admitted or
    // queue-shed, nothing fell between the counters.
    assert_eq!(
        stats.requests,
        stats.requests_admitted + stats.shed_queue,
        "admission ledger out of balance at {reactors} reactors: {stats:?}"
    );
    // Connections pin to one reactor for life, so the per-reactor
    // breakdown sums exactly to the globals — no double counting, no
    // leaks across the handoff.
    assert_eq!(stats.per_reactor.len(), reactors);
    let (req_sum, conn_sum) = stats.per_reactor.iter().fold((0u64, 0u64), |(r, c), s| {
        (r + s.requests, c + s.connections)
    });
    assert_eq!(req_sum, stats.requests, "per-reactor requests don't sum");
    assert_eq!(
        conn_sum, stats.connections_total,
        "per-reactor connections don't sum"
    );
    handle.stop();

    observed
        .into_iter()
        .map(|(request, mut replies)| {
            replies.dedup();
            assert_eq!(replies.len(), 1, "replies diverged within one run");
            (request, replies.pop().unwrap())
        })
        .collect()
}

#[test]
fn herd_of_clients_matches_in_process_api_bit_for_bit_at_every_reactor_count() {
    let expected = expected_replies();
    let mut baseline: Option<HashMap<Vec<u8>, Vec<u8>>> = None;
    for &reactors in REACTOR_COUNTS {
        let observed = run_herd(reactors, &expected);
        // Bit-for-bit across reactor counts: sharding connections over
        // more event loops changes scheduling, never bytes.
        match &baseline {
            None => baseline = Some(observed),
            Some(first) => assert_eq!(
                first, &observed,
                "reply bytes changed between {} and {reactors} reactors",
                REACTOR_COUNTS[0]
            ),
        }
    }
}
