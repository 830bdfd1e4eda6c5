//! Who answers never shows in the answer. A reactor answers a request
//! itself when that is a small, bounded amount of work (DESIGN.md §9,
//! "Answer on the reactor") and hands it to a worker otherwise; which of
//! the two happened must be invisible on the wire and in the ledgers.
//! One seeded point-mix stream goes over real TCP — at 1 and 2 reactors,
//! from 1 and 4 closed-loop connections — and every reply must be the
//! bytes a *fresh* `ServerState::handle_encoded` gives for that request
//! alone. The stream sits on both sides of every branch of the rule:
//!
//! * `SampleBatch` sizes up to the constant a reactor samples (32), one
//!   past it, and well past it;
//! * artifacts on all three count tiers (the `u128` and exact-`Nat`
//!   ones are the `u64` artifacts of two queries re-stored wider and
//!   seeded into the cache: content is tier-independent, so the fresh
//!   state's `u64` answer is still the reference);
//! * the first, uncached request for every workload, and — on a server
//!   with one cache entry, for which two texts and a synthetic spec
//!   compete — workloads whose identity is known while their artifact
//!   has been evicted;
//! * an SQL text too long to memoise, one that does not parse, a
//!   synthetic spec out of range, and `Stats`.
//!
//! At quiescence the ledgers must balance as if one path had served it
//! all: `requests == requests_admitted + shed_queue`, the one cache's
//! `hits + misses + coalesced` equals the requests that resolved, and
//! nothing is left in flight.

use plansample::{CountTier, PreparedQuery};
use plansample_bignum::Nat;
use plansample_datagen::joingraph::Topology;
use plansample_optimizer::OptimizerConfig;
use plansample_serve::server::{self, ServerConfig};
use plansample_serve::wire::{self, Request, Response, Workload};
use plansample_serve::{AdmissionConfig, ServerState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const REQUESTS: usize = 1_000;
const SEED: u64 = 15_000;

const REGION: &str = "SELECT * FROM region WHERE region.r_regionkey < 3";
const NATIONS: &str = "SELECT COUNT(*) FROM nation n, region r \
     WHERE n.n_regionkey = r.r_regionkey AND r.r_regionkey < 3";
/// Served from a `u128`-tier artifact.
const WIDE: &str =
    "SELECT COUNT(*) FROM nation n1, nation n2 WHERE n1.n_regionkey = n2.n_regionkey";
/// Served from an exact-`Nat`-tier artifact.
const EXACT: &str =
    "SELECT n_name FROM nation, region WHERE n_regionkey = r_regionkey AND r_name = 'ASIA'";
const BROKEN: &str = "SELECT * FROM no_such_table";

/// `REGION` again, in a text past the 4 KiB the identity table keeps: same
/// artifact, resolved the long way every time.
fn padded() -> String {
    format!("{REGION}{}", " ".repeat(4 << 10))
}

fn sql(text: &str) -> Workload {
    Workload::Sql(text.to_string())
}

fn synthetic(topology: Topology, relations: u16) -> Workload {
    Workload::Synthetic {
        topology,
        relations,
        seed: SEED,
    }
}

/// `SampleBatch` sizes: mostly the point mix's, plus the constant a
/// reactor samples up to, its successor, and a bulk size.
const BATCH_SIZES: [u32; 8] = [1, 2, 7, 16, 31, 32, 33, 300];

fn fresh_state() -> ServerState {
    ServerState::new(
        OptimizerConfig::default(),
        64,
        None,
        AdmissionConfig::default(),
        1,
    )
}

/// A workload and its plan-space total (`None`: it does not resolve).
type Target = (Workload, Option<Nat>);

fn targets(workloads: Vec<Workload>) -> Vec<Target> {
    let state = fresh_state();
    workloads
        .into_iter()
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

/// Count 30 / Best 20 / Unrank 20 / SampleBatch 25 / Stats 5, uniformly
/// over the targets.
fn stream(targets: &[Target]) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(SEED);
    (0..REQUESTS)
        .map(|_| {
            let (workload, total) = &targets[rng.gen_range(0..targets.len())];
            let workload = workload.clone();
            match rng.gen_range(0..100u32) {
                0..=29 => Request::Count(workload),
                30..=49 => Request::Best(workload),
                50..=69 => {
                    let bound = total.clone().unwrap_or_else(|| Nat::from(1u64));
                    Request::Unrank(workload, Nat::random_below(&mut rng, &bound))
                }
                70..=94 => {
                    let k = BATCH_SIZES[rng.gen_range(0..BATCH_SIZES.len())];
                    Request::SampleBatch(workload, rng.gen(), k)
                }
                _ => Request::Stats,
            }
        })
        .collect()
}

/// One blocking connection that keeps reply payloads as bytes.
struct RawClient {
    stream: TcpStream,
    rbuf: Vec<u8>,
}

impl RawClient {
    fn connect(addr: SocketAddr) -> RawClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        RawClient {
            stream,
            rbuf: Vec::new(),
        }
    }

    /// Sends `request` under `id` and returns the payload of the reply.
    fn call(&mut self, request: &Request, id: u64) -> Vec<u8> {
        self.stream
            .write_all(&wire::frame(&request.encode(id)))
            .expect("request written");
        self.rbuf.clear();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some((payload, consumed)) = wire::split_frame(&self.rbuf).expect("reply frame") {
                assert_eq!(consumed, self.rbuf.len(), "bytes after the reply to {id}");
                return payload.to_vec();
            }
            let n = self.stream.read(&mut chunk).expect("reply read");
            assert!(n > 0, "server closed before answering {id}");
            self.rbuf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Seeds `state`'s cache with `text`'s artifact re-stored on `tier`.
fn seed_on_tier(state: &ServerState, text: &str, tier: CountTier) {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let config = OptimizerConfig::default();
    let spec = plansample_sql::parse(&catalog, text)
        .expect("seeded text parses")
        .spec;
    let narrow = PreparedQuery::prepare(&catalog, &spec, &config).unwrap();
    assert_eq!(narrow.tier(), CountTier::U64);
    let mut space = narrow.space().clone();
    space.force_tier(tier);
    let (plan, cost) = narrow.best();
    let wide = PreparedQuery::from_parts(space, plan.clone(), cost, config)
        .expect("re-stored space is the same space");
    assert_eq!(wide.tier(), tier);
    assert!(state.warm(Arc::new(wide)), "{text:?} was already cached");
}

/// Runs `requests` through a server started from `config` — dealt
/// round-robin to `clients` closed-loop connections — and checks every
/// reply against a fresh state's and the ledgers at quiescence.
fn serve_and_check(
    config: ServerConfig,
    clients: usize,
    targets: &[Target],
    requests: &[Request],
    cold: &[Vec<u8>],
    seed: impl FnOnce(&ServerState),
) -> wire::StatsReply {
    let label = format!(
        "{} reactor(s), {clients} client(s), {} cache entries",
        config.reactors, config.cache_entries
    );
    let handle = server::start(config).expect("server starts");
    seed(handle.state());
    let seeded = handle.state().stats();
    let addr = handle.addr();
    let barrier = Barrier::new(clients);
    let warm: Vec<Vec<(usize, Vec<u8>)>> = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = RawClient::connect(addr);
                    barrier.wait();
                    (c..requests.len())
                        .step_by(clients)
                        .map(|id| (id, client.call(&requests[id], id as u64)))
                        .collect()
                })
            })
            .collect();
        callers.into_iter().map(|c| c.join().unwrap()).collect()
    });

    for (id, reply) in warm.into_iter().flatten() {
        if requests[id] == Request::Stats {
            // Counters differ between the two states by design.
            let (got, reply) = Response::decode(&reply).expect("stats reply decodes");
            assert_eq!(got, id as u64);
            assert!(
                matches!(reply, Response::Stats(_)),
                "{label}: got {reply:?}"
            );
        } else {
            assert!(
                reply == cold[id],
                "{label}: reply {id} to {:?} differs from a fresh state's",
                requests[id]
            );
        }
    }

    // Every client holds all its replies, so the counters are settled.
    let state = handle.state();
    let stats = state.stats();
    assert_eq!(stats.requests, requests.len() as u64, "{label}");
    assert_eq!(stats.shed_queue + stats.shed_prepare, 0, "{label}");
    assert_eq!(
        stats.requests,
        stats.requests_admitted + stats.shed_queue,
        "{label}: {stats:?}"
    );
    assert_eq!(state.inflight(), 0, "{label}: requests left in flight");
    assert_eq!(
        stats.per_reactor.iter().map(|r| r.requests).sum::<u64>(),
        stats.requests,
        "{label}"
    );
    // The one ledger (it used to be one per service): one hit, miss or
    // coalesced wait per request that resolved, whatever it named.
    let resolved = requests
        .iter()
        .filter_map(Request::workload)
        .filter(|w| targets.iter().any(|(t, total)| t == *w && total.is_some()))
        .count() as u64;
    assert!(resolved > 0);
    assert_eq!(
        (stats.hits - seeded.hits) + (stats.misses - seeded.misses) + stats.coalesced,
        resolved,
        "{label}: {stats:?}"
    );
    handle.stop();
    stats
}

fn cold_replies(requests: &[Request]) -> Vec<Vec<u8>> {
    requests
        .iter()
        .enumerate()
        .map(|(id, request)| fresh_state().handle_encoded(request, id as u64))
        .collect()
}

#[test]
fn replies_and_ledgers_do_not_show_who_answered() {
    let targets = targets(vec![
        sql(REGION),
        sql(NATIONS),
        sql(&padded()),
        sql(WIDE),
        sql(EXACT),
        sql(BROKEN),
        synthetic(Topology::Chain, 4),
        synthetic(Topology::Star, 5),
        synthetic(Topology::Cycle, 2),
    ]);
    let requests = stream(&targets);
    let cold = cold_replies(&requests);
    for reactors in [1, 2] {
        for clients in [1, 4] {
            let config = ServerConfig {
                reactors,
                workers: 2,
                ..ServerConfig::default()
            };
            serve_and_check(config, clients, &targets, &requests, &cold, |state| {
                seed_on_tier(state, WIDE, CountTier::U128);
                seed_on_tier(state, EXACT, CountTier::Nat);
            });
        }
    }
}

/// One cache entry, two texts and a synthetic spec competing for it:
/// each workload's identity stays known while its artifact keeps being
/// evicted, so the reactor finds the identity, misses the artifact and
/// must hand over — to a worker that prepares it again.
#[test]
fn evicted_artifacts_of_known_workloads_are_prepared_again_by_a_worker() {
    let targets = targets(vec![
        sql(REGION),
        sql(NATIONS),
        synthetic(Topology::Chain, 4),
    ]);
    let requests = stream(&targets);
    let cold = cold_replies(&requests);
    for reactors in [1, 2] {
        for clients in [1, 4] {
            let config = ServerConfig {
                reactors,
                workers: 2,
                cache_entries: 1,
                ..ServerConfig::default()
            };
            let stats = serve_and_check(config, clients, &targets, &requests, &cold, |_| {});
            assert_eq!(stats.entries, 1);
            assert!(
                stats.evictions > 10 && stats.misses == stats.evictions + 1,
                "the workloads did not keep evicting each other: {stats:?}"
            );
        }
    }
}
