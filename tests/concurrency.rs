//! Concurrency guarantees of the prepared-query serving surface.
//!
//! The artifact produced by `PreparedQuery::prepare` is immutable and
//! `Send + Sync`: wrapped in an `Arc`, any number of threads may count,
//! unrank, page, and sample from it concurrently with no locking and —
//! crucially — with **zero** re-optimizations (asserted via the
//! optimizer's per-thread run counter, which is immune to other test
//! threads optimizing concurrently in the same process). Per-thread determinism holds
//! because sampling takes the caller's RNG: a thread with seed `s` draws
//! exactly the plans a single-threaded run with seed `s` draws.

use plansample::{PlanCursor, PlanService, PlanSpace, PreparedQuery};
use plansample_bignum::Nat;
use plansample_datagen::MicroScale;
use plansample_optimizer::OptimizerConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// `PreparedQuery` (and the service/space around it) must be shareable
/// across threads — enforced at compile time.
#[test]
fn prepared_artifacts_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PreparedQuery>();
    assert_send_sync::<Arc<PreparedQuery>>();
    assert_send_sync::<PlanSpace>();
    assert_send_sync::<PlanService>();
    assert_send_sync::<PlanCursor<'_>>();
}

fn prepared_q5() -> PreparedQuery {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let query = plansample_query::tpch::q5(&catalog);
    PreparedQuery::prepare(&catalog, &query, &OptimizerConfig::default()).unwrap()
}

/// Ranks drawn by `sample_batch` under one seed, as decimal strings.
fn drawn_ranks(prepared: &PreparedQuery, seed: u64, k: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    prepared
        .sample_batch(&mut rng, k)
        .iter()
        .map(|plan| prepared.rank(plan).unwrap().to_string())
        .collect()
}

#[test]
fn eight_threads_sample_deterministically_and_agree_with_single_thread() {
    const THREADS: u64 = 8;
    const DRAWS: usize = 64;
    let prepared = Arc::new(prepared_q5());

    // Single-threaded reference, one seed per future thread.
    let reference: Vec<Vec<String>> = (0..THREADS)
        .map(|seed| drawn_ranks(&prepared, seed, DRAWS))
        .collect();

    let mut results: Vec<(u64, Vec<String>)> = std::thread::scope(|scope| {
        (0..THREADS)
            .map(|seed| {
                let prepared = Arc::clone(&prepared);
                scope.spawn(move || {
                    let ranks = drawn_ranks(&prepared, seed, DRAWS);
                    // Each worker checks its own (thread-local) counter:
                    // sampling from a shared artifact never optimizes.
                    assert_eq!(
                        plansample_optimizer::thread_optimizations_performed(),
                        0,
                        "concurrent sampling must not re-optimize"
                    );
                    (seed, ranks)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("sampler thread panicked"))
            .collect()
    });

    results.sort_by_key(|(seed, _)| *seed);
    for (seed, ranks) in results {
        assert_eq!(
            ranks, reference[seed as usize],
            "thread with seed {seed} diverged from the single-threaded reference"
        );
        // Distinct seeds explore distinct rank sequences (sanity that the
        // threads were not accidentally sharing RNG state).
        if seed > 0 {
            assert_ne!(ranks, reference[0]);
        }
    }
}

#[test]
fn prepared_query_serves_samples_and_pages_with_zero_reoptimizations() {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let query = plansample_query::tpch::q8(&catalog);
    let config = OptimizerConfig::with_cross_products();

    let before = plansample_optimizer::thread_optimizations_performed();
    let prepared = PreparedQuery::prepare(&catalog, &query, &config).unwrap();
    assert_eq!(
        plansample_optimizer::thread_optimizations_performed() - before,
        1,
        "prepare runs the optimizer exactly once"
    );

    // The acceptance workload: 1000 sampled plans…
    let mut rng = StdRng::seed_from_u64(20000);
    let batch = prepared.sample_batch(&mut rng, 1000);
    assert_eq!(batch.len(), 1000);

    // …plus three enumeration pages resumed at ranks deep inside the
    // (astronomically large) space.
    let total = prepared.total().clone();
    assert!(total.to_f64() > 1e12, "Q8+CP space is Table-1 sized");
    let (mid, _) = total.div_rem(&Nat::from(2u64));
    let (third, _) = total.div_rem(&Nat::from(3u64));
    for start in [Nat::zero(), third, mid] {
        let mut cursor = prepared.enumerate_from(start.clone());
        let page = cursor.next_page(16);
        assert_eq!(page.len(), 16);
        assert_eq!(prepared.rank(&page[0]).unwrap(), start);
    }

    assert_eq!(
        plansample_optimizer::thread_optimizations_performed() - before,
        1,
        "1000 samples + 3 pages re-ran the optimizer zero times"
    );
}

#[test]
fn cursor_pagination_equals_skip_on_a_real_query() {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let mut qb = plansample_query::QueryBuilder::new(&catalog);
    qb.rel("nation", Some("n")).unwrap();
    qb.rel("region", Some("r")).unwrap();
    qb.join(("n", "n_regionkey"), ("r", "r_regionkey")).unwrap();
    let query = qb.build().unwrap();
    let prepared = PreparedQuery::prepare(&catalog, &query, &OptimizerConfig::default()).unwrap();

    let n = prepared.total().to_u64().unwrap();
    for r in [0, 1, n / 2, n.saturating_sub(1), n, n + 7] {
        let from_cursor: Vec<_> = prepared.enumerate_from(Nat::from(r)).collect();
        let from_skip: Vec<_> = prepared.enumerate().skip(r as usize).collect();
        assert_eq!(from_cursor, from_skip, "enumerate_from({r}) != skip({r})");
    }
}

#[test]
fn service_serves_concurrent_mixed_traffic_from_one_artifact_per_query() {
    let (catalog, tables) = plansample_catalog::tpch::catalog();
    let db = plansample_datagen::generate(&catalog, &tables, &MicroScale::tiny(), 11);
    let service = Arc::new(PlanService::new(catalog, OptimizerConfig::default(), 4));

    let q5 = plansample_query::tpch::q5(service.catalog());
    let q6 = plansample_query::tpch::q6(service.catalog());

    // Warm the cache so the thread phase is pure serving.
    let warm_q5 = service.get_or_prepare(&q5).unwrap();
    let warm_q6 = service.get_or_prepare(&q6).unwrap();

    std::thread::scope(|scope| {
        for seed in 0..8u64 {
            let service = Arc::clone(&service);
            let (q5, q6) = (&q5, &q6);
            let (warm_q5, warm_q6) = (&warm_q5, &warm_q6);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let (query, warm) = if seed % 2 == 0 {
                    (q5, warm_q5)
                } else {
                    (q6, warm_q6)
                };
                let prepared = service.get_or_prepare(query).unwrap();
                assert!(
                    Arc::ptr_eq(&prepared, warm),
                    "every thread shares the warmed artifact"
                );
                let batch = prepared.sample_batch(&mut rng, 32);
                assert_eq!(batch.len(), 32);
                for plan in &batch {
                    assert!(prepared.rank(plan).unwrap() < *prepared.total());
                }
                // Thread-local counter: a warm cache hit plus sampling
                // never ran the optimizer in this thread.
                assert_eq!(
                    plansample_optimizer::thread_optimizations_performed(),
                    0,
                    "warm cache serves without optimizing"
                );
            });
        }
    });
    let stats = service.stats();
    assert_eq!(stats.misses, 2, "one preparation per distinct query");
    assert_eq!(stats.hits, 8, "all thread requests were cache hits");

    // The cached artifact also executes without re-preparing.
    let plan = warm_q6.unrank(&Nat::zero()).unwrap();
    warm_q6.execute(service.catalog(), &db, &plan).unwrap();
    assert_eq!(warm_q6.rank(&plan).unwrap(), Nat::zero());
}
