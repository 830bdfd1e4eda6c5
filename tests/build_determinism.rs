//! Thread-count determinism of the plan-space build and of batched
//! sampling.
//!
//! The build is sequential; the bulk fill behind `sample_batch` unranks
//! chunks of draws concurrently and merges them in draw order. These
//! tests pin the contract: a 1-thread build and an N-thread build of
//! the same memo produce **bit-identical** `Counts`, list layouts and
//! ranks, and a forked fill draws the batch a 1-thread fill does, on
//! random join-graph topologies (optimizer-built memos) and on a
//! directly synthesized multi-limb space. A build that forks again has
//! to pass them.
//!
//! Thread counts are pinned with `threadpool::with_threads`, which is a
//! thread-local override — concurrently running tests cannot perturb
//! each other.

mod common;

use plansample::PlanSpace;
use plansample_bignum::Nat;
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_memo::Memo;
use plansample_optimizer::{optimize, OptimizerConfig};
use plansample_query::QuerySpec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Builds the space under an explicit thread count.
fn build_with(threads: usize, memo: &Arc<Memo>, query: &Arc<QuerySpec>) -> PlanSpace {
    threadpool::with_threads(threads, || {
        PlanSpace::build_shared(Arc::clone(memo), Arc::clone(query)).expect("acyclic memo")
    })
}

/// Asserts every observable of the two spaces is identical: totals,
/// per-expression counts, interned list layout, and boundary ranks.
fn assert_identical(a: &PlanSpace, b: &PlanSpace) {
    assert_eq!(a.total(), b.total(), "space totals diverge");
    assert_eq!(
        a.links().num_lists(),
        b.links().num_lists(),
        "interned list count diverges"
    );
    assert_eq!(
        a.links().num_pooled_links(),
        b.links().num_pooled_links(),
        "pool layout diverges"
    );
    for id in a.links().all_ids() {
        assert_eq!(a.count_rooted(id), b.count_rooted(id), "count of {id}");
        assert_eq!(
            a.links().children_of(id),
            b.links().children_of(id),
            "alternative lists of {id}"
        );
    }
    if !a.total().is_zero() {
        let mut last = a.total().clone();
        last.decr();
        for rank in [Nat::zero(), last] {
            let plan = a.unrank(&rank).expect("rank in range");
            assert_eq!(plan, b.unrank(&rank).expect("rank in range"));
            assert_eq!(b.rank(&plan).expect("member plan"), rank);
        }
    }
}

/// Draws per batch: enough for a 4-thread fill to fork, and not a
/// multiple of its 256-draw chunk.
const DRAWS: usize = 1_100;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random topology × size × seed: single-threaded and 4-thread
    /// builds of the optimizer's memo must be indistinguishable.
    #[test]
    fn one_and_four_thread_builds_agree(
        topo_sel in 0usize..4,
        rels in 3usize..6,
        seed in 0u64..1000,
    ) {
        let spec = JoinGraphSpec::new(Topology::ALL[topo_sel], rels, seed);
        let (catalog, query) = spec.build();
        let optimized = optimize(&catalog, &query, &OptimizerConfig::default())
            .expect("synthetic queries optimize");
        let memo = Arc::new(optimized.memo);
        let query = Arc::new(query);

        let sequential = build_with(1, &memo, &query);
        let parallel = build_with(4, &memo, &query);
        assert_identical(&sequential, &parallel);

        // Batched sampling consumes the RNG identically at every thread
        // count (ranks are drawn up front, unranking is pure). `DRAWS`
        // forks at 4 threads (from 2 · 256 draws) with a partial last
        // chunk.
        let draw = |space: &PlanSpace, threads: usize| {
            threadpool::with_threads(threads, || {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xD00D);
                space.sample_batch(&mut rng, DRAWS)
            })
        };
        let trees = draw(&sequential, 1);
        prop_assert_eq!(&trees, &draw(&parallel, 4));

        // The flat u64 fast path consumes the RNG identically to the
        // Nat path (`random_below` on a single-limb bound is one
        // `gen_range`), so its batches are bit-identical to the tree
        // sampler's at every thread count too.
        let draw_flat = |space: &PlanSpace, threads: usize| {
            threadpool::with_threads(threads, || {
                let mut out = plansample::PlanBatch::new();
                let mut rng = StdRng::seed_from_u64(seed ^ 0xD00D);
                space.sample_batch_flat(&mut rng, DRAWS, &mut out);
                out
            })
        };
        for threads in [1usize, 4] {
            let flat = draw_flat(&sequential, threads);
            prop_assert_eq!(flat.len(), trees.len());
            for (ids, tree) in flat.iter().zip(&trees) {
                let expected = tree.preorder_ids();
                prop_assert_eq!(ids, expected.as_slice(),
                    "flat batch diverged at {} threads", threads);
            }
        }
    }
}

/// A directly synthesized clique space (multi-level DAG, hundreds of
/// lists) built under several thread counts, one oversubscribed.
#[test]
fn synthesized_clique_agrees_across_thread_counts() {
    let (_, query, memo) = JoinGraphSpec::new(Topology::Clique, 7, 20000).build_memo();
    let (memo, query) = (Arc::new(memo), Arc::new(query));
    let reference = build_with(1, &memo, &query);
    for threads in [2, 3, 8] {
        let parallel = build_with(threads, &memo, &query);
        assert_identical(&reference, &parallel);
    }
}
