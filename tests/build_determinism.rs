//! Determinism of the plan-space build and of batched sampling.
//!
//! The build and the fill are sequential (DESIGN §5). These tests pin
//! the contract: two builds of the same memo produce **bit-identical**
//! `Counts`, list layouts and ranks, and the flat fill draws the batch
//! the tree sampler does, on random join-graph topologies
//! (optimizer-built memos) and on a directly synthesized multi-limb
//! space. A build or a fill that forks again has to pass them.

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

/// Builds the space over shared copies of `memo` and `query`.
fn build(memo: &Arc<Memo>, query: &Arc<QuerySpec>) -> PlanSpace {
    PlanSpace::build_shared(Arc::clone(memo), Arc::clone(query)).expect("acyclic memo")
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

/// Draws per batch.
const DRAWS: usize = 1_100;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random topology × size × seed: two builds of the optimizer's
    /// memo must be indistinguishable, and so must their batches.
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

        let first = build(&memo, &query);
        let second = build(&memo, &query);
        assert_identical(&first, &second);

        // Each draw consumes the RNG as one `sample` does, and
        // unranking is pure, so two builds draw the same batch.
        let draw = |space: &PlanSpace| {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD00D);
            space.sample_batch(&mut rng, DRAWS)
        };
        let trees = draw(&first);
        prop_assert_eq!(&trees, &draw(&second));

        // The flat u64 fast path consumes the RNG identically to the
        // Nat path (`random_below` on a single-limb bound is one
        // `gen_range`), so its batch is bit-identical to the tree
        // sampler's too.
        let mut flat = plansample::PlanBatch::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD00D);
        first.sample_batch_flat(&mut rng, DRAWS, &mut flat);
        prop_assert_eq!(flat.len(), trees.len());
        for (ids, tree) in flat.iter().zip(&trees) {
            let expected = tree.preorder_ids();
            prop_assert_eq!(ids, expected.as_slice(), "flat batch diverged");
        }
    }
}

/// A directly synthesized clique space (multi-level DAG, hundreds of
/// lists) built twice.
#[test]
fn synthesized_clique_agrees_across_thread_counts() {
    let (_, query, memo) = JoinGraphSpec::new(Topology::Clique, 7, 20000).build_memo();
    let (memo, query) = (Arc::new(memo), Arc::new(query));
    assert_identical(&build(&memo, &query), &build(&memo, &query));
}
