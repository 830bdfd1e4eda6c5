//! Differential tests of the costed fill (DESIGN.md §11).
//!
//! `sample_batch_costed` is `sample_batch_flat` with a costing visitor
//! on the same walk: it must emit the same ids on the same seed, and a
//! cost per plan that is *bit-identical* to costing that plan's tree —
//! `PlanNode::total_cost` from a `PlanSpace`, `scaled_cost` from a
//! `PreparedQuery`'s `sample_batch_scaled` — not merely within a ULP,
//! because serve pins reply bytes. Checked on the paper's example (every
//! one of its 32 plans), on Q5, Q8+CP and clique-9 (a genuine `u128`
//! space), on the same spaces forced down the tier ladder, at 1, 2 and 4
//! threads with a batch large enough to shard (costs merge in chunk order
//! like ids), and on random small join graphs. The separate-pass `scaled_cost_ids` is held to the
//! same trees, since it is the reference the benchmark keeps timing.

use plansample::{paper_example, CountTier, PlanBatch, PlanSpace, PreparedQuery};
use plansample_bignum::Nat;
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_memo::PlanNode;
use plansample_optimizer::OptimizerConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// What the same seed draws through the tree sampler, with each tree's
/// scaled cost: the expectation every costed fill below is held to.
fn expected(prepared: &PreparedQuery, seed: u64, k: usize) -> Vec<(PlanNode, f64)> {
    let trees = prepared.sample_batch(&mut StdRng::seed_from_u64(seed), k);
    let mut flat = PlanBatch::new();
    prepared.sample_batch_flat(&mut StdRng::seed_from_u64(seed), k, &mut flat);
    assert!(flat.costs().is_empty(), "a plain fill leaves no costs");
    let costed = |(ids, tree): (_, PlanNode)| {
        assert_eq!(ids, tree.preorder_ids().as_slice());
        let cost = prepared.scaled_cost(&tree);
        assert_eq!(prepared.scaled_cost_ids(ids).to_bits(), cost.to_bits());
        (tree, cost)
    };
    flat.iter().zip(trees).map(costed).collect()
}

/// A costed fill of `prepared` into `out` on `seed` reproduces
/// `expected` — ids and cost bits — plan for plan.
fn assert_costed_fill(
    prepared: &PreparedQuery,
    seed: u64,
    expected: &[(PlanNode, f64)],
    out: &mut PlanBatch,
    context: &str,
) {
    prepared.sample_batch_scaled(&mut StdRng::seed_from_u64(seed), expected.len(), out);
    assert_eq!(out.len(), expected.len(), "{context}");
    assert_eq!(out.costs().len(), expected.len(), "{context}");
    for (p, (tree, cost)) in expected.iter().enumerate() {
        assert_eq!(
            out.plan(p),
            tree.preorder_ids().as_slice(),
            "{context}: draw {p}"
        );
        assert_eq!(
            out.costs()[p].to_bits(),
            cost.to_bits(),
            "{context}: draw {p} costs {} in the walk, {cost} as a tree",
            out.costs()[p]
        );
    }
}

/// The costed fill of `prepared`'s space on every rung of the ladder it
/// can be forced onto, at 1, 2 and 4 threads, into one reused batch —
/// 2048 draws, so the multi-threaded fills shard and merge.
fn assert_every_tier_and_thread_count(prepared: &PreparedQuery, seed: u64) {
    const K: usize = 2048;
    let expected = expected(prepared, seed, K);
    let (best, best_cost) = prepared.best();
    let mut out = PlanBatch::new();
    for tier in [CountTier::U64, CountTier::U128, CountTier::Nat] {
        let mut space = prepared.space().clone();
        space.force_tier(tier);
        let tier = space.counts().tier();
        let forced =
            PreparedQuery::from_parts(space, best.clone(), best_cost, prepared.config().clone())
                .expect("the same best plan over the same memo");
        for threads in [1usize, 2, 4] {
            let context = format!("{tier} tier, {threads} thread(s)");
            threadpool::with_threads(threads, || {
                assert_costed_fill(&forced, seed, &expected, &mut out, &context)
            });
        }
    }
}

/// A prepared query over a synthesized memo, with plan 0 standing in
/// for the optimizer's choice (any plan of the space is a valid unit).
fn prepared_over(space: PlanSpace) -> PreparedQuery {
    let best = space.unrank(&Nat::zero()).expect("a non-empty space");
    let cost = best.total_cost(space.memo());
    PreparedQuery::from_parts(space, best, cost, OptimizerConfig::default())
        .expect("plan 0 of the space is structurally valid")
}

#[test]
fn paper_example_costs_every_one_of_its_32_plans_as_its_tree() {
    let ex = paper_example::build();
    let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
    let by_rank: Vec<PlanNode> = (0..32u64)
        .map(|r| space.unrank(&Nat::from(r)).unwrap())
        .collect();
    let mut out = PlanBatch::new();
    space.sample_batch_costed(&mut StdRng::seed_from_u64(32), 2048, &mut out);
    let mut seen = [false; 32];
    for (ids, cost) in out.iter().zip(out.costs()) {
        let rank = by_rank
            .iter()
            .position(|tree| tree.preorder_ids() == ids)
            .expect("a sampled plan is one of the 32");
        seen[rank] = true;
        assert_eq!(
            cost.to_bits(),
            by_rank[rank].total_cost(&ex.memo).to_bits(),
            "plan {rank}"
        );
    }
    assert!(seen.iter().all(|&s| s), "2048 draws reach all 32 plans");
}

#[test]
fn tpch_spaces_cost_in_the_walk_on_every_tier_and_thread_count() {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let q5 = plansample_query::tpch::q5(&catalog);
    let q8 = plansample_query::tpch::q8(&catalog);
    let cases = [
        (q5, OptimizerConfig::default(), 5),
        (q8, OptimizerConfig::with_cross_products(), 8),
    ];
    for (query, config, seed) in cases {
        let prepared = PreparedQuery::prepare(&catalog, &query, &config).expect("TPC-H optimizes");
        assert_eq!(prepared.tier(), CountTier::U64);
        assert_every_tier_and_thread_count(&prepared, seed);
    }
}

#[test]
fn clique9_costs_in_the_walk_on_the_u128_tier_and_below() {
    let (_, query, memo) = JoinGraphSpec::new(Topology::Clique, 9, 20000).build_memo();
    let space = PlanSpace::build_shared(Arc::new(memo), Arc::new(query)).expect("clique-9 builds");
    assert_eq!(space.counts().tier(), CountTier::U128);
    assert_every_tier_and_thread_count(&prepared_over(space), 9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random topology × size × seed through the optimizer: sort
    /// enforcers, merge joins and dead alternatives included.
    #[test]
    fn costed_fill_matches_tree_costs_on_random_join_graphs(
        topo_sel in 0usize..4,
        rels in 3usize..7,
        seed in 0u64..1000,
    ) {
        let (catalog, query) = JoinGraphSpec::new(Topology::ALL[topo_sel], rels, seed).build();
        let prepared = PreparedQuery::prepare(&catalog, &query, &OptimizerConfig::default())
            .expect("synthetic queries optimize");
        let expected = expected(&prepared, seed ^ 0xC057, 128);
        assert_costed_fill(&prepared, seed ^ 0xC057, &expected, &mut PlanBatch::new(), "native tier");
    }
}
