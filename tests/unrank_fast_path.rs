//! Differential tests of the one unranker across the tier ladder
//! (DESIGN.md §11).
//!
//! `sample_batch_flat` runs the mixed-radix decomposition in the word
//! the space's counts are stored in — `u64` when every count fits one
//! limb, `u128` when every count fits two, exact `Nat` beyond that.
//! Correctness here is entirely differential, against the independent
//! recursive reference in `tests/common` (the paper's §3.3 procedure on
//! `Nat` views, sharing no code with the product): on the *same seed*,
//! the flat batch — and the tree batch lifted from it — must reproduce
//! the reference's plans bit for bit —
//!
//! * on random optimizer-built join-graph topologies (all single-limb
//!   at these sizes, so the `u64` tier is what's exercised);
//! * on the same spaces *forced* down the ladder with
//!   [`PlanSpace::force_tier`] — the `u128` rung and the `Nat` rung
//!   must emit the identical batches;
//! * on directly synthesized spaces straddling the tier boundaries:
//!   chain/cycle graphs around the single-limb edge, clique-9 (the
//!   smallest clique past one limb, now served by the `u128` tier), and
//!   a chain long enough that its total genuinely needs three limbs
//!   (the remaining `Nat` regime);
//! * and the criterion itself is pinned: `tier()` must reflect exactly
//!   whether every count fits one / two limbs.
//!
//! clique-10 (the bench's u128 regime) is covered when
//! `PLANSAMPLE_STATISTICAL=1` — its debug-mode memo synthesis is too
//! slow for the fast test tier.

mod common;

use common::reference_sample_batch;
use plansample::{CountTier, PlanBatch, PlanSpace};
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_optimizer::{optimize, OptimizerConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Draws `k` plans through the reference and both samplers on the same
/// seed and asserts the flat batch equals the reference's preorder
/// listings (and the tree batch the reference's trees).
fn assert_flat_matches_tree(space: &PlanSpace, seed: u64, k: usize) {
    let trees = reference_sample_batch(space, seed, k);
    assert_eq!(
        space.sample_batch(&mut StdRng::seed_from_u64(seed), k),
        trees,
        "tree batch diverged from the reference (tier={})",
        space.counts().tier()
    );
    let mut flat = PlanBatch::new();
    let mut rng = StdRng::seed_from_u64(seed);
    space.sample_batch_flat(&mut rng, k, &mut flat);
    assert_eq!(flat.len(), trees.len());
    for (i, (ids, tree)) in flat.iter().zip(&trees).enumerate() {
        assert_eq!(
            ids,
            tree.preorder_ids().as_slice(),
            "draw {i} diverged (tier={})",
            space.counts().tier()
        );
    }
}

/// `assert_flat_matches_tree` at every tier the space can be forced
/// onto. The reference trees are unranked once, recursively, from ranks
/// drawn with `Nat::random_below`; every tier must reproduce them.
fn assert_tiers_agree(space: &PlanSpace, seed: u64, k: usize) {
    let trees = reference_sample_batch(space, seed, k);
    for tier in [CountTier::U64, CountTier::U128, CountTier::Nat] {
        let mut forced = space.clone();
        forced.force_tier(tier);
        let mut flat = PlanBatch::new();
        let mut rng = StdRng::seed_from_u64(seed);
        forced.sample_batch_flat(&mut rng, k, &mut flat);
        assert_eq!(flat.len(), trees.len());
        for (i, (ids, tree)) in flat.iter().zip(&trees).enumerate() {
            assert_eq!(
                ids,
                tree.preorder_ids().as_slice(),
                "draw {i} diverged (forced tier={}, actual={})",
                tier,
                forced.counts().tier()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random topology × size × seed over optimizer-built memos: the
    /// flat sampler is indistinguishable from the tree sampler.
    #[test]
    fn fast_path_matches_nat_path_on_random_topologies(
        topo_sel in 0usize..4,
        rels in 3usize..6,
        seed in 0u64..1000,
    ) {
        let spec = JoinGraphSpec::new(Topology::ALL[topo_sel], rels, seed);
        let (catalog, query) = spec.build();
        let optimized = optimize(&catalog, &query, &OptimizerConfig::default())
            .expect("synthetic queries optimize");
        let space = PlanSpace::build_shared(Arc::new(optimized.memo), Arc::new(query))
            .expect("acyclic memo");
        prop_assert!(
            space.counts().tier() == CountTier::U64,
            "spaces this small must stay single-limb"
        );
        assert_flat_matches_tree(&space, seed ^ 0xFA57, 128);
    }

    /// Directly synthesized chains and cycles across the single-limb
    /// boundary: small ones take the fast path, large ones step down
    /// the ladder, and every tier produces identical batches.
    #[test]
    fn fallback_boundary_is_exact_and_differential(
        cycle in any::<bool>(),
        rels in 5usize..15,
        seed in 0u64..100,
    ) {
        let topo = if cycle { Topology::Cycle } else { Topology::Chain };
        let (_, query, memo) = JoinGraphSpec::new(topo, rels, 20000 + seed).build_memo();
        let space = PlanSpace::build_shared(Arc::new(memo), Arc::new(query))
            .expect("synthetic memo is acyclic");
        // The criterion is the space's own counts, nothing heuristic:
        // the store is the narrowest width every count fits.
        let all_fit_u64 = space.links().all_ids().all(|id|
            space.count_rooted(id).to_u64().is_some())
            && space.total().to_u64().is_some();
        let all_fit_u128 = space.links().all_ids().all(|id|
            space.count_rooted(id).to_u128().is_some())
            && space.total().to_u128().is_some();
        prop_assert_eq!(space.counts().tier() == CountTier::U64, all_fit_u64);
        prop_assert_eq!(space.counts().tier() == CountTier::U128, all_fit_u128 && !all_fit_u64);
        assert_flat_matches_tree(&space, seed ^ 0xB0B, 64);
    }

    /// Forced-tier sweep on small optimizer-built spaces: the `u64`,
    /// `u128`, and exact-`Nat` unrankers emit bit-identical batches.
    #[test]
    fn forced_tiers_match_across_thread_counts(
        topo_sel in 0usize..4,
        seed in 0u64..100,
    ) {
        let spec = JoinGraphSpec::new(Topology::ALL[topo_sel], 5, seed);
        let (catalog, query) = spec.build();
        let optimized = optimize(&catalog, &query, &OptimizerConfig::default())
            .expect("synthetic queries optimize");
        let space = PlanSpace::build_shared(Arc::new(optimized.memo), Arc::new(query))
            .expect("acyclic memo");
        prop_assert!(space.counts().tier() == CountTier::U64);
        assert_tiers_agree(&space, seed ^ 0x7143, 600);
    }
}

/// The paper's own example (32 plans), 600 draws.
#[test]
fn flat_batch_matches_tree_batch_at_every_thread_count() {
    let ex = plansample::paper_example::build();
    let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
    assert_eq!(space.counts().tier(), CountTier::U64);
    let trees = reference_sample_batch(&space, 11, 600);
    let mut batch = PlanBatch::new();
    let mut rng = StdRng::seed_from_u64(11);
    space.sample_batch_flat(&mut rng, 600, &mut batch);
    assert_eq!(batch.len(), 600);
    for (flat, tree) in batch.iter().zip(&trees) {
        assert_eq!(flat, tree.preorder_ids().as_slice());
    }
}

/// Small batches at every tier: `k` = 1, a serving-sized 16, and 511.
#[test]
fn small_batches_match_at_every_tier_and_thread_count() {
    let ex = plansample::paper_example::build();
    let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
    for k in [1, 16, 511] {
        assert_tiers_agree(&space, 11, k);
    }
}

/// clique-9: the smallest clique whose total overflows one limb — it
/// must land on the `u128` tier (not the exact fallback) and still
/// match the tree sampler draw for draw, including when forced down to
/// `Nat`.
#[test]
fn clique9_takes_the_u128_tier_and_matches() {
    let (_, query, memo) = JoinGraphSpec::new(Topology::Clique, 9, 20000).build_memo();
    let space = PlanSpace::build_shared(Arc::new(memo), Arc::new(query)).expect("clique-9 builds");
    assert_eq!(
        space.counts().tier(),
        CountTier::U128,
        "clique-9 total {} must need exactly two limbs",
        space.total()
    );
    assert!(space.total().limbs().len() >= 2);
    assert_flat_matches_tree(&space, 0x911, 48);

    // Past the tier boundary on the same space: forcing the exact path
    // changes throughput only, never content.
    let mut nat = space.clone();
    nat.force_tier(CountTier::Nat);
    assert_eq!(nat.counts().tier(), CountTier::Nat);
    let mut a = PlanBatch::new();
    let mut b = PlanBatch::new();
    let mut rng = StdRng::seed_from_u64(0x911);
    space.sample_batch_flat(&mut rng, 48, &mut a);
    let mut rng = StdRng::seed_from_u64(0x911);
    nat.sample_batch_flat(&mut rng, 48, &mut b);
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x, y, "u128 tier diverged from forced-Nat");
    }
}

/// A genuinely 3-limb space — a chain long enough that its total
/// overflows `u128` — exercises the remaining exact-`Nat` regime of
/// `sample_batch_flat` with no forcing involved.
#[test]
fn three_limb_chains_use_the_exact_fallback_and_match() {
    // Chain plan spaces grow fast; scan upward to the first 3-limb one
    // so the test stays pinned to the boundary rather than a magic size.
    for rels in 15..40 {
        let (_, query, memo) = JoinGraphSpec::new(Topology::Chain, rels, 20000).build_memo();
        let space = PlanSpace::build_shared(Arc::new(memo), Arc::new(query)).expect("chain builds");
        if space.total().limbs().len() < 3 {
            continue;
        }
        assert_eq!(space.counts().tier(), CountTier::Nat);
        assert_flat_matches_tree(&space, 0x3113, 32);
        return;
    }
    panic!("no chain under 40 relations needed three limbs");
}

/// clique-10 (the sampling bench's u128 regime), in the slow tier
/// only.
#[test]
fn clique10_u128_tier_matches_in_the_statistical_tier() {
    if std::env::var("PLANSAMPLE_STATISTICAL").is_err() {
        eprintln!("skipping clique-10 tier check (set PLANSAMPLE_STATISTICAL=1)");
        return;
    }
    let (_, query, memo) = JoinGraphSpec::new(Topology::Clique, 10, 20000).build_memo();
    let space = PlanSpace::build_shared(Arc::new(memo), Arc::new(query)).expect("clique-10 builds");
    assert_eq!(space.counts().tier(), CountTier::U128);
    assert_flat_matches_tree(&space, 0x1010, 32);
}
