//! §3.2's counts against an independent oracle, on every tier.
//!
//! `Counts::compute` folds in the narrowest word that holds the space
//! and climbs the tier ladder `u64` → `u128` → `Nat` only when a
//! checked add or multiply overflows. This suite holds every
//! expression's `count_rooted` to the memoised recursion in
//! `tests/common` (`reference_count_rooted`, exact `Nat` over
//! `eligible_children`, sharing no code with the links or the fold), and
//! the stored tier to the narrowest word holding every reference `N(v)`
//! and every list total.
//!
//! The TPC-H spaces and the hand-built ladders at each word's edge run
//! in every build. Cycle-16 (`u128`) and the first chain past `u128`
//! need an optimized build and are skipped with a notice in a debug one:
//!
//! ```text
//! cargo test --release -p plansample --test count_oracle -- --nocapture
//! ```

mod common;

use common::{all_ones_ladder, dead_sibling_ladder, reference_count_rooted, release_only};
use plansample::{CountTier, PlanSpace};
use plansample_bignum::Nat;
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_optimizer::{optimize, OptimizerConfig};
use std::sync::Arc;

/// The narrowest rung of the ladder that holds `n`.
fn tier_of(n: &Nat) -> CountTier {
    match n.limbs().len() {
        0 | 1 => CountTier::U64,
        2 => CountTier::U128,
        _ => CountTier::Nat,
    }
}

/// Every expression's count equals the reference's, and the space sits
/// on the narrowest rung holding every reference count and total.
fn assert_matches_reference(label: &str, space: &PlanSpace) {
    let (rooted, totals) = reference_count_rooted(space.memo(), space.query());
    for group in space.memo().groups() {
        for (id, _) in group.phys_iter() {
            let expected = &rooted[id.group.0 as usize][id.index];
            assert_eq!(&space.count_rooted(id), expected, "{label}: N({id})");
        }
    }
    assert_eq!(totals.last(), Some(space.total()), "{label}: N");
    let widest = rooted
        .iter()
        .flatten()
        .chain(&totals)
        .map(tier_of)
        .max_by_key(|&t| t as u8)
        .expect("a space has a root group");
    assert_eq!(space.counts().tier(), widest, "{label}: tier");
}

#[test]
fn tpch_counts_match_the_reference_with_and_without_cross_products() {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    for (name, query) in plansample_query::tpch::all(&catalog) {
        for (mode, config) in [
            ("", OptimizerConfig::default()),
            ("+CP", OptimizerConfig::with_cross_products()),
        ] {
            let optimized = optimize(&catalog, &query, &config).expect("TPC-H optimizes");
            let space = PlanSpace::build(&optimized.memo, &query).expect("the memo is acyclic");
            assert_matches_reference(&format!("{name}{mode}"), &space);
        }
    }
}

#[test]
fn ladders_at_and_past_each_word_match_the_reference() {
    for levels in [64, 65, 128, 129] {
        assert_matches_reference(&format!("ladder {levels}"), &all_ones_ladder(levels));
        let (space, big) = dead_sibling_ladder(levels);
        // The tier is decided by an interior count the total never sees.
        assert_eq!(space.total(), &Nat::one());
        assert!(&space.count_rooted(big) > space.total());
        assert_matches_reference(&format!("dead-sibling ladder {levels}"), &space);
    }
}

#[test]
fn cycle16_counts_match_the_reference_on_the_u128_tier() {
    if !release_only("cycle-16 count oracle") {
        return;
    }
    let (_, query, memo) = JoinGraphSpec::new(Topology::Cycle, 16, 20000).build_memo();
    let space = PlanSpace::build_shared(Arc::new(memo), Arc::new(query)).expect("cycle-16 builds");
    assert_eq!(space.counts().tier(), CountTier::U128);
    assert_matches_reference("cycle-16", &space);
}

#[test]
fn the_first_three_limb_chain_matches_the_reference_on_the_exact_tier() {
    if !release_only("three-limb chain count oracle") {
        return;
    }
    for rels in 15..40 {
        let (_, query, memo) = JoinGraphSpec::new(Topology::Chain, rels, 20000).build_memo();
        let space = PlanSpace::build_shared(Arc::new(memo), Arc::new(query)).expect("chain builds");
        if space.total().limbs().len() < 3 {
            continue;
        }
        assert_eq!(space.counts().tier(), CountTier::Nat);
        assert_matches_reference(&format!("chain-{rels}"), &space);
        return;
    }
    panic!("no chain under 40 relations needed three limbs");
}
