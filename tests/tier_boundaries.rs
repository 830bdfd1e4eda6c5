//! The tier ladder at its edges (ROADMAP harden-(d)).
//!
//! A space is stored — and all its rank arithmetic runs — in the
//! narrowest of `u64` / `u128` / `Nat` that holds *every* count. The
//! fixed-width tiers never check for overflow: "sums cannot overflow by
//! construction", because every intermediate is bounded by a list total
//! of the space. These tests stand on the construction's edge:
//!
//! * hand-built ladders whose largest list total is **exactly**
//!   `u64::MAX` / `u128::MAX` (the last space of each tier) and one
//!   past it (the first space of the next), unranked, ranked and
//!   sampled at both ends of the rank range — a wrapped sum or product
//!   would mis-select (release) or panic (debug);
//! * the dead-sibling case: a space of total 1 in which an interior
//!   expression roots `2^64 − 2` (or `2^128 − 2`, or more) plans, so
//!   the tier is decided by a count the total never sees, exercised
//!   through the rooted sub-space API.
//!
//! Every product answer is compared with the recursive `Nat` reference
//! in `tests/common`, on the space's own tier and on every slower rung
//! it can be forced onto.

mod common;

use common::{
    all_ones_ladder, dead_sibling_ladder, reference_sample_batch, reference_unrank,
    reference_unrank_rooted,
};
use plansample::{CountTier, PlanBatch, PlanSpace, SpaceError};
use plansample_bignum::Nat;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `2^bits − 1`.
fn all_ones(bits: usize) -> Nat {
    let mut limbs = vec![0u64; bits / 64];
    limbs.push(1 << (bits % 64));
    let mut n = Nat::from_limbs(limbs);
    n.decr();
    n
}

/// `space` on its own tier and on every slower rung.
fn on_every_rung(space: &PlanSpace) -> Vec<PlanSpace> {
    [CountTier::U64, CountTier::U128, CountTier::Nat]
        .into_iter()
        .map(|tier| {
            let mut forced = space.clone();
            forced.force_tier(tier);
            forced
        })
        .collect()
}

/// Ranks at both ends of `[0, n)` and in the middle.
fn edge_ranks(n: &Nat) -> Vec<Nat> {
    let (half, _) = n.div_rem(&Nat::from(2u64));
    let mut last = n.clone();
    last.decr();
    let mut before_last = last.clone();
    before_last.decr();
    vec![Nat::zero(), Nat::one(), half, before_last, last]
}

#[test]
fn ladders_at_and_past_the_word_maximum_round_trip() {
    for (levels, tier) in [
        (64, CountTier::U64),
        (65, CountTier::U128),
        (128, CountTier::U128),
        (129, CountTier::Nat),
    ] {
        let space = all_ones_ladder(levels);
        assert_eq!(space.total(), &all_ones(levels), "{levels} levels");
        assert_eq!(space.counts().tier(), tier, "{levels} levels");

        for space in on_every_rung(&space) {
            let at = format!("{levels} levels stored as {}", space.counts().tier());
            for rank in edge_ranks(space.total()) {
                let plan = space.unrank(&rank).expect("rank below the total");
                assert_eq!(plan, reference_unrank(&space, &rank), "{at}: rank {rank}");
                assert_eq!(space.rank(&plan).unwrap(), rank, "{at}: rank {rank}");
            }
            assert!(matches!(
                space.unrank(space.total()),
                Err(SpaceError::RankOutOfRange { .. })
            ));

            // Uniform draws span the full width of the word.
            let trees = reference_sample_batch(&space, levels as u64, 64);
            let mut flat = PlanBatch::new();
            space.sample_batch_flat(&mut StdRng::seed_from_u64(levels as u64), 64, &mut flat);
            for (ids, tree) in flat.iter().zip(&trees) {
                assert_eq!(ids, tree.preorder_ids().as_slice(), "{at}");
            }
        }
    }
}

#[test]
fn dead_sibling_subspaces_round_trip_on_every_tier() {
    for (levels, tier) in [
        (64, CountTier::U64),
        (65, CountTier::U128),
        (128, CountTier::U128),
        (129, CountTier::Nat),
    ] {
        let (space, big) = dead_sibling_ladder(levels);
        // The whole space is the root scan; the dead join contributes
        // nothing, yet the interior count decides the tier.
        assert_eq!(space.total(), &Nat::one(), "{levels} levels");
        assert_eq!(space.counts().tier(), tier, "{levels} levels");
        let mut rooted = all_ones(levels);
        rooted.decr();
        assert_eq!(space.count_rooted(big), rooted, "{levels} levels");
        assert!(&rooted > space.total());

        for space in on_every_rung(&space) {
            let at = format!("{levels} levels stored as {}", space.counts().tier());
            for rank in edge_ranks(&rooted) {
                let plan = space.unrank_rooted(big, &rank).expect("rank below N(v)");
                assert_eq!(plan.id, big, "{at}: sub-space root is pinned");
                assert_eq!(
                    plan,
                    reference_unrank_rooted(&space, big, &rank),
                    "{at}: rank {rank}"
                );
                assert_eq!(space.rank_rooted(&plan).unwrap(), rank, "{at}: rank {rank}");
                // The plan is not part of the whole space: its root is
                // not in the root group.
                assert!(matches!(
                    space.rank(&plan),
                    Err(SpaceError::ForeignPlan { .. })
                ));
            }
            assert!(matches!(
                space.unrank_rooted(big, &rooted),
                Err(SpaceError::RankOutOfRange { .. })
            ));
            // Rooted sampling draws below N(v), not below the total.
            let mut rng = StdRng::seed_from_u64(levels as u64);
            let mut reference_rng = rng.clone();
            for _ in 0..16 {
                let plan = space.sample_rooted(&mut rng, big);
                let rank = Nat::random_below(&mut reference_rng, &rooted);
                assert_eq!(plan, reference_unrank_rooted(&space, big, &rank), "{at}");
            }
            // The one whole-space plan is still there.
            assert_eq!(
                space.unrank(&Nat::zero()).unwrap(),
                reference_unrank(&space, &Nat::zero())
            );
        }
    }
}
