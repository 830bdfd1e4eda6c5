//! Round-trip bit-identity: the artifact contract (docs/DESIGN.md §10)
//! is that a loaded artifact answers `total` / `unrank` /
//! `sample_batch` / `best` *byte-identically* to the prepared query
//! that was saved. This suite asserts it two ways:
//!
//! * over **optimizer-built** memos — every TPC-H join query in the
//!   repertoire, under both optimizer configurations, and
//! * over **synthetic** memos — property-tested across join-graph
//!   topologies, sizes, and seeds (the regime where counts outgrow one
//!   `u64` limb, which a load must recompute on the same tier).
//!
//! "Bit-identical" is taken literally: costs are compared with
//! `f64::to_bits`, plans structurally, and the re-encoded image against
//! the original byte-for-byte (encode is deterministic, so save/load/
//! save is a fixed point).

use plansample_artifact::{decode, encode};
use plansample_bignum::Nat;
use plansample_core::{CountTier, PlanSpace, PreparedQuery};
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_optimizer::OptimizerConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Builds a prepared query from a synthetic memo (the optimizer's memo
/// passes, no best-plan extraction): the "best plan" is simply plan 0
/// costed by the memo, which is all `PreparedQuery::from_parts` requires.
fn synthetic(topology: Topology, relations: usize, seed: u64) -> PreparedQuery {
    let spec = JoinGraphSpec::new(topology, relations, seed);
    let (_, query, memo) = spec.build_memo();
    let space = PlanSpace::build_shared(Arc::new(memo), Arc::new(query)).expect("space builds");
    let best = space.unrank(&Nat::zero()).expect("space is non-empty");
    let cost = best.total_cost(space.memo());
    PreparedQuery::from_parts(space, best, cost, OptimizerConfig::default())
        .expect("synthetic parts validate")
}

/// The contract, asserted: `loaded` must be indistinguishable from
/// `original` across the whole serving surface.
fn assert_bit_identical(original: &PreparedQuery, bytes: &[u8], loaded: &PreparedQuery) {
    assert_eq!(loaded.total(), original.total(), "total (N) diverged");
    assert_eq!(
        loaded.best().1.to_bits(),
        original.best().1.to_bits(),
        "best cost diverged"
    );
    assert_eq!(
        format!("{:?}", loaded.best().0),
        format!("{:?}", original.best().0),
        "best plan diverged"
    );

    // Unrank at the space boundaries and an interior point.
    let mut last = original.total().clone();
    last.decr();
    let mid = Nat::from(original.total().limbs()[0] / 2);
    for rank in [Nat::zero(), mid, last] {
        let a = original.unrank(&rank).expect("original unranks");
        let b = loaded.unrank(&rank).expect("loaded unranks");
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "unrank({rank:?}) diverged"
        );
        assert_eq!(
            a.total_cost(original.memo()).to_bits(),
            b.total_cost(loaded.memo()).to_bits(),
            "cost of unrank({rank:?}) diverged"
        );
    }

    // Batched sampling from the same seed must draw the same plans.
    let k = 16;
    let a = original.sample_batch(&mut StdRng::seed_from_u64(7), k);
    let b = loaded.sample_batch(&mut StdRng::seed_from_u64(7), k);
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "sample_batch diverged");

    // The recomputed counts land on the rung the original's are on.
    assert_eq!(loaded.tier(), original.tier(), "count tier diverged");

    // Encode is deterministic: the loaded artifact re-encodes to the
    // exact byte image it was loaded from.
    assert_eq!(encode(loaded), bytes, "re-encoded image diverged");
}

#[test]
fn optimizer_built_memos_round_trip_bit_identically() {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    for (name, query) in plansample_query::tpch::all(&catalog) {
        // Q8 under cross products is the paper's largest memo (~22k
        // expressions); in an unoptimized test build its preparation
        // alone is seconds, so the cross-product config exercises the
        // smaller queries only.
        for config in [
            OptimizerConfig::default(),
            OptimizerConfig::with_cross_products(),
        ] {
            if config.allow_cross_products && query.relations.len() > 6 {
                continue;
            }
            let original =
                PreparedQuery::prepare(&catalog, &query, &config).expect("tpch query optimizes");
            let bytes = encode(&original);
            let loaded = decode(&bytes).unwrap_or_else(|e| {
                panic!("{name} (cross={}) decode: {e}", config.allow_cross_products)
            });
            assert_bit_identical(&original, &bytes, &loaded);
        }
    }
}

#[test]
fn multi_limb_synthetic_memo_round_trips_bit_identically() {
    // Clique-9 is the smallest synthetic whose total needs two limbs —
    // the case where the load's count fold must restart in `u128`.
    let original = synthetic(Topology::Clique, 9, 20000);
    assert!(
        original.total().limbs().len() >= 2,
        "clique-9 total must exceed u64: {}",
        original.total()
    );
    assert_eq!(original.tier(), CountTier::U128);
    let bytes = encode(&original);
    let loaded = decode(&bytes).expect("clique-9 artifact decodes");
    assert_bit_identical(&original, &bytes, &loaded);
}

/// A build is one byte string at every thread count. The encoded image
/// carries every table a build produces but the counts — pool, bounds,
/// slot lists, the topological order — and the counts are a function
/// of those, so nothing a thread count could perturb escapes the
/// comparison.
#[test]
fn builds_encode_byte_identically_at_one_and_four_threads() {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let q5 = plansample_query::tpch::q5(&catalog);
    let optimized = |threads| {
        threadpool::with_threads(threads, || {
            let config = OptimizerConfig::with_cross_products();
            encode(&PreparedQuery::prepare(&catalog, &q5, &config).expect("Q5 optimizes"))
        })
    };
    assert!(optimized(1) == optimized(4), "Q5+CP image diverged");

    let two_limb = |threads| {
        threadpool::with_threads(threads, || encode(&synthetic(Topology::Clique, 9, 20000)))
    };
    assert!(two_limb(1) == two_limb(4), "clique-9 image diverged");
}

/// The other two tiers: `u64`, and — on a chain long enough that its
/// total genuinely needs three limbs — exact `Nat`. Neither image holds
/// a count: the five sections are the same kinds on every tier.
#[test]
fn single_limb_and_three_limb_spaces_round_trip_on_their_own_tier() {
    let small = synthetic(Topology::Chain, 6, 20000);
    assert_eq!(small.tier(), CountTier::U64);
    let huge = (15..40)
        .map(|rels| synthetic(Topology::Chain, rels, 20000))
        .find(|p| p.total().limbs().len() >= 3)
        .expect("some chain under 40 relations needs three limbs");
    assert_eq!(huge.tier(), CountTier::Nat);
    for original in [small, huge] {
        let bytes = encode(&original);
        let loaded = decode(&bytes).expect("artifact decodes");
        assert_bit_identical(&original, &bytes, &loaded);
        let names: Vec<&str> = plansample_artifact::inspect(&bytes)
            .expect("inspects")
            .sections
            .iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(names, ["meta", "query", "config", "memo", "best"]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Synthetic memos across every topology, 4–7 relations, arbitrary
    /// seeds: encode → decode must reproduce the serving surface
    /// bit-for-bit.
    #[test]
    fn synthetic_memos_round_trip_bit_identically(
        topology_ix in 0usize..4,
        relations in 4usize..=7,
        seed in any::<u64>(),
    ) {
        let topology = [
            Topology::Chain,
            Topology::Star,
            Topology::Cycle,
            Topology::Clique,
        ][topology_ix];
        // Clique growth is steep; keep the property fast enough to run
        // in an unoptimized build.
        let relations = if matches!(topology, Topology::Clique) {
            relations.min(6)
        } else {
            relations
        };
        let original = synthetic(topology, relations, seed);
        let bytes = encode(&original);
        let loaded = decode(&bytes).expect("synthetic artifact decodes");
        assert_bit_identical(&original, &bytes, &loaded);
    }
}
