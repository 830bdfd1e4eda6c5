//! Property tests of the central bijection over *randomly generated
//! queries*: for any join graph the optimizer explores,
//! `unrank: [0, N) → plans` must be a bijection onto the set of valid
//! plans, with `rank` its inverse, and the exhaustive enumeration must
//! agree with the count.

mod common;

use plansample::PlanSpace;
use plansample_bignum::Nat;
use plansample_catalog::{table, Catalog, ColType};
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_memo::validate_plan;
use plansample_optimizer::{optimize, OptimizerConfig};
use plansample_query::{QueryBuilder, QuerySpec};
use proptest::prelude::*;

/// A random query shape: `n` relations (3..=4), random tree edges plus
/// optional extra edges (cycles), random row counts, random indexes.
#[derive(Debug, Clone)]
struct QueryShape {
    rows: Vec<u64>,
    indexed: Vec<bool>,
    /// edge i connects relation i+1 to `attach[i] <= i`.
    attach: Vec<usize>,
    extra_edge: Option<(usize, usize)>,
}

fn arb_shape() -> impl Strategy<Value = QueryShape> {
    (3usize..=4)
        .prop_flat_map(|n| {
            (
                proptest::collection::vec(10u64..100_000, n..=n),
                proptest::collection::vec(any::<bool>(), n..=n),
                // attach[i] in 0..=i ensures a connected tree
                (0..n - 1)
                    .map(|i| (0..=i).prop_map(move |a| a).boxed())
                    .collect::<Vec<_>>(),
                proptest::option::of((0usize..4, 0usize..4)),
            )
        })
        .prop_map(|(rows, indexed, attach, extra_edge)| QueryShape {
            rows,
            indexed,
            attach,
            extra_edge,
        })
}

fn build_query(shape: &QueryShape) -> (Catalog, QuerySpec) {
    let n = shape.rows.len();
    let mut catalog = Catalog::new();
    for i in 0..n {
        let mut b = table(&format!("t{i}"), shape.rows[i])
            .col("k", ColType::Int, shape.rows[i].min(500))
            .col("v", ColType::Int, 50);
        if shape.indexed[i] {
            b = b.index_on(0);
        }
        catalog.add_table(b.build()).unwrap();
    }
    let mut qb = QueryBuilder::new(&catalog);
    for i in 0..n {
        qb.rel(&format!("t{i}"), None).unwrap();
    }
    for (i, &a) in shape.attach.iter().enumerate() {
        qb.join((&format!("t{}", i + 1), "k"), (&format!("t{a}"), "k"))
            .unwrap();
    }
    if let Some((a, b)) = shape.extra_edge {
        let (a, b) = (a % n, b % n);
        if a != b {
            qb.join((&format!("t{a}"), "v"), (&format!("t{b}"), "v"))
                .unwrap();
        }
    }
    let q = qb.build().unwrap();
    (catalog, q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rank_unrank_round_trips_on_random_queries(shape in arb_shape()) {
        let (catalog, query) = build_query(&shape);
        let optimized = optimize(&catalog, &query, &OptimizerConfig::default()).unwrap();
        let space = PlanSpace::build(&optimized.memo, &query).unwrap();
        let total = space.total().clone();
        prop_assert!(!total.is_zero());

        // Probe ranks spread across the space (first, last, and strides).
        let n = total.to_u128().unwrap();
        let probes: Vec<u128> = (0..16).map(|i| i * (n - 1) / 15).collect();
        for &r in &probes {
            let rank = Nat::from(r);
            let plan = space.unrank(&rank).unwrap();
            prop_assert!(
                validate_plan(&optimized.memo, &query, &plan).is_empty(),
                "rank {r} produced an invalid plan"
            );
            prop_assert_eq!(space.rank(&plan).unwrap(), rank, "round trip at {}", r);
        }
    }

    #[test]
    fn enumeration_agrees_with_count_on_small_spaces(shape in arb_shape()) {
        let (catalog, query) = build_query(&shape);
        // Shrink the space: disable index scans and merge joins.
        let config = OptimizerConfig {
            enable_index_scans: false,
            enable_merge_joins: false,
            enable_enforcers: false,
            ..Default::default()
        };
        let optimized = optimize(&catalog, &query, &config).unwrap();
        let space = PlanSpace::build(&optimized.memo, &query).unwrap();
        let total = space.total().to_u64().unwrap();
        prop_assume!(total <= 20_000);

        let mut seen = std::collections::HashSet::new();
        let mut count = 0u64;
        for plan in space.enumerate() {
            prop_assert!(seen.insert(format!("{:?}", plan.preorder_ids())), "duplicate plan");
            count += 1;
        }
        prop_assert_eq!(count, total, "enumeration count mismatch");

        // Resumable cursors tile the same space: pages started at
        // arbitrary ranks must reproduce the skip-based prefix walk.
        for start in [0u64, 1, total / 2, total.saturating_sub(1), total] {
            let page: Vec<_> = space
                .enumerate_from(Nat::from(start))
                .take(8)
                .collect();
            let walked: Vec<_> = space.enumerate().skip(start as usize).take(8).collect();
            prop_assert_eq!(page, walked, "cursor at {} diverges from skip", start);
        }
    }

    #[test]
    fn sampled_plans_are_valid_and_rankable(shape in arb_shape()) {
        use rand::SeedableRng;
        let (catalog, query) = build_query(&shape);
        let optimized = optimize(&catalog, &query, &OptimizerConfig::default()).unwrap();
        let space = PlanSpace::build(&optimized.memo, &query).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..32 {
            let plan = space.sample(&mut rng);
            prop_assert!(validate_plan(&optimized.memo, &query, &plan).is_empty());
            let rank = space.rank(&plan).unwrap();
            prop_assert!(&rank < space.total());
            prop_assert_eq!(&space.unrank(&rank).unwrap(), &plan);
        }
    }

    #[test]
    fn cross_product_spaces_round_trip_too(shape in arb_shape()) {
        let (catalog, query) = build_query(&shape);
        let optimized =
            optimize(&catalog, &query, &OptimizerConfig::with_cross_products()).unwrap();
        let space = PlanSpace::build(&optimized.memo, &query).unwrap();
        let n = space.total().to_u128().unwrap();
        for r in [0u128, n / 3, n / 2, n - 1] {
            let rank = Nat::from(r);
            let plan = space.unrank(&rank).unwrap();
            prop_assert_eq!(space.rank(&plan).unwrap(), rank);
        }
    }
}

#[test]
fn counts_rooted_sum_to_total_on_tpch() {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let query = plansample_query::tpch::q7(&catalog);
    let optimized = optimize(&catalog, &query, &OptimizerConfig::default()).unwrap();
    let space = PlanSpace::build(&optimized.memo, &query).unwrap();
    let root = optimized.memo.group(optimized.memo.root());
    let sum: Nat = root.phys_iter().map(|(id, _)| space.count_rooted(id)).sum();
    assert_eq!(&sum, space.total());
}

/// Operator selection is a binary search over each list's stored
/// running sums (DESIGN §4). On a list wide enough for the search to be
/// deep, the ranks either side of every boundary between two members —
/// the last plan of one, the first of the next, ±1 — must select what
/// the scalar scan of the reference unranker selects, and come back
/// from `rank`.
#[test]
fn every_running_sum_boundary_of_the_widest_list_round_trips() {
    let synth = common::SynthSpace::build(JoinGraphSpec::new(Topology::Clique, 7, 20000));
    let space = synth.space();
    let (links, counts) = (space.links(), space.counts());
    // The widest list, an expression that reads it, and at which slot.
    let (v, slot, list) = links
        .ids()
        .iter()
        .flat_map(|(d, _)| {
            let slots = links.slot_lists(d).iter().enumerate();
            slots.map(move |(slot, &l)| (d, slot, l))
        })
        .max_by_key(|&(.., l)| links.list(l).len())
        .expect("a join reads a list");
    let members = links.list(list);
    assert!(members.len() >= 256, "widest list: {}", members.len());

    // Sub-rank `s` at that slot with every other slot at 0 is local
    // rank `s · B_v(slot − 1)` of the sub-space rooted at `v`.
    let weight: Nat = links.slot_lists(v)[..slot]
        .iter()
        .map(|&l| counts.list_total(l))
        .product();
    let total = counts.list_total(list);
    let v = links.ids().phys(v);
    let mut boundary = Nat::zero();
    let mut checked = 0usize;
    for &w in members {
        boundary += &counts.rooted(w);
        // The last two sub-ranks of `w` and the first two past it.
        let around = [
            boundary.checked_sub(&Nat::from(2u64)),
            boundary.checked_sub(&Nat::one()),
            Some(boundary.clone()),
            Some(&boundary + &Nat::one()),
        ];
        for s in around.into_iter().flatten().filter(|s| s < &total) {
            let local = &s * &weight;
            let plan = space.unrank_rooted(v, &local).unwrap();
            assert_eq!(plan, common::reference_unrank_rooted(space, v, &local));
            assert_eq!(space.rank_rooted(&plan).unwrap(), local, "sub-rank {s}");
            checked += 1;
        }
    }
    assert!(checked >= 2 * members.len());
}
