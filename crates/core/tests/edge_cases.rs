//! Edge cases of the counting/unranking machinery: dead (zero-plan)
//! expressions, degenerate one-plan spaces, deep chains, and restricted
//! optimizer configurations.

use plansample::{CountTier, Counts, Links, PlanSpace, SpaceError};
use plansample_bignum::Nat;
use plansample_catalog::{table, Catalog, ColType};
use plansample_memo::{validate_plan, GroupKey, Memo, PhysicalExpr, PhysicalOp};
use plansample_optimizer::{optimize, OptimizerConfig};
use plansample_query::{ColRef, QueryBuilder, QuerySpec, RelId, RelSet};

/// One relation, one unsatisfiable merge join: the dead expression must
/// count zero and never be produced by unranking.
#[test]
fn dead_expressions_count_zero_and_are_skipped() {
    let mut catalog = Catalog::new();
    catalog
        .add_table(table("a", 10).col("k", ColType::Int, 10).build())
        .unwrap();
    catalog
        .add_table(table("b", 10).col("k", ColType::Int, 10).build())
        .unwrap();
    let mut qb = QueryBuilder::new(&catalog);
    qb.rel("a", None).unwrap();
    qb.rel("b", None).unwrap();
    qb.join(("a", "k"), ("b", "k")).unwrap();
    let query = qb.build().unwrap();

    let (ra, rb) = (RelId(0), RelId(1));
    let a_k = ColRef { rel: ra, col: 0 };
    let b_k = ColRef { rel: rb, col: 0 };

    let mut memo = Memo::new();
    let ga = memo.add_group(GroupKey::Rels(RelSet::singleton(ra)));
    let gb = memo.add_group(GroupKey::Rels(RelSet::singleton(rb)));
    let gab = memo.add_group(GroupKey::Rels(RelSet::all(2)));
    // Only unsorted table scans: no index, no enforcer.
    memo.add_physical(
        ga,
        PhysicalExpr::new(PhysicalOp::TableScan { rel: ra }, 10.0, 10.0),
    )
    .unwrap();
    memo.add_physical(
        gb,
        PhysicalExpr::new(PhysicalOp::TableScan { rel: rb }, 10.0, 10.0),
    )
    .unwrap();
    // A live hash join and a DEAD merge join (nothing delivers the order).
    let hj = memo
        .add_physical(
            gab,
            PhysicalExpr::new(
                PhysicalOp::HashJoin {
                    left: ga,
                    right: gb,
                },
                25.0,
                10.0,
            ),
        )
        .unwrap();
    let dead = memo
        .add_physical(
            gab,
            PhysicalExpr::new(
                PhysicalOp::MergeJoin {
                    left: ga,
                    right: gb,
                    left_key: a_k,
                    right_key: b_k,
                },
                20.0,
                10.0,
            ),
        )
        .unwrap();
    memo.set_root(gab);

    let space = PlanSpace::build(&memo, &query).unwrap();
    assert_eq!(space.count_rooted(dead), Nat::zero());
    assert_eq!(space.count_rooted(hj).to_u64(), Some(1));
    assert_eq!(
        space.total().to_u64(),
        Some(1),
        "dead expr contributes nothing"
    );

    let plan = space.unrank(&Nat::zero()).unwrap();
    assert_eq!(plan.id, hj, "unranking must skip the dead expression");
    assert!(space.unrank(&Nat::one()).is_err());
    // Enumeration agrees.
    assert_eq!(space.enumerate().count(), 1);
    assert_eq!(space.enumerate().take(usize::MAX).count(), 1);
}

#[test]
fn single_plan_space_round_trips() {
    let mut catalog = Catalog::new();
    catalog
        .add_table(table("only", 5).col("x", ColType::Int, 5).build())
        .unwrap();
    let mut qb = QueryBuilder::new(&catalog);
    qb.rel("only", None).unwrap();
    let query = qb.build().unwrap();
    // No indexes, no aggregate: exactly one plan (the table scan).
    let optimized = optimize(&catalog, &query, &OptimizerConfig::default()).unwrap();
    let space = PlanSpace::build(&optimized.memo, &query).unwrap();
    assert_eq!(space.total().to_u64(), Some(1));
    let plan = space.unrank(&Nat::zero()).unwrap();
    assert_eq!(space.rank(&plan).unwrap(), Nat::zero());
    assert!(matches!(
        space.unrank(&Nat::one()),
        Err(SpaceError::RankOutOfRange { .. })
    ));
}

fn chain_query(n: usize) -> (Catalog, QuerySpec) {
    let mut catalog = Catalog::new();
    for i in 0..n {
        catalog
            .add_table(
                table(&format!("t{i}"), 1000 + 7 * i as u64)
                    .col("k", ColType::Int, 100)
                    .col("fk", ColType::Int, 100)
                    .index_on(0)
                    .build(),
            )
            .unwrap();
    }
    let mut qb = QueryBuilder::new(&catalog);
    for i in 0..n {
        qb.rel(&format!("t{i}"), None).unwrap();
    }
    for i in 0..n - 1 {
        qb.join((&format!("t{i}"), "fk"), (&format!("t{}", i + 1), "k"))
            .unwrap();
    }
    let q = qb.build().unwrap();
    (catalog, q)
}

#[test]
fn deep_chain_extreme_ranks_round_trip() {
    let (catalog, query) = chain_query(8);
    let optimized = optimize(&catalog, &query, &OptimizerConfig::default()).unwrap();
    let space = PlanSpace::build(&optimized.memo, &query).unwrap();
    let total = space.total().clone();
    assert!(total.bits() > 30, "8-chain space is large: {total}");

    let mut last = total.clone();
    last.decr();
    for rank in [Nat::zero(), Nat::one(), last] {
        let plan = space.unrank(&rank).unwrap();
        assert!(validate_plan(&optimized.memo, &query, &plan).is_empty());
        assert_eq!(space.rank(&plan).unwrap(), rank);
    }
}

#[test]
fn restricted_configs_shrink_but_stay_consistent() {
    let (catalog, query) = chain_query(4);
    let full = optimize(&catalog, &query, &OptimizerConfig::default()).unwrap();
    let full_n = PlanSpace::build(&full.memo, &query)
        .unwrap()
        .total()
        .clone();

    let mut shrinking = vec![];
    for (label, config) in [
        (
            "no merge joins",
            OptimizerConfig {
                enable_merge_joins: false,
                ..Default::default()
            },
        ),
        (
            "no merge, no index",
            OptimizerConfig {
                enable_merge_joins: false,
                enable_index_scans: false,
                ..Default::default()
            },
        ),
        (
            "no merge, no index, no enforcers",
            OptimizerConfig {
                enable_merge_joins: false,
                enable_index_scans: false,
                enable_enforcers: false,
                ..Default::default()
            },
        ),
    ] {
        let optimized = optimize(&catalog, &query, &config).unwrap();
        let space = PlanSpace::build(&optimized.memo, &query).unwrap();
        let n = space.total().clone();
        assert!(n < full_n, "{label}: {n} must be below the full {full_n}");
        // Bijection still holds in every configuration.
        let mut last = n.clone();
        last.decr();
        let plan = space.unrank(&last).unwrap();
        assert_eq!(space.rank(&plan).unwrap(), last, "{label}");
        shrinking.push(n);
    }
    assert!(
        shrinking.windows(2).all(|w| w[1] <= w[0]),
        "each restriction shrinks the space: {shrinking:?}"
    );

    // The most restricted config (NLJ/hash + table scans + hash agg
    // only) for a 4-chain: join orders × hash/NLJ choices. All plans
    // must still validate.
    let config = OptimizerConfig {
        enable_merge_joins: false,
        enable_index_scans: false,
        enable_enforcers: false,
        ..Default::default()
    };
    let optimized = optimize(&catalog, &query, &config).unwrap();
    let space = PlanSpace::build(&optimized.memo, &query).unwrap();
    for plan in space.enumerate().take(500) {
        assert!(validate_plan(&optimized.memo, &query, &plan).is_empty());
    }
}

#[test]
fn enforcers_enable_merge_joins_without_indexes() {
    // No indexes anywhere: merge joins are only reachable through Sort
    // enforcers; with enforcers off they must be dead or absent.
    let mut catalog = Catalog::new();
    for name in ["x", "y"] {
        catalog
            .add_table(table(name, 100).col("k", ColType::Int, 100).build())
            .unwrap();
    }
    let mut qb = QueryBuilder::new(&catalog);
    qb.rel("x", None).unwrap();
    qb.rel("y", None).unwrap();
    qb.join(("x", "k"), ("y", "k")).unwrap();
    let query = qb.build().unwrap();

    let with = optimize(&catalog, &query, &OptimizerConfig::default()).unwrap();
    let with_space = PlanSpace::build(&with.memo, &query).unwrap();

    let without = optimize(
        &catalog,
        &query,
        &OptimizerConfig {
            enable_enforcers: false,
            ..Default::default()
        },
    )
    .unwrap();
    let without_space = PlanSpace::build(&without.memo, &query).unwrap();

    assert!(
        with_space.total() > without_space.total(),
        "enforcers unlock merge-join plans: {} vs {}",
        with_space.total(),
        without_space.total()
    );

    // In the no-enforcer memo every merge join is dead (counts zero).
    for group in without.memo.groups() {
        for (id, expr) in group.phys_iter() {
            if matches!(expr.op, PhysicalOp::MergeJoin { .. }) {
                assert!(
                    without_space.count_rooted(id).is_zero(),
                    "{id} should be dead"
                );
            }
        }
    }
}

#[test]
fn aggregate_space_includes_both_agg_implementations() {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let query = plansample_query::tpch::q6(&catalog);
    let optimized = optimize(&catalog, &query, &OptimizerConfig::default()).unwrap();
    let space = PlanSpace::build(&optimized.memo, &query).unwrap();

    // Every plan's root must be an aggregate; both implementations occur.
    let mut names = std::collections::HashSet::new();
    for plan in space.enumerate() {
        names.insert(optimized.memo.phys(plan.id).op.name());
    }
    assert!(names.contains("HashAgg"));
    assert!(names.contains("StreamAgg"));
}

/// A fixed-width store owns no `Vec<Nat>`: its footprint is exactly one
/// word per expression, pooled link and list, plus the struct. The
/// links beside it hold 16 bytes an expression — the packed slot record
/// (8), its group (4) and its topo position (4) — plus 4 per pooled
/// link, per list bound and per group bound: no slot bounds table, no
/// growth slack.
#[test]
fn fixed_width_tiers_hold_one_word_per_count() {
    let ex = plansample::paper_example::build();
    let mut space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
    let links = space.links();
    assert_eq!(
        links.size_bytes(),
        std::mem::size_of::<Links>()
            + 16 * links.num_exprs()
            + 4 * (links.num_pooled_links() + links.num_lists() + 1 + ex.memo.num_groups() + 1)
    );
    let words = links.num_exprs() + links.num_pooled_links() + links.num_lists();
    let fixed = std::mem::size_of::<Counts>();
    assert_eq!(space.counts().tier(), CountTier::U64);
    assert_eq!(space.counts().size_bytes(), fixed + 8 * words);
    space.force_tier(CountTier::U128);
    assert_eq!(space.counts().size_bytes(), fixed + 16 * words);
    space.force_tier(CountTier::Nat);
    assert_eq!(
        space.counts().size_bytes(),
        fixed + std::mem::size_of::<Nat>() * words,
        "single-limb Nats spill nothing"
    );
}
