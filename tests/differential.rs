//! §4 differential testing across the full pipeline: every TPC-H query,
//! both cross-product modes, exhaustive where feasible and sampled
//! elsewhere. All plans of a query must produce identical results on
//! the micro database.

use plansample::PlanSpace;
use plansample_catalog::Catalog;
use plansample_datagen::MicroScale;
use plansample_exec::Database;
use plansample_optimizer::{optimize, OptimizerConfig};
use plansample_query::{QueryBuilder, QuerySpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup() -> (Catalog, Database) {
    let (catalog, tables) = plansample_catalog::tpch::catalog();
    let db = plansample_datagen::generate(&catalog, &tables, &MicroScale::tiny(), 7);
    (catalog, db)
}

fn check_sampled(
    catalog: &Catalog,
    db: &Database,
    query: &QuerySpec,
    cp: bool,
    k: usize,
    seed: u64,
) {
    let config = if cp {
        OptimizerConfig::with_cross_products()
    } else {
        OptimizerConfig::default()
    };
    let optimized = optimize(catalog, query, &config).unwrap();
    let space = PlanSpace::build(&optimized.memo, query).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let report = space.validate_sampled(catalog, db, k, &mut rng).unwrap();
    assert!(report.all_passed(), "{report}");
    assert_eq!(report.plans_checked, k);
}

#[test]
fn all_tpch_queries_sampled_no_cross_products() {
    let (catalog, db) = setup();
    for (name, query) in plansample_query::tpch::all(&catalog) {
        let k = if name == "Q6" { 4 } else { 60 };
        check_sampled(&catalog, &db, &query, false, k, 11);
    }
}

#[test]
fn q5_and_q9_sampled_with_cross_products() {
    // Cross-product plans on micro data are still cheap to execute and
    // must produce the same results (the predicates are applied by the
    // joins above the cross product).
    let (catalog, db) = setup();
    for query in [
        plansample_query::tpch::q5(&catalog),
        plansample_query::tpch::q9(&catalog),
    ] {
        check_sampled(&catalog, &db, &query, true, 40, 13);
    }
}

#[test]
fn exhaustive_on_two_way_join_with_projection() {
    let (catalog, db) = setup();
    let mut qb = QueryBuilder::new(&catalog);
    qb.rel("nation", Some("n")).unwrap();
    qb.rel("region", Some("r")).unwrap();
    qb.join(("n", "n_regionkey"), ("r", "r_regionkey")).unwrap();
    qb.project(&[("n", "n_name"), ("r", "r_name")]).unwrap();
    let query = qb.build().unwrap();

    let optimized = optimize(&catalog, &query, &OptimizerConfig::default()).unwrap();
    let space = PlanSpace::build(&optimized.memo, &query).unwrap();
    let report = space
        .validate_exhaustive(&catalog, &db, usize::MAX)
        .unwrap();
    assert!(report.all_passed(), "{report}");
    assert_eq!(
        Some(report.plans_checked as u64),
        space.total().to_u64(),
        "exhaustive run covers the whole space"
    );
    assert_eq!(report.reference_rows, 25, "every nation joins its region");
}

#[test]
fn exhaustive_on_grouped_aggregate() {
    let (catalog, db) = setup();
    let mut qb = QueryBuilder::new(&catalog);
    qb.rel("supplier", Some("s")).unwrap();
    qb.rel("nation", Some("n")).unwrap();
    qb.join(("s", "s_nationkey"), ("n", "n_nationkey")).unwrap();
    qb.aggregate(
        &[("n", "n_name")],
        &[
            (plansample_query::AggFunc::CountStar, None),
            (plansample_query::AggFunc::Sum, Some(("s", "s_acctbal"))),
            (plansample_query::AggFunc::Min, Some(("s", "s_name"))),
        ],
    )
    .unwrap();
    let query = qb.build().unwrap();

    let optimized = optimize(&catalog, &query, &OptimizerConfig::default()).unwrap();
    let space = PlanSpace::build(&optimized.memo, &query).unwrap();
    let report = space
        .validate_exhaustive(&catalog, &db, usize::MAX)
        .unwrap();
    assert!(report.all_passed(), "{report}");
    assert!(report.plans_checked > 50, "stream/hash agg × join space");
}

#[test]
fn exhaustive_on_cyclic_three_way_join() {
    // Triangle query: the cyclic-join code path (multiple crossing
    // predicates at the top join become hash keys / merge residuals).
    let (catalog, db) = setup();
    let mut qb = QueryBuilder::new(&catalog);
    qb.rel("supplier", Some("s")).unwrap();
    qb.rel("customer", Some("c")).unwrap();
    qb.rel("nation", Some("n")).unwrap();
    qb.join(("s", "s_nationkey"), ("n", "n_nationkey")).unwrap();
    qb.join(("c", "c_nationkey"), ("n", "n_nationkey")).unwrap();
    qb.join(("s", "s_nationkey"), ("c", "c_nationkey")).unwrap();
    let query = qb.build().unwrap();

    let optimized = optimize(&catalog, &query, &OptimizerConfig::default()).unwrap();
    let space = PlanSpace::build(&optimized.memo, &query).unwrap();
    // Exhaustive up to a cap (the cyclic space is bigger).
    let report = space.validate_exhaustive(&catalog, &db, 400).unwrap();
    assert!(report.all_passed(), "{report}");
    assert!(report.reference_rows > 0);
}

#[test]
fn transform_explorer_space_is_differentially_clean() {
    let (catalog, db) = setup();
    let mut qb = QueryBuilder::new(&catalog);
    qb.rel("orders", Some("o")).unwrap();
    qb.rel("customer", Some("c")).unwrap();
    qb.rel("nation", Some("n")).unwrap();
    qb.join(("o", "o_custkey"), ("c", "c_custkey")).unwrap();
    qb.join(("c", "c_nationkey"), ("n", "n_nationkey")).unwrap();
    let query = qb.build().unwrap();
    // The pipeline's steps, with the transformation explorer.
    let mut memo = plansample_memo::Memo::new();
    plansample_optimizer::explore_transform(&query, false, &mut memo).unwrap();
    let cost = plansample_optimizer::CostModel::default();
    plansample_optimizer::implement_all(&query, &catalog, &cost, true, true, &mut memo);
    plansample_optimizer::add_enforcers(&query, &catalog, &cost, &mut memo);
    let space = PlanSpace::build(&memo, &query).unwrap();
    let report = space.validate_exhaustive(&catalog, &db, 500).unwrap();
    assert!(report.all_passed(), "{report}");
}
