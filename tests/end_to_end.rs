//! End-to-end integration: SQL text → parse → optimize → count →
//! USEPLAN-ranked execution → result comparison, across crates. Each
//! query is prepared once and every plan of it runs from that artifact.

use plansample::{Error, PreparedQuery, SpaceError};
use plansample_bignum::Nat;
use plansample_catalog::Catalog;
use plansample_datagen::MicroScale;
use plansample_exec::{Database, Table};
use plansample_optimizer::OptimizerConfig;

/// The TPC-H catalog and a micro database generated for it.
fn data() -> (Catalog, Database) {
    let (catalog, tables) = plansample_catalog::tpch::catalog();
    let db = plansample_datagen::generate(&catalog, &tables, &MicroScale::default(), 2024);
    (catalog, db)
}

/// Parses and prepares `sql` — the one optimization its test makes.
fn prepare(catalog: &Catalog, sql: &str) -> PreparedQuery {
    let parsed = plansample_sql::parse(catalog, sql).unwrap();
    PreparedQuery::prepare(catalog, &parsed.spec, &OptimizerConfig::default()).unwrap()
}

/// Executes `OPTION (USEPLAN rank)`.
fn useplan(
    prepared: &PreparedQuery,
    catalog: &Catalog,
    db: &Database,
    rank: &Nat,
) -> Result<Table, Error> {
    prepared.execute(catalog, db, &prepared.unrank(rank)?)
}

#[test]
fn sql_useplan_pipeline_three_way_join() {
    let (catalog, db) = data();
    let sql = "SELECT n_name, COUNT(*) \
               FROM supplier s, nation n, region r \
               WHERE s.s_nationkey = n.n_nationkey AND n.n_regionkey = r.r_regionkey \
               GROUP BY n.n_name";
    let prepared = prepare(&catalog, sql);
    let reference = prepared.execute(&catalog, &db, prepared.best().0).unwrap();
    assert!(!reference.is_empty(), "grouped output expected");

    let total = prepared.total().to_u64().unwrap();
    assert!(total > 100, "3-way space is non-trivial");

    // Exercise USEPLAN across the space through the SQL path.
    for k in (0..total).step_by((total / 7).max(1) as usize) {
        let with_useplan = format!("{sql} OPTION (USEPLAN {k})");
        let parsed = plansample_sql::parse(&catalog, &with_useplan).unwrap();
        let plan = prepared.unrank(&parsed.useplan.unwrap()).unwrap();
        let out = prepared.execute(&catalog, &db, &plan).unwrap();
        assert!(
            out.multiset_eq(&reference),
            "USEPLAN {k} diverged from the optimizer's plan"
        );
        assert!(prepared.scaled_cost(&plan) >= 1.0 - 1e-9);
    }
}

#[test]
fn sql_projection_query_without_aggregate() {
    let (catalog, db) = data();
    let prepared = prepare(
        &catalog,
        "SELECT r_name FROM region WHERE region.r_regionkey < 3",
    );
    let out = prepared.execute(&catalog, &db, prepared.best().0).unwrap();
    assert_eq!(out.width(), 1);
    assert_eq!(out.len(), 3);
}

#[test]
fn sql_self_join_with_aliases() {
    let (catalog, db) = data();
    let prepared = prepare(
        &catalog,
        "SELECT COUNT(*) FROM nation n1, nation n2 \
         WHERE n1.n_regionkey = n2.n_regionkey",
    );
    let reference = prepared.execute(&catalog, &db, prepared.best().0).unwrap();
    // 25 nations over 5 regions, 5 per region: 5 * 25 = 125 pairs.
    assert_eq!(reference.rows()[0][0], plansample_catalog::Datum::Int(125));
    // A few explicit plans must agree.
    for k in [0u64, 3, 9] {
        let out = useplan(&prepared, &catalog, &db, &Nat::from(k)).unwrap();
        assert!(out.multiset_eq(&reference));
    }
}

#[test]
fn useplan_rank_out_of_range_surfaces_cleanly() {
    let (catalog, db) = data();
    let sql = "SELECT * FROM region OPTION (USEPLAN 999999999999999999999999)";
    let parsed = plansample_sql::parse(&catalog, sql).unwrap();
    let prepared =
        PreparedQuery::prepare(&catalog, &parsed.spec, &OptimizerConfig::default()).unwrap();
    let err = useplan(&prepared, &catalog, &db, &parsed.useplan.unwrap()).unwrap_err();
    match err {
        Error::Space(SpaceError::RankOutOfRange { total, .. }) => {
            assert!(total.to_u64().unwrap() >= 1);
        }
        other => panic!("expected RankOutOfRange, got {other}"),
    }
}

#[test]
fn scaled_costs_reflect_plan_quality() {
    let (catalog, db) = data();
    let prepared = prepare(
        &catalog,
        "SELECT COUNT(*) FROM lineitem l, orders o, customer c \
         WHERE l.l_orderkey = o.o_orderkey AND o.o_custkey = c.c_custkey",
    );
    let total = prepared.total().to_u64().unwrap();
    let mut worst: f64 = 1.0;
    for k in (0..total).step_by((total / 50).max(1) as usize) {
        let plan = prepared.unrank(&Nat::from(k)).unwrap();
        prepared.execute(&catalog, &db, &plan).unwrap();
        worst = worst.max(prepared.scaled_cost(&plan));
    }
    // The space must contain plans far worse than the optimum (the
    // heavy tail behind the paper's Figure 4).
    assert!(worst > 10.0, "worst sampled scaled cost only {worst}");
}

#[test]
fn single_table_aggregate_sql() {
    let (catalog, db) = data();
    let prepared = prepare(
        &catalog,
        "SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem l WHERE l.l_quantity < 10",
    );
    let reference = prepared.execute(&catalog, &db, prepared.best().0).unwrap();
    assert_eq!(reference.len(), 1);
    for k in 0..prepared.total().to_u64().unwrap() {
        let out = useplan(&prepared, &catalog, &db, &Nat::from(k)).unwrap();
        assert!(out.multiset_eq(&reference), "plan {k}");
    }
}
