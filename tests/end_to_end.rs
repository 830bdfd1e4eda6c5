//! End-to-end integration: SQL text → parse → optimize → count →
//! USEPLAN-ranked execution → result comparison, across crates.

use plansample::session::Session;
use plansample::{Error, SpaceError};
use plansample_bignum::Nat;
use plansample_datagen::MicroScale;

fn session() -> Session {
    let (catalog, tables) = plansample_catalog::tpch::catalog();
    let db = plansample_datagen::generate(&catalog, &tables, &MicroScale::default(), 2024);
    Session::new(catalog, db)
}

#[test]
fn sql_useplan_pipeline_three_way_join() {
    let s = session();
    let sql = "SELECT n_name, COUNT(*) \
               FROM supplier s, nation n, region r \
               WHERE s.s_nationkey = n.n_nationkey AND n.n_regionkey = r.r_regionkey \
               GROUP BY n.n_name";
    let parsed = plansample_sql::parse(s.catalog(), sql).unwrap();
    let reference = s.execute(&parsed.spec).unwrap();
    assert!(!reference.table.is_empty(), "grouped output expected");

    let total = s.count_plans(&parsed.spec).unwrap();
    assert!(total.to_u64().unwrap() > 100, "3-way space is non-trivial");

    // Exercise USEPLAN across the space through the SQL path.
    let step = total.to_u64().unwrap() / 7;
    for k in (0..total.to_u64().unwrap()).step_by(step.max(1) as usize) {
        let with_useplan = format!("{sql} OPTION (USEPLAN {k})");
        let parsed = plansample_sql::parse(s.catalog(), &with_useplan).unwrap();
        let rank = parsed.useplan.clone().unwrap();
        let out = s.execute_plan(&parsed.spec, &rank).unwrap();
        assert!(
            out.table.multiset_eq(&reference.table),
            "USEPLAN {k} diverged from the optimizer's plan"
        );
        assert!(out.scaled_cost >= 1.0 - 1e-9);
    }
}

#[test]
fn sql_projection_query_without_aggregate() {
    let s = session();
    let sql = "SELECT r_name FROM region WHERE region.r_regionkey < 3";
    let parsed = plansample_sql::parse(s.catalog(), sql).unwrap();
    let out = s.execute(&parsed.spec).unwrap();
    assert_eq!(out.table.width(), 1);
    assert_eq!(out.table.len(), 3);
}

#[test]
fn sql_self_join_with_aliases() {
    let s = session();
    let sql = "SELECT COUNT(*) FROM nation n1, nation n2 \
               WHERE n1.n_regionkey = n2.n_regionkey";
    let parsed = plansample_sql::parse(s.catalog(), sql).unwrap();
    let reference = s.execute(&parsed.spec).unwrap();
    // 25 nations over 5 regions, 5 per region: 5 * 25 = 125 pairs.
    assert_eq!(
        reference.table.rows()[0][0],
        plansample_catalog::Datum::Int(125)
    );
    // A few explicit plans must agree.
    for k in [0u64, 3, 9] {
        let out = s.execute_plan(&parsed.spec, &Nat::from(k)).unwrap();
        assert!(out.table.multiset_eq(&reference.table));
    }
}

#[test]
fn useplan_rank_out_of_range_surfaces_cleanly() {
    let s = session();
    let sql = "SELECT * FROM region OPTION (USEPLAN 999999999999999999999999)";
    let parsed = plansample_sql::parse(s.catalog(), sql).unwrap();
    let err = s
        .execute_plan(&parsed.spec, &parsed.useplan.unwrap())
        .unwrap_err();
    match err {
        Error::Space(SpaceError::RankOutOfRange { total, .. }) => {
            assert!(total.to_u64().unwrap() >= 1);
        }
        other => panic!("expected RankOutOfRange, got {other}"),
    }
}

#[test]
fn scaled_costs_reflect_plan_quality() {
    let s = session();
    let sql = "SELECT COUNT(*) FROM lineitem l, orders o, customer c \
               WHERE l.l_orderkey = o.o_orderkey AND o.o_custkey = c.c_custkey";
    let parsed = plansample_sql::parse(s.catalog(), sql).unwrap();
    let total = s.count_plans(&parsed.spec).unwrap().to_u64().unwrap();
    let mut worst: f64 = 1.0;
    for k in (0..total).step_by((total / 50).max(1) as usize) {
        let out = s.execute_plan(&parsed.spec, &Nat::from(k)).unwrap();
        worst = worst.max(out.scaled_cost);
    }
    // The space must contain plans far worse than the optimum (the
    // heavy tail behind the paper's Figure 4).
    assert!(worst > 10.0, "worst sampled scaled cost only {worst}");
}

#[test]
fn single_table_aggregate_sql() {
    let s = session();
    let sql = "SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem l WHERE l.l_quantity < 10";
    let parsed = plansample_sql::parse(s.catalog(), sql).unwrap();
    let reference = s.execute(&parsed.spec).unwrap();
    assert_eq!(reference.table.len(), 1);
    let total = s.count_plans(&parsed.spec).unwrap().to_u64().unwrap();
    for k in 0..total {
        let out = s.execute_plan(&parsed.spec, &Nat::from(k)).unwrap();
        assert!(out.table.multiset_eq(&reference.table), "plan {k}");
    }
}
