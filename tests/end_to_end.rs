//! End-to-end integration: SQL text → parse → optimize → count →
//! USEPLAN-ranked execution → result comparison, across crates. Each
//! query is prepared once and every plan of it runs from that artifact.

use plansample::session::Session;
use plansample::{Error, PreparedQuery, SpaceError};
use plansample_bignum::Nat;
use plansample_datagen::MicroScale;

fn session() -> Session {
    let (catalog, tables) = plansample_catalog::tpch::catalog();
    let db = plansample_datagen::generate(&catalog, &tables, &MicroScale::default(), 2024);
    Session::new(catalog, db)
}

/// Parses and prepares `sql` — the one optimization its test makes.
fn prepare(s: &Session, sql: &str) -> PreparedQuery {
    let parsed = plansample_sql::parse(s.catalog(), sql).unwrap();
    s.prepare(&parsed.spec).unwrap()
}

#[test]
fn sql_useplan_pipeline_three_way_join() {
    let s = session();
    let sql = "SELECT n_name, COUNT(*) \
               FROM supplier s, nation n, region r \
               WHERE s.s_nationkey = n.n_nationkey AND n.n_regionkey = r.r_regionkey \
               GROUP BY n.n_name";
    let prepared = prepare(&s, sql);
    let reference = s.execute_prepared(&prepared, None).unwrap();
    assert!(!reference.table.is_empty(), "grouped output expected");

    let total = prepared.total().to_u64().unwrap();
    assert!(total > 100, "3-way space is non-trivial");

    // Exercise USEPLAN across the space through the SQL path.
    for k in (0..total).step_by((total / 7).max(1) as usize) {
        let with_useplan = format!("{sql} OPTION (USEPLAN {k})");
        let parsed = plansample_sql::parse(s.catalog(), &with_useplan).unwrap();
        let rank = parsed.useplan.unwrap();
        let out = s.execute_prepared(&prepared, Some(&rank)).unwrap();
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
    let prepared = prepare(&s, "SELECT r_name FROM region WHERE region.r_regionkey < 3");
    let out = s.execute_prepared(&prepared, None).unwrap();
    assert_eq!(out.table.width(), 1);
    assert_eq!(out.table.len(), 3);
}

#[test]
fn sql_self_join_with_aliases() {
    let s = session();
    let prepared = prepare(
        &s,
        "SELECT COUNT(*) FROM nation n1, nation n2 \
         WHERE n1.n_regionkey = n2.n_regionkey",
    );
    let reference = s.execute_prepared(&prepared, None).unwrap();
    // 25 nations over 5 regions, 5 per region: 5 * 25 = 125 pairs.
    assert_eq!(
        reference.table.rows()[0][0],
        plansample_catalog::Datum::Int(125)
    );
    // A few explicit plans must agree.
    for k in [0u64, 3, 9] {
        let out = s.execute_prepared(&prepared, Some(&Nat::from(k))).unwrap();
        assert!(out.table.multiset_eq(&reference.table));
    }
}

#[test]
fn useplan_rank_out_of_range_surfaces_cleanly() {
    let s = session();
    let sql = "SELECT * FROM region OPTION (USEPLAN 999999999999999999999999)";
    let parsed = plansample_sql::parse(s.catalog(), sql).unwrap();
    let prepared = s.prepare(&parsed.spec).unwrap();
    let err = s
        .execute_prepared(&prepared, parsed.useplan.as_ref())
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
    let prepared = prepare(
        &s,
        "SELECT COUNT(*) FROM lineitem l, orders o, customer c \
         WHERE l.l_orderkey = o.o_orderkey AND o.o_custkey = c.c_custkey",
    );
    let total = prepared.total().to_u64().unwrap();
    let mut worst: f64 = 1.0;
    for k in (0..total).step_by((total / 50).max(1) as usize) {
        let out = s.execute_prepared(&prepared, Some(&Nat::from(k))).unwrap();
        worst = worst.max(out.scaled_cost);
    }
    // The space must contain plans far worse than the optimum (the
    // heavy tail behind the paper's Figure 4).
    assert!(worst > 10.0, "worst sampled scaled cost only {worst}");
}

#[test]
fn single_table_aggregate_sql() {
    let s = session();
    let prepared = prepare(
        &s,
        "SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem l WHERE l.l_quantity < 10",
    );
    let reference = s.execute_prepared(&prepared, None).unwrap();
    assert_eq!(reference.table.len(), 1);
    for k in 0..prepared.total().to_u64().unwrap() {
        let out = s.execute_prepared(&prepared, Some(&Nat::from(k))).unwrap();
        assert!(out.table.multiset_eq(&reference.table), "plan {k}");
    }
}
