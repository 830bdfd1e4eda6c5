//! Regression-pins the TPC-H plan-space sizes (this build's Table 1
//! `#Plans` column) and checks the structural invariants the paper's
//! evaluation relies on.
//!
//! The absolute values are implementation-specific (they depend on the
//! rule set, see `docs/EXPERIMENTS.md`); pinning them catches accidental
//! changes to exploration, implementation rules, enforcer generation, or
//! property handling.

use plansample::PlanSpace;
use plansample_bignum::Nat;
use plansample_optimizer::{optimize, OptimizerConfig};

fn space_size(name: &str, cross_products: bool) -> Nat {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let query = match name {
        "Q5" => plansample_query::tpch::q5(&catalog),
        "Q6" => plansample_query::tpch::q6(&catalog),
        "Q7" => plansample_query::tpch::q7(&catalog),
        "Q8" => plansample_query::tpch::q8(&catalog),
        "Q9" => plansample_query::tpch::q9(&catalog),
        _ => unreachable!(),
    };
    let config = if cross_products {
        OptimizerConfig::with_cross_products()
    } else {
        OptimizerConfig::default()
    };
    let optimized = optimize(&catalog, &query, &config).unwrap();
    let space = PlanSpace::build(&optimized.memo, &query).unwrap();
    space.total().clone()
}

#[test]
fn pinned_counts_without_cross_products() {
    assert_eq!(space_size("Q5", false).to_decimal(), "840579641856");
    assert_eq!(space_size("Q7", false).to_decimal(), "81257862528");
    assert_eq!(space_size("Q8", false).to_decimal(), "7686395164876800");
    assert_eq!(space_size("Q9", false).to_decimal(), "647088602496");
}

#[test]
fn pinned_counts_with_cross_products() {
    assert_eq!(space_size("Q5", true).to_decimal(), "6366517920960");
    assert_eq!(space_size("Q7", true).to_decimal(), "2096413505472");
    assert_eq!(space_size("Q8", true).to_decimal(), "1758007804933702272");
    assert_eq!(space_size("Q9", true).to_decimal(), "3638106979776");
}

#[test]
fn q6_control_space_is_tiny() {
    // §5: "The distributions of queries that contained few tables were
    // of no particular shape" — Q6 has a handful of plans.
    let n = space_size("Q6", false);
    assert!(n.to_u64().unwrap() < 20, "Q6 space {n}");
    assert_eq!(space_size("Q6", true), n, "no joins, CP mode is irrelevant");
}

#[test]
fn cross_products_strictly_enlarge_every_space() {
    for q in ["Q5", "Q7", "Q8", "Q9"] {
        let no_cp = space_size(q, false);
        let cp = space_size(q, true);
        assert!(cp > no_cp, "{q}: CP {cp} must exceed noCP {no_cp}");
    }
}

#[test]
fn q8_has_the_largest_space() {
    // 8 relations beat the 6-relation queries — the paper's Table 1
    // shows the same dominance.
    let q8 = space_size("Q8", false);
    for q in ["Q5", "Q7", "Q9"] {
        assert!(q8 > space_size(q, false), "{q} should be smaller than Q8");
    }
}

#[test]
fn counts_exceed_u64_usefully() {
    // The Q8 CP space needs more than 60 bits — the reason counting
    // uses arbitrary-precision integers.
    let n = space_size("Q8", true);
    assert!(n.bits() > 60, "Q8 CP bits = {}", n.bits());
    assert!(n.to_u64().is_some() || n.to_u128().is_some());
}

#[test]
fn best_cost_is_invariant_to_cross_product_mode() {
    // Enabling cross products adds alternatives but the optimum for a
    // connected query never uses one under this cost model.
    let (catalog, _) = plansample_catalog::tpch::catalog();
    for query in [
        plansample_query::tpch::q5(&catalog),
        plansample_query::tpch::q7(&catalog),
        plansample_query::tpch::q9(&catalog),
    ] {
        let a = optimize(&catalog, &query, &OptimizerConfig::default()).unwrap();
        let b = optimize(&catalog, &query, &OptimizerConfig::with_cross_products()).unwrap();
        assert!((a.best_cost - b.best_cost).abs() < 1e-9 * a.best_cost);
    }
}

#[test]
fn prepared_q8_cp_space_stays_under_102_bytes_per_expression() {
    // Links + counts in the tier's own width + the shrunken memo, over
    // the paper's largest memo: 101.6 B/expr — what the tracked
    // benchmark reports as `resident_bytes_per_expr` on `sample_q8cp`
    // (216 before the memory refactor, 123.2 before the single count
    // store, 105.4 before the packed slot table; DESIGN.md §6). Exact,
    // so pinned here and not in a bench.
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let query = plansample_query::tpch::q8(&catalog);
    let prepared = plansample::PreparedQuery::prepare(
        &catalog,
        &query,
        &OptimizerConfig::with_cross_products(),
    )
    .unwrap();
    let space = prepared.space();
    let bytes_per_expr = space.size_bytes() as f64 / space.memo().num_physical() as f64;
    assert!(
        bytes_per_expr <= 102.0,
        "prepared Q8+CP space must stay <= 102 bytes/expr; measured {bytes_per_expr:.3}"
    );
}
