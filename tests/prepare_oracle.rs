//! Best-plan extraction against its oracle: the optimizer memoises the
//! cheapest eligible child per *distinct* child slot; the reference in
//! `tests/common` is the per-expression recursion it replaced. Both add
//! in the same order, so every total, the best plan and the best cost
//! must agree **bit for bit** — on the TPC-H spaces and on every
//! synthetic topology.

mod common;

use common::{reference_best_plan, reference_totals};
use plansample_catalog::Catalog;
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_memo::Memo;
use plansample_optimizer::{
    add_enforcers, best_plan, compute_totals, explore_transform, implement_all, optimize,
    CostModel, Optimized, OptimizerConfig,
};
use plansample_query::QuerySpec;

fn assert_matches_oracle(label: &str, catalog: &Catalog, query: &QuerySpec, cfg: &OptimizerConfig) {
    let optimized = optimize(catalog, query, cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_optimized_matches_oracle(label, query, &optimized);
}

fn assert_optimized_matches_oracle(label: &str, query: &QuerySpec, optimized: &Optimized) {
    let memo = &optimized.memo;
    let totals = compute_totals(memo, query);
    let oracle = reference_totals(memo, query);
    for group in memo.groups() {
        let row = &oracle[group.id.0 as usize];
        for (id, _) in group.phys_iter() {
            assert_eq!(
                totals.total(id).to_bits(),
                row[id.index].to_bits(),
                "{label}: total of {id}"
            );
        }
        let best = row.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(
            totals.group_best(group.id).to_bits(),
            best.to_bits(),
            "{label}: best of group {}",
            group.id.0
        );
    }
    let (plan, cost) = reference_best_plan(memo, query, &oracle)
        .unwrap_or_else(|| panic!("{label}: the oracle finds no plan"));
    let extracted = best_plan(memo, &totals).expect("optimize succeeded");
    assert_eq!(extracted.0, plan, "{label}: best plan");
    assert_eq!(optimized.best_plan, plan, "{label}: optimize's best plan");
    assert_eq!(extracted.1.to_bits(), cost.to_bits(), "{label}: best cost");
    assert_eq!(
        optimized.best_cost.to_bits(),
        cost.to_bits(),
        "{label}: optimize's best cost"
    );
}

#[test]
fn totals_and_best_plan_equal_the_per_expression_recursion_on_tpch() {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    use plansample_query::tpch::{q10, q3, q5, q7, q8};
    let plain = OptimizerConfig::default();
    for (label, query) in [
        ("Q3", q3(&catalog)),
        ("Q5", q5(&catalog)),
        ("Q7", q7(&catalog)),
        ("Q8", q8(&catalog)),
        ("Q10", q10(&catalog)),
    ] {
        assert_matches_oracle(label, &catalog, &query, &plain);
    }
    assert_matches_oracle(
        "Q8+CP",
        &catalog,
        &q8(&catalog),
        &OptimizerConfig::with_cross_products(),
    );
    // Transformation-rule exploration creates groups out of subset-size
    // order, so the recursion meets parents before their children.
    let query = q5(&catalog);
    let optimized = transform(&catalog, &query);
    assert_optimized_matches_oracle("Q5 (transform explorer)", &query, &optimized);
}

/// `optimize`'s pipeline, its steps run here with the transformation
/// explorer in place of the bottom-up one.
fn transform(catalog: &Catalog, query: &QuerySpec) -> Optimized {
    let mut memo = Memo::new();
    explore_transform(query, false, &mut memo).expect("the query is connected");
    let cost = CostModel::default();
    implement_all(query, catalog, &cost, true, true, &mut memo);
    add_enforcers(query, catalog, &cost, &mut memo);
    let totals = compute_totals(&memo, query);
    let (best_plan, best_cost) = best_plan(&memo, &totals).expect("a plan");
    Optimized {
        memo,
        best_plan,
        best_cost,
    }
}

#[test]
fn totals_and_best_plan_equal_the_per_expression_recursion_on_every_topology() {
    for topology in Topology::ALL {
        for relations in 3..=7 {
            for seed in [1, 42, 20000] {
                let spec = JoinGraphSpec::new(topology, relations, seed);
                let (catalog, query) = spec.build();
                assert_matches_oracle(&spec.label(), &catalog, &query, &OptimizerConfig::default());
            }
        }
    }
}
