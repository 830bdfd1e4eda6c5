//! Every memo the optimizer builds has the shape `Memo::from_parts`
//! holds a stored memo to — every scan in its own relation's group,
//! every join splitting its group's relation set between two non-empty
//! inputs, every aggregate in the aggregate group over a relation
//! group — so the check refuses no artifact a prepare saves. Checked
//! the way a load meets it, by encode → decode: over every TPC-H query
//! the catalog defines (Q3, Q5–Q10) and random join graphs, each with
//! and without cross products, and over the memos cost-bound pruning
//! (`prune`) leaves of them.

use plansample::{PlanSpace, PreparedQuery};
use plansample_artifact::{decode, encode};
use plansample_catalog::Catalog;
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_optimizer::{best_plan, compute_totals, prune, OptimizerConfig};
use plansample_query::QuerySpec;
use proptest::prelude::*;
use std::sync::Arc;

/// The two configurations every query is prepared under.
fn configs() -> [(&'static str, OptimizerConfig); 2] {
    [
        ("", OptimizerConfig::default()),
        ("+CP", OptimizerConfig::with_cross_products()),
    ]
}

/// `prepared` survives encode → decode — its memo passes
/// `Memo::from_parts` — as the same space.
fn assert_loads(prepared: &PreparedQuery, label: &str) {
    let loaded = decode(&encode(prepared)).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(loaded.total(), prepared.total(), "{label}");
    assert_eq!(
        loaded.memo().num_physical(),
        prepared.memo().num_physical(),
        "{label}"
    );
}

/// `query` prepared under `config`, then its memo pruned at a few
/// factors, each pruned memo prepared with its own best plan: all load.
fn assert_prepared_and_pruned_load(
    catalog: &Catalog,
    query: &QuerySpec,
    config: &OptimizerConfig,
    label: &str,
) {
    let prepared = PreparedQuery::prepare(catalog, query, config).expect(label);
    assert_loads(&prepared, label);
    for factor in [1.0, 2.0] {
        let pruned = prune(prepared.memo(), query, factor);
        let totals = compute_totals(&pruned, query);
        let (best, cost) = best_plan(&pruned, &totals).expect("pruning keeps the optimum");
        let space = PlanSpace::build_shared(Arc::new(pruned), Arc::new(query.clone()))
            .expect("a pruned optimizer memo builds");
        let pruned = PreparedQuery::from_parts(space, best, cost, config.clone())
            .expect("its own best plan");
        assert_loads(&pruned, &format!("{label} pruned at {factor}"));
    }
}

#[test]
fn tpch_memos_load_with_and_without_cross_products() {
    use plansample_query::tpch::{q10, q3, q5, q6, q7, q8, q9};
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let queries = [
        ("Q3", q3(&catalog)),
        ("Q5", q5(&catalog)),
        ("Q6", q6(&catalog)),
        ("Q7", q7(&catalog)),
        ("Q8", q8(&catalog)),
        ("Q9", q9(&catalog)),
        ("Q10", q10(&catalog)),
    ];
    for (name, query) in &queries {
        for (suffix, config) in configs() {
            let label = format!("{name}{suffix}");
            assert_prepared_and_pruned_load(&catalog, query, &config, &label);
        }
    }
}

/// Every topology at 2–6 relations (a cycle needs three), with or
/// without cross products.
fn arb_spec() -> impl Strategy<Value = (JoinGraphSpec, bool)> {
    (0usize..4, 2usize..=6, 0u64..1_000_000, 0u8..2).prop_map(|(t, n, seed, cross)| {
        let topology = Topology::ALL[t];
        let n = n.max(if topology == Topology::Cycle { 3 } else { 2 });
        (JoinGraphSpec::new(topology, n, seed), cross == 1)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_join_graph_memos_load((spec, cross) in arb_spec()) {
        let (catalog, query) = spec.build();
        let [(_, plain), (suffix, with_cp)] = configs();
        let (config, suffix) = if cross { (with_cp, suffix) } else { (plain, "") };
        let label = format!("{}{suffix}", spec.label());
        assert_prepared_and_pruned_load(&catalog, &query, &config, &label);
    }
}
