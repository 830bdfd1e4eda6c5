//! A prepare scans its memo once: `PreparedQuery::prepare` packs its
//! links from the scan the optimizer's best-plan extraction made, where
//! `PlanSpace::build_shared` scans the memo itself. The two must build
//! the same thing — every link and count table equal, and the best plan
//! and its cost what `best_plan(compute_totals(..))` extracts, bit for
//! bit — on the TPC-H spaces and on random connected join graphs. This is
//! what keeps the shared scan from diverging silently.

use plansample::{PlanSpace, PreparedQuery};
use plansample_catalog::Catalog;
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_optimizer::{best_plan, compute_totals, OptimizerConfig};
use plansample_query::QuerySpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn assert_prepare_builds_the_standalone_space(
    label: &str,
    catalog: &Catalog,
    query: &QuerySpec,
    config: &OptimizerConfig,
) {
    let prepared =
        PreparedQuery::prepare(catalog, query, config).unwrap_or_else(|e| panic!("{label}: {e}"));
    let memo = prepared.memo().clone();
    let standalone = PlanSpace::build_shared(Arc::new(memo.clone()), Arc::new(query.clone()))
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let space = prepared.space();
    assert_eq!(
        space.links().to_parts(),
        standalone.links().to_parts(),
        "{label}: link tables"
    );
    assert_eq!(
        space.counts().to_parts(),
        standalone.counts().to_parts(),
        "{label}: count tables"
    );

    let totals = compute_totals(&memo, query);
    let (plan, cost) = best_plan(&memo, &totals).expect("optimize found a plan");
    let (prepared_plan, prepared_cost) = prepared.best();
    assert_eq!(*prepared_plan, plan, "{label}: best plan");
    assert_eq!(
        prepared_cost.to_bits(),
        cost.to_bits(),
        "{label}: best cost"
    );
}

#[test]
fn prepare_builds_the_standalone_space_on_tpch() {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    use plansample_query::tpch::{q10, q5, q8};
    let plain = OptimizerConfig::default();
    let cp = OptimizerConfig::with_cross_products();
    for (label, query, config) in [
        ("Q5", q5(&catalog), &plain),
        ("Q8", q8(&catalog), &plain),
        ("Q8+CP", q8(&catalog), &cp),
        ("Q10", q10(&catalog), &plain),
    ] {
        assert_prepare_builds_the_standalone_space(label, &catalog, &query, config);
    }
}

/// Sixteen connected join graphs — every topology is connected — of 3–6
/// relations, topology, size and statistics seed drawn at random.
#[test]
fn prepare_builds_the_standalone_space_on_random_join_graphs() {
    let mut rng = StdRng::seed_from_u64(26);
    for _ in 0..16 {
        let topology = Topology::ALL[rng.gen_range(0..Topology::ALL.len())];
        let spec = JoinGraphSpec::new(topology, rng.gen_range(3..=6), rng.gen());
        let (catalog, query) = spec.build();
        let config = OptimizerConfig::default();
        assert_prepare_builds_the_standalone_space(&spec.label(), &catalog, &query, &config);
    }
}
