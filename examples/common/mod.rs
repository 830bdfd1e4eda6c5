//! What the experiment examples (`table1`, `figure4`,
//! `ablation_naive`, `ablation_pruning`) share: the pinned seed, the
//! paper's four join queries, and one costed draw per experiment row.
//! `docs/EXPERIMENTS.md` records their measured outcomes against the
//! paper's claims; performance is measured by the tracked benchmark
//! (`crates/benchmark`), not here.

#![allow(dead_code)] // each example uses a different subset

use plansample::{PlanBatch, PreparedQuery};
use plansample_catalog::Catalog;
use plansample_optimizer::OptimizerConfig;
use plansample_query::QuerySpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The seed used by all reported experiments (so printed numbers are
/// reproducible run-to-run).
pub const EXPERIMENT_SEED: u64 = 20000; // SIGMOD 2000

/// Optimizes one TPC-H query under the given cross-product policy.
pub fn prepare(catalog: &Catalog, query: &QuerySpec, cross_products: bool) -> PreparedQuery {
    let config = if cross_products {
        OptimizerConfig::with_cross_products()
    } else {
        OptimizerConfig::default()
    };
    PreparedQuery::prepare(catalog, query, &config).expect("TPC-H queries optimize")
}

/// The paper's four join-intensive queries (Table 1 rows), in order.
pub fn join_queries(catalog: &Catalog) -> Vec<(&'static str, QuerySpec)> {
    use plansample_query::tpch;
    vec![
        ("Q5", tpch::q5(catalog)),
        ("Q7", tpch::q7(catalog)),
        ("Q8", tpch::q8(catalog)),
        ("Q9", tpch::q9(catalog)),
    ]
}

/// Draws `k` uniform plans and returns their costs scaled to the
/// optimum (cost 1.0 = the optimizer's plan), as in §5: one costed fill,
/// which draws the plans `sample_batch` would and costs each in the
/// walk that lists it, bit-identically to its tree.
pub fn sample_scaled_costs(prepared: &PreparedQuery, k: usize, seed: u64) -> Vec<f64> {
    let mut batch = PlanBatch::new();
    prepared.sample_batch_scaled(&mut StdRng::seed_from_u64(seed), k, &mut batch);
    batch.costs().to_vec()
}
