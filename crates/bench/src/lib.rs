//! Shared harness for the experiment binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (`table1` → Table 1, `figure4` → Figure 4 and the §5 shape
//! analysis, `ablation_naive`/`ablation_pruning` → sampler and pruning
//! ablations); `docs/EXPERIMENTS.md` records their measured outcomes
//! against the paper's claims. Performance is not measured here: the
//! tracked benchmark is `crates/benchmark`, and the engineering
//! contracts of `docs/DESIGN.md` are asserted by
//! `tests/perf_contracts.rs`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use plansample::PreparedQuery;
use plansample_catalog::Catalog;
use plansample_optimizer::OptimizerConfig;
use plansample_query::QuerySpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A labelled [`PreparedQuery`]: one optimization pass, reused by every
/// measurement. Dereferences to the artifact, so all of its counting /
/// enumerating / sampling surface is available directly.
pub struct Prepared {
    /// Query label (`"Q5"` …).
    pub name: &'static str,
    prepared: PreparedQuery,
}

impl std::ops::Deref for Prepared {
    type Target = PreparedQuery;

    fn deref(&self) -> &PreparedQuery {
        &self.prepared
    }
}

/// The seed used by all reported experiments (so printed numbers are
/// reproducible run-to-run).
pub const EXPERIMENT_SEED: u64 = 20000; // SIGMOD 2000

/// Optimizes one TPC-H query under the given cross-product policy.
pub fn prepare(
    catalog: &Catalog,
    name: &'static str,
    query: QuerySpec,
    cross_products: bool,
) -> Prepared {
    let config = if cross_products {
        OptimizerConfig::with_cross_products()
    } else {
        OptimizerConfig::default()
    };
    let prepared =
        PreparedQuery::prepare(catalog, &query, &config).expect("TPC-H queries optimize");
    Prepared { name, prepared }
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
/// optimum (cost 1.0 = the optimizer's plan), as in §5. One batched
/// draw over the already-prepared artifact.
pub fn sample_scaled_costs(prepared: &Prepared, k: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    prepared
        .sample_batch(&mut rng, k)
        .iter()
        .map(|plan| prepared.scaled_cost(plan))
        .collect()
}

/// Formats a scaled-cost value the way Table 1 prints them (two decimal
/// places below 100, scientific above).
pub fn fmt_cost(v: f64) -> String {
    if v < 100.0 {
        format!("{v:.2}")
    } else if v < 1e6 {
        format!("{v:.0}")
    } else {
        format!("{v:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plansample_catalog::tpch;

    #[test]
    fn prepare_and_sample_q5() {
        let (catalog, _) = tpch::catalog();
        let q = plansample_query::tpch::q5(&catalog);
        let p = prepare(&catalog, "Q5", q, false);
        let costs = sample_scaled_costs(&p, 50, 1);
        assert_eq!(costs.len(), 50);
        // every scaled cost is at least 1 (nothing beats the optimum)
        assert!(costs.iter().all(|&c| c >= 1.0 - 1e-9));
        // and the space contains expensive plans
        assert!(costs.iter().any(|&c| c > 2.0));
    }

    #[test]
    fn fmt_cost_bands() {
        assert_eq!(fmt_cost(1.14), "1.14");
        assert_eq!(fmt_cost(17098.0), "17098");
        assert_eq!(fmt_cost(4.0e9), "4.000e9");
    }

    #[test]
    fn sampling_is_seed_reproducible() {
        let (catalog, _) = tpch::catalog();
        let q = plansample_query::tpch::q7(&catalog);
        let p = prepare(&catalog, "Q7", q, false);
        assert_eq!(
            sample_scaled_costs(&p, 20, 5),
            sample_scaled_costs(&p, 20, 5)
        );
    }

    #[test]
    fn measurements_reuse_one_artifact() {
        let (catalog, _) = tpch::catalog();
        let q = plansample_query::tpch::q7(&catalog);
        let before = plansample_optimizer::thread_optimizations_performed();
        let p = prepare(&catalog, "Q7", q, false);
        sample_scaled_costs(&p, 100, 5);
        let _ = p.enumerate_from(plansample_bignum::Nat::from(10u64)).next();
        assert_eq!(
            plansample_optimizer::thread_optimizations_performed() - before,
            1
        );
    }
}
