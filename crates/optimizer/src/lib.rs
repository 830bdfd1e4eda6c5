//! A Cascades-style cost-based query optimizer that *keeps every
//! alternative it generates*.
//!
//! This crate is the substrate the paper's technique operates on: it
//! populates a [`plansample_memo::Memo`] with all logical join orders
//! (exploration), derives costed physical operators for each
//! (implementation rules), adds `Sort` property enforcers, and extracts
//! the cost-optimal plan. Unlike a production optimizer it performs no
//! search-time pruning by default — the paper notes (§2 end) that "for
//! our technique to be most effective, it is useful to have the optimizer
//! keep each alternative generated, so they can be freely used,
//! regardless of their cost". Cost-bound pruning is available separately
//! ([`prune`]) for the ablation experiment.
//!
//! ```
//! use plansample_catalog::tpch;
//! use plansample_optimizer::{optimize, OptimizerConfig};
//!
//! let (catalog, _tables) = tpch::catalog();
//! let query = plansample_query::tpch::q5(&catalog);
//! let optimized = optimize(&catalog, &query, &OptimizerConfig::default()).unwrap();
//! assert!(optimized.best_cost > 0.0);
//! assert!(optimized.memo.num_physical() > 100);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod best;
mod cost;
mod explore;
mod implement;

pub use best::{best_plan, compute_totals, prune, Totals};
pub use cost::CostModel;
pub use explore::{explore_bottom_up, explore_transform};
pub use implement::{add_enforcers, implement_all};

use plansample_catalog::Catalog;
use plansample_memo::{Links, Memo, PlanNode};
use plansample_query::QuerySpec;
use std::fmt;

std::thread_local! {
    /// Per-thread count of completed [`optimize`] runs.
    static THREAD_OPTIMIZATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of full [`optimize`] runs performed by the *calling thread* —
/// per thread so that test assertions are race-free. Tests and benches take
/// the delta around a code region to prove that prepared artifacts
/// (`plansample::PreparedQuery`) serve counts, pages, and samples with
/// **zero** re-optimizations, without interference from other test
/// threads optimizing concurrently in the same process.
pub fn thread_optimizations_performed() -> u64 {
    THREAD_OPTIMIZATIONS.with(|c| c.get())
}

/// Optimizer configuration.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Admit joins without connecting predicates. Table 1 of the paper
    /// reports both modes.
    pub allow_cross_products: bool,
    /// Generate sort-merge join alternatives.
    pub enable_merge_joins: bool,
    /// Generate ordered index-scan alternatives.
    pub enable_index_scans: bool,
    /// Generate `Sort` enforcers (disabling them removes merge-join
    /// feasibility wherever no index provides the order).
    pub enable_enforcers: bool,
    /// Cost model constants.
    pub cost_model: CostModel,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            allow_cross_products: false,
            enable_merge_joins: true,
            enable_index_scans: true,
            enable_enforcers: true,
            cost_model: CostModel::default(),
        }
    }
}

impl OptimizerConfig {
    /// The paper's Table 1 "including Cartesian products" configuration.
    pub fn with_cross_products() -> Self {
        OptimizerConfig {
            allow_cross_products: true,
            ..Default::default()
        }
    }
}

/// Errors from [`optimize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptError {
    /// The join graph is disconnected and cross products are disabled:
    /// no complete plan exists under the configuration.
    DisconnectedQuery,
    /// Exhaustive subset enumeration above this size is intractable.
    TooManyRelations {
        /// Relations in the query.
        got: usize,
        /// Hard limit.
        limit: usize,
    },
    /// No finite-cost plan could be extracted (internal invariant —
    /// indicates an inconsistent memo).
    NoPlanFound,
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::DisconnectedQuery => write!(
                f,
                "join graph is disconnected; enable cross products to optimize this query"
            ),
            OptError::TooManyRelations { got, limit } => {
                write!(
                    f,
                    "{got} relations exceed the exhaustive-enumeration limit of {limit}"
                )
            }
            OptError::NoPlanFound => write!(f, "no complete finite-cost plan in the memo"),
        }
    }
}

impl std::error::Error for OptError {}

/// Maximum relations [`optimize`] takes. With cross products,
/// exploration enumerates 2^n subsets and 3^n splits; without, it grows
/// only connected sets, but a dense join graph's memo still grows as
/// 3^n, so the limit holds for both.
pub const MAX_RELATIONS: usize = 16;

/// The result of optimization: the fully populated memo plus the
/// cost-optimal plan (the paper's cost-1.0 reference point).
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The memo holding the complete space of alternatives.
    pub memo: Memo,
    /// The cost-optimal plan.
    pub best_plan: PlanNode,
    /// Its total cost.
    pub best_cost: f64,
}

/// Runs the full pipeline: explore → implement → enforcers → cost →
/// best-plan extraction.
pub fn optimize(
    catalog: &Catalog,
    query: &QuerySpec,
    config: &OptimizerConfig,
) -> Result<Optimized, OptError> {
    optimize_with_links(catalog, query, config).map(|(optimized, _)| optimized)
}

/// [`optimize`], also returning the links its best-plan extraction built
/// of the returned memo — what a prepare keeps, so it scans the memo
/// once.
pub fn optimize_with_links(
    catalog: &Catalog,
    query: &QuerySpec,
    config: &OptimizerConfig,
) -> Result<(Optimized, Links), OptError> {
    let n = query.relations.len();
    if n > MAX_RELATIONS {
        return Err(OptError::TooManyRelations {
            got: n,
            limit: MAX_RELATIONS,
        });
    }
    let memo = populate(catalog, query, config)?;
    let totals = compute_totals(&memo, query);
    let (best_plan, best_cost) = best_plan(&memo, &totals).ok_or(OptError::NoPlanFound)?;
    // Counted only on success, so the counter reports *completed*
    // optimizations as documented.
    THREAD_OPTIMIZATIONS.with(|c| c.set(c.get() + 1));
    let optimized = Optimized {
        memo,
        best_plan,
        best_cost,
    };
    Ok((optimized, totals.links))
}

/// The memo half of [`optimize`]: explore → implement → enforcers, with
/// no best-plan extraction and no relation limit (the synthetic
/// join-graph spaces past [`MAX_RELATIONS`] are built here too).
pub fn populate(
    catalog: &Catalog,
    query: &QuerySpec,
    config: &OptimizerConfig,
) -> Result<Memo, OptError> {
    if !config.allow_cross_products && !query.connected(query.all_rels()) {
        return Err(OptError::DisconnectedQuery);
    }

    let mut memo = Memo::new();
    explore_bottom_up(query, config.allow_cross_products, &mut memo)?;
    implement_all(
        query,
        catalog,
        &config.cost_model,
        config.enable_merge_joins,
        config.enable_index_scans,
        &mut memo,
    );
    if config.enable_enforcers {
        add_enforcers(query, catalog, &config.cost_model, &mut memo);
    }

    // The memo is now read-only for the rest of its life (it backs the
    // prepared-query serving surface): release the growth slack so the
    // resident footprint — and the byte-budget charge — is the true size.
    memo.shrink_to_fit();
    Ok(memo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use plansample_catalog::{table, tpch, ColType};
    use plansample_memo::validate_plan;
    use plansample_query::QueryBuilder;

    #[test]
    fn optimizes_tpch_q5() {
        let (cat, _) = tpch::catalog();
        let q = plansample_query::tpch::q5(&cat);
        let opt = optimize(&cat, &q, &OptimizerConfig::default()).unwrap();
        assert!(validate_plan(&opt.memo, &q, &opt.best_plan).is_empty());
        assert!(opt.best_cost.is_finite() && opt.best_cost > 0.0);
        // 6-way join: a non-trivial space.
        assert!(opt.memo.num_physical() > 50, "{}", opt.memo.num_physical());
    }

    #[test]
    fn cross_products_enlarge_the_memo() {
        let (cat, _) = tpch::catalog();
        let q = plansample_query::tpch::q5(&cat);
        let no_cp = optimize(&cat, &q, &OptimizerConfig::default()).unwrap();
        let cp = optimize(&cat, &q, &OptimizerConfig::with_cross_products()).unwrap();
        assert!(cp.memo.num_physical() > no_cp.memo.num_physical());
        // The optimum never uses a cross product here, so it is unchanged.
        assert!((cp.best_cost - no_cp.best_cost).abs() < 1e-6 * no_cp.best_cost);
    }

    #[test]
    fn failed_optimizations_are_not_counted() {
        let mut cat = plansample_catalog::Catalog::new();
        cat.add_table(table("a", 10).col("x", ColType::Int, 10).build())
            .unwrap();
        cat.add_table(table("b", 10).col("y", ColType::Int, 10).build())
            .unwrap();
        let mut qb = QueryBuilder::new(&cat);
        qb.rel("a", None).unwrap();
        qb.rel("b", None).unwrap();
        let q = qb.build().unwrap();

        let before = thread_optimizations_performed();
        assert!(optimize(&cat, &q, &OptimizerConfig::default()).is_err());
        assert_eq!(
            thread_optimizations_performed(),
            before,
            "failed runs must not count as completed optimizations"
        );
        assert!(optimize(&cat, &q, &OptimizerConfig::with_cross_products()).is_ok());
        assert_eq!(thread_optimizations_performed(), before + 1);
    }

    #[test]
    fn disconnected_query_needs_cross_products() {
        let mut cat = plansample_catalog::Catalog::new();
        cat.add_table(table("a", 10).col("x", ColType::Int, 10).build())
            .unwrap();
        cat.add_table(table("b", 10).col("y", ColType::Int, 10).build())
            .unwrap();
        let mut qb = QueryBuilder::new(&cat);
        qb.rel("a", None).unwrap();
        qb.rel("b", None).unwrap();
        let q = qb.build().unwrap();
        assert_eq!(
            optimize(&cat, &q, &OptimizerConfig::default()).unwrap_err(),
            OptError::DisconnectedQuery
        );
        let opt = optimize(&cat, &q, &OptimizerConfig::with_cross_products()).unwrap();
        assert!(validate_plan(&opt.memo, &q, &opt.best_plan).is_empty());
    }

    #[test]
    fn relation_limit_enforced() {
        let mut cat = plansample_catalog::Catalog::new();
        for i in 0..(MAX_RELATIONS + 1) {
            cat.add_table(
                table(&format!("t{i}"), 10)
                    .col("k", ColType::Int, 10)
                    .build(),
            )
            .unwrap();
        }
        let mut qb = QueryBuilder::new(&cat);
        for i in 0..(MAX_RELATIONS + 1) {
            qb.rel(&format!("t{i}"), None).unwrap();
        }
        for i in 0..MAX_RELATIONS {
            qb.join((&format!("t{i}"), "k"), (&format!("t{}", i + 1), "k"))
                .unwrap();
        }
        let q = qb.build().unwrap();
        assert!(matches!(
            optimize(&cat, &q, &OptimizerConfig::default()),
            Err(OptError::TooManyRelations { .. })
        ));
    }

    #[test]
    fn transform_explorer_finds_same_optimum_on_chain() {
        let mut cat = plansample_catalog::Catalog::new();
        for i in 0..4 {
            cat.add_table(
                table(&format!("t{i}"), 100 * (i as u64 + 1))
                    .col("k", ColType::Int, 50)
                    .col("fk", ColType::Int, 50)
                    .build(),
            )
            .unwrap();
        }
        let mut qb = QueryBuilder::new(&cat);
        for i in 0..4 {
            qb.rel(&format!("t{i}"), None).unwrap();
        }
        for i in 0..3 {
            qb.join((&format!("t{i}"), "fk"), (&format!("t{}", i + 1), "k"))
                .unwrap();
        }
        let q = qb.build().unwrap();

        let bu = optimize(&cat, &q, &OptimizerConfig::default()).unwrap();
        // The pipeline's steps, with the transformation explorer.
        let mut memo = Memo::new();
        explore_transform(&q, false, &mut memo).unwrap();
        let cost = CostModel::default();
        implement_all(&q, &cat, &cost, true, true, &mut memo);
        add_enforcers(&q, &cat, &cost, &mut memo);
        let totals = compute_totals(&memo, &q);
        let (_, tr_cost) = best_plan(&memo, &totals).unwrap();
        assert!((bu.best_cost - tr_cost).abs() < 1e-9);
        assert_eq!(bu.memo.num_physical(), memo.num_physical());
    }

    #[test]
    fn best_plan_root_is_aggregate_for_q5() {
        let (cat, _) = tpch::catalog();
        let q = plansample_query::tpch::q5(&cat);
        let opt = optimize(&cat, &q, &OptimizerConfig::default()).unwrap();
        let root_expr = opt.memo.phys(opt.best_plan.id);
        assert!(matches!(
            root_expr.op,
            plansample_memo::PhysicalOp::HashAgg { .. }
                | plansample_memo::PhysicalOp::StreamAgg { .. }
        ));
    }
}
