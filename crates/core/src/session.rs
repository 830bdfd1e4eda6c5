//! The `OPTION (USEPLAN n)` workflow as a library API (§4).
//!
//! A [`Session`] bundles a catalog, a database, and an optimizer
//! configuration. [`Session::prepare`] runs the optimizer *once* and
//! returns an owned [`PreparedQuery`] artifact; every subsequent count,
//! sample, page, or `USEPLAN` execution
//! ([`Session::execute_prepared`]) reuses it. Hold the artifact (or a
//! [`crate::service::PlanService`]) for as long as the query is served.

use crate::lower::lower;
use crate::{Error, PreparedQuery};
use plansample_bignum::Nat;
use plansample_catalog::Catalog;
use plansample_exec::{Database, Table};
use plansample_memo::PlanNode;
use plansample_optimizer::OptimizerConfig;
use plansample_query::QuerySpec;

/// Result of executing a query through a session.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The result rows.
    pub table: Table,
    /// Which plan ran: `None` = the optimizer's choice, `Some(rank)` =
    /// `USEPLAN rank`.
    pub rank: Option<Nat>,
    /// Total number of plans in the query's space.
    pub space_size: Nat,
    /// The executed plan's total cost.
    pub plan_cost: f64,
    /// Cost scaled so the optimizer's plan is 1.0 (the paper's unit).
    pub scaled_cost: f64,
    /// Rendered plan tree for display.
    pub plan_text: String,
}

/// A query-processing session: catalog + data + optimizer settings.
#[derive(Debug)]
pub struct Session {
    catalog: Catalog,
    db: Database,
    config: OptimizerConfig,
}

impl Session {
    /// Creates a session with default optimizer settings.
    pub fn new(catalog: Catalog, db: Database) -> Self {
        Session::with_config(catalog, db, OptimizerConfig::default())
    }

    /// Creates a session with explicit optimizer settings.
    pub fn with_config(catalog: Catalog, db: Database, config: OptimizerConfig) -> Self {
        Session {
            catalog,
            db,
            config,
        }
    }

    /// The session's catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The session's database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The session's optimizer configuration.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Optimizes `query` once and returns the owned, shareable artifact
    /// exposing the full counting/enumerating/sampling surface — the
    /// expensive step, paid exactly once per query.
    ///
    /// ```
    /// use plansample::session::Session;
    /// use plansample_bignum::Nat;
    /// use plansample_datagen::MicroScale;
    ///
    /// let (catalog, tables) = plansample_catalog::tpch::catalog();
    /// let db = plansample_datagen::generate(&catalog, &tables, &MicroScale::tiny(), 11);
    /// let session = Session::new(catalog, db);
    ///
    /// let query = plansample_query::tpch::q6(session.catalog());
    /// let prepared = session.prepare(&query).unwrap();
    /// // Count, page, and execute — all against the one memo:
    /// assert!(!prepared.total().is_zero());
    /// let out = session.execute_prepared(&prepared, Some(&Nat::zero())).unwrap();
    /// assert_eq!(out.rank, Some(Nat::zero()));
    /// ```
    pub fn prepare(&self, query: &QuerySpec) -> Result<PreparedQuery, Error> {
        PreparedQuery::prepare(&self.catalog, query, &self.config)
    }

    /// Executes against an already prepared query: the optimizer's plan
    /// when `rank` is `None`, otherwise `OPTION (USEPLAN rank)`. Never
    /// re-optimizes.
    ///
    /// The artifact must have been prepared against this session's
    /// catalog (or an identical clone of it — e.g. a
    /// [`crate::service::PlanService`] sharing the same source): plan
    /// lowering resolves the artifact's table ids and column offsets
    /// through the *session's* catalog, so a mismatched catalog would
    /// produce wrong results.
    ///
    /// # Panics
    /// Panics when the artifact structurally cannot belong to this
    /// catalog (a referenced table id is out of range). Catalogs of
    /// matching shape but different contents are not detectable and
    /// remain the caller's contract.
    pub fn execute_prepared(
        &self,
        prepared: &PreparedQuery,
        rank: Option<&Nat>,
    ) -> Result<QueryOutcome, Error> {
        for rel in &prepared.query().relations {
            assert!(
                (rel.table.0 as usize) < self.catalog.len(),
                "prepared query references table id {} outside this session's {}-table \
                 catalog — was it prepared against a different catalog?",
                rel.table.0,
                self.catalog.len()
            );
        }
        let (plan, rank) = match rank {
            Some(rank) => (prepared.unrank(rank)?, Some(rank.clone())),
            None => (prepared.best().0.clone(), None),
        };
        self.run_plan(prepared, &plan, rank)
    }

    fn run_plan(
        &self,
        prepared: &PreparedQuery,
        plan: &PlanNode,
        rank: Option<Nat>,
    ) -> Result<QueryOutcome, Error> {
        let exec = lower(prepared.memo(), prepared.query(), &self.catalog, plan);
        let table = exec.execute(&self.db)?;
        Ok(QueryOutcome {
            table,
            rank,
            space_size: prepared.total().clone(),
            plan_cost: plan.total_cost(prepared.memo()),
            scaled_cost: prepared.scaled_cost(plan),
            plan_text: plan.render(prepared.memo()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpaceError;
    use plansample_catalog::tpch;
    use plansample_datagen::MicroScale;

    fn session() -> Session {
        let (catalog, tables) = tpch::catalog();
        let db = plansample_datagen::generate(&catalog, &tables, &MicroScale::tiny(), 11);
        Session::new(catalog, db)
    }

    #[test]
    fn optimizer_plan_executes_q5() {
        let s = session();
        let q = plansample_query::tpch::q5(s.catalog());
        let out = s.execute_prepared(&s.prepare(&q).unwrap(), None).unwrap();
        assert!(out.rank.is_none());
        assert!(
            (out.scaled_cost - 1.0).abs() < 1e-9,
            "optimizer plan is the 1.0 reference"
        );
        assert!(out.plan_text.contains("Agg"));
        assert!(out.space_size.to_f64() > 1e6);
    }

    #[test]
    fn useplan_reproduces_specific_plans() {
        let s = session();
        let q = plansample_query::tpch::q5(s.catalog());
        let prepared = s.prepare(&q).unwrap();
        let reference = s.execute_prepared(&prepared, None).unwrap();
        for rank in [0u64, 8, 12345] {
            let out = s
                .execute_prepared(&prepared, Some(&Nat::from(rank)))
                .unwrap();
            assert_eq!(out.rank, Some(Nat::from(rank)));
            assert!(
                out.table.multiset_eq(&reference.table),
                "USEPLAN {rank} must agree with the optimizer's plan"
            );
            assert!(out.scaled_cost >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn prepared_session_flow_optimizes_once() {
        let s = session();
        let q = plansample_query::tpch::q6(s.catalog());
        let before = plansample_optimizer::thread_optimizations_performed();
        let prepared = s.prepare(&q).unwrap();
        let n = prepared.total().to_u64().unwrap();
        for rank in 0..n.min(4) {
            s.execute_prepared(&prepared, Some(&Nat::from(rank)))
                .unwrap();
        }
        s.execute_prepared(&prepared, None).unwrap();
        assert_eq!(
            plansample_optimizer::thread_optimizations_performed() - before,
            1,
            "prepare once, serve many"
        );
    }

    #[test]
    fn useplan_out_of_range_is_an_error() {
        let s = session();
        let q = plansample_query::tpch::q6(s.catalog());
        let prepared = s.prepare(&q).unwrap();
        let n = prepared.total().clone();
        // Q6: lineitem scan (2 alternatives incl. sorts etc.) + agg pair.
        assert!(n.to_u64().unwrap() >= 4);
        assert!(matches!(
            s.execute_prepared(&prepared, Some(&n)),
            Err(Error::Space(SpaceError::RankOutOfRange { .. }))
        ));
        let mut last = n;
        last.decr();
        assert!(s.execute_prepared(&prepared, Some(&last)).is_ok());
    }
}
