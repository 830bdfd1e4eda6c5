//! §4 — Verifying query processors by differential plan execution.
//!
//! "The results are simple to verify since all plans should deliver the
//! same outcome." Given a plan space and a database, these routines
//! execute many plans of the same query — exhaustively for small spaces,
//! by uniform sampling for large ones — and compare every result against
//! a reference plan's result as a row multiset. Any mismatch pinpoints
//! the plan *number*, so the failing plan can be reproduced exactly with
//! `OPTION (USEPLAN n)` (see [`crate::session`]).

use crate::{lower::lower, Error, PlanSpace};
use plansample_bignum::Nat;
use plansample_catalog::Catalog;
use plansample_exec::{Database, SortedRows, Table};
use plansample_memo::{validate_plan, PlanViolation};
use rand::Rng;
use std::fmt;

/// One divergent plan.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// The plan's number (reproduce with `USEPLAN <rank>`).
    pub rank: Nat,
    /// Rows the reference produced.
    pub expected_rows: usize,
    /// Rows this plan produced.
    pub actual_rows: usize,
    /// Structural violations, if any (a structurally invalid plan means
    /// the *optimizer* considered an invalid alternative; a structurally
    /// valid one with different results means the *executor* is faulty —
    /// the paper's two failure classes).
    pub violations: Vec<PlanViolation>,
}

/// Outcome of a differential validation run.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Size of the full space.
    pub space_size: Nat,
    /// Plans actually executed.
    pub plans_checked: usize,
    /// Rows in the reference result.
    pub reference_rows: usize,
    /// Divergent plans (empty on success).
    pub mismatches: Vec<Mismatch>,
}

impl ValidationReport {
    /// `true` when every checked plan agreed with the reference.
    pub fn all_passed(&self) -> bool {
        self.mismatches.is_empty()
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "checked {} of {} plans against a {}-row reference: {}",
            self.plans_checked,
            self.space_size,
            self.reference_rows,
            if self.all_passed() {
                "all agree".to_string()
            } else {
                format!("{} MISMATCHES", self.mismatches.len())
            }
        )
    }
}

impl PlanSpace {
    /// Executes plan number `rank` against `db`.
    pub fn execute_rank(
        &self,
        catalog: &Catalog,
        db: &Database,
        rank: &Nat,
    ) -> Result<Table, Error> {
        let plan = self.unrank(rank)?;
        let exec = lower(&self.memo, &self.query, catalog, &plan);
        Ok(exec.execute(db)?)
    }

    /// Exhaustive differential validation: executes every plan (up to
    /// `limit`) and compares against plan 0's result.
    pub fn validate_exhaustive(
        &self,
        catalog: &Catalog,
        db: &Database,
        limit: usize,
    ) -> Result<ValidationReport, Error> {
        let reference = self.execute_rank(catalog, db, &Nat::zero())?;
        let mut report = ValidationReport {
            space_size: self.total().clone(),
            plans_checked: 0,
            reference_rows: reference.len(),
            mismatches: Vec::new(),
        };
        let reference = reference.sorted();
        let mut rank = Nat::zero();
        for plan in self.enumerate().take(limit) {
            self.check_one(catalog, db, &plan, &rank, &reference, &mut report)?;
            rank.incr();
        }
        Ok(report)
    }

    /// Sampled differential validation: `k` uniform plans against plan
    /// 0's result — the paper's mode for spaces too large to enumerate.
    pub fn validate_sampled<R: Rng + ?Sized>(
        &self,
        catalog: &Catalog,
        db: &Database,
        k: usize,
        rng: &mut R,
    ) -> Result<ValidationReport, Error> {
        let reference = self.execute_rank(catalog, db, &Nat::zero())?;
        let mut report = ValidationReport {
            space_size: self.total().clone(),
            plans_checked: 0,
            reference_rows: reference.len(),
            mismatches: Vec::new(),
        };
        let reference = reference.sorted();
        for _ in 0..k {
            let plan = self.sample(rng);
            let rank = self.rank(&plan)?;
            self.check_one(catalog, db, &plan, &rank, &reference, &mut report)?;
        }
        Ok(report)
    }

    fn check_one(
        &self,
        catalog: &Catalog,
        db: &Database,
        plan: &plansample_memo::PlanNode,
        rank: &Nat,
        reference: &SortedRows<'_>,
        report: &mut ValidationReport,
    ) -> Result<(), Error> {
        let exec = lower(&self.memo, &self.query, catalog, plan);
        let result = exec.execute(db)?;
        report.plans_checked += 1;
        if !reference.multiset_eq(&result) {
            report.mismatches.push(Mismatch {
                rank: rank.clone(),
                expected_rows: report.reference_rows,
                actual_rows: result.len(),
                violations: validate_plan(&self.memo, &self.query, plan),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;
    use crate::PlanSpace;
    use plansample_catalog::Datum::Int;
    use plansample_catalog::TableId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture_db() -> Database {
        let mut db = Database::new();
        // Deliberately stored out of key order: an operator that *claims*
        // a sort order it does not produce must be observably wrong.
        db.insert(
            TableId(0),
            Table::from_rows(1, vec![vec![Int(3)], vec![Int(1)], vec![Int(2)]]).unwrap(),
        );
        db.insert(
            TableId(1),
            Table::from_rows(
                2,
                vec![
                    vec![Int(2), Int(10)],
                    vec![Int(3), Int(10)],
                    vec![Int(3), Int(11)],
                ],
            )
            .unwrap(),
        );
        db.insert(
            TableId(2),
            Table::from_rows(1, vec![vec![Int(10)], vec![Int(11)]]).unwrap(),
        );
        db
    }

    #[test]
    fn exhaustive_validation_passes_on_the_fixture() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let db = fixture_db();
        let report = space
            .validate_exhaustive(&ex.catalog, &db, usize::MAX)
            .unwrap();
        assert!(report.all_passed(), "{report}");
        assert_eq!(report.plans_checked, 32);
        assert!(report.reference_rows > 0);
        assert!(report.to_string().contains("all agree"));
    }

    #[test]
    fn sampled_validation_passes_on_the_fixture() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let db = fixture_db();
        let mut rng = StdRng::seed_from_u64(3);
        let report = space
            .validate_sampled(&ex.catalog, &db, 64, &mut rng)
            .unwrap();
        assert!(report.all_passed(), "{report}");
        assert_eq!(report.plans_checked, 64);
    }

    #[test]
    fn limit_truncates_exhaustive_run() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let db = fixture_db();
        let report = space.validate_exhaustive(&ex.catalog, &db, 5).unwrap();
        assert_eq!(report.plans_checked, 5);
    }

    #[test]
    fn injected_optimizer_fault_is_detected() {
        // The paper's first failure class: "the optimizer considered an
        // invalid alternative". Delivered orders are derived from the
        // operator, so a memo whose *claimed* order lies is no longer
        // representable; the representable fault is an alternative that
        // computes the wrong thing. Inject a scan of relation C into
        // group A (same column count, different rows): every plan
        // choosing it produces divergent results, which differential
        // validation must catch and pin to a reproducible rank.
        let mut ex = paper_example::build();
        let rc = ex.query.join_edges[1].right.rel; // relation c
        ex.memo
            .add_physical(
                ex.group_a,
                plansample_memo::PhysicalExpr::new(
                    plansample_memo::PhysicalOp::TableScan { rel: rc },
                    100.0,
                    100.0,
                ),
            )
            .expect("distinct operator admitted");

        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let db = fixture_db();
        assert!(
            space.total().to_u64().unwrap() > 32,
            "the invalid alternative enlarges the space"
        );
        let report = space
            .validate_exhaustive(&ex.catalog, &db, usize::MAX)
            .unwrap();
        assert!(
            !report.all_passed(),
            "an invalid alternative must be caught by differential testing"
        );
        // The mismatching plans must be reproducible by rank.
        let first = &report.mismatches[0];
        let rerun = space.execute_rank(&ex.catalog, &db, &first.rank).unwrap();
        assert_eq!(rerun.len(), first.actual_rows);
    }
}
