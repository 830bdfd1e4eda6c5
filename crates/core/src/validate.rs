//! §4 — Verifying query processors by differential plan execution.
//!
//! "The results are simple to verify since all plans should deliver the
//! same outcome." Given a plan space and a database, these routines
//! execute many plans of the same query — exhaustively for small spaces,
//! by uniform sampling for large ones — and compare every result against
//! a reference plan's result as a row multiset. Any mismatch pinpoints
//! the plan *number*, so the failing plan can be reproduced exactly with
//! `OPTION (USEPLAN n)` — [`PlanSpace::execute`] of the unranked plan,
//! the one operation every routine here runs.

use crate::{lower::lower, Error, PlanSpace};
use plansample_bignum::Nat;
use plansample_catalog::Catalog;
use plansample_exec::{Database, Table};
use plansample_memo::{validate_plan, PlanNode, PlanViolation};
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
    /// Executes `plan`, a plan of this space, against `db` — the one
    /// place a plan runs. `OPTION (USEPLAN n)` is
    /// `space.execute(catalog, db, &space.unrank(&n)?)`; the optimizer's
    /// plan is `prepared.execute(catalog, db, prepared.best().0)`.
    ///
    /// `catalog` must be the one the space was built against (or an
    /// identical clone of it): lowering resolves the space's table ids
    /// and column offsets through it, so a mismatched catalog would
    /// produce wrong results.
    ///
    /// # Panics
    /// Panics when the space structurally cannot belong to `catalog` (a
    /// referenced table id is out of range). Catalogs of matching shape
    /// but different contents are not detectable and remain the
    /// caller's contract.
    pub fn execute(
        &self,
        catalog: &Catalog,
        db: &Database,
        plan: &PlanNode,
    ) -> Result<Table, Error> {
        for rel in &self.query.relations {
            assert!(
                (rel.table.0 as usize) < catalog.len(),
                "plan space references table id {} outside the given {}-table catalog — \
                 was it prepared against a different catalog?",
                rel.table.0,
                catalog.len()
            );
        }
        Ok(lower(&self.memo, &self.query, catalog, plan).execute(db)?)
    }

    /// Exhaustive differential validation: executes every plan (up to
    /// `limit`) and compares against plan 0's result.
    pub fn validate_exhaustive(
        &self,
        catalog: &Catalog,
        db: &Database,
        limit: usize,
    ) -> Result<ValidationReport, Error> {
        let mut rank = Nat::zero();
        let plans = self.enumerate().take(limit).map(|plan| {
            let this = rank.clone();
            rank.incr();
            Ok((plan, this))
        });
        self.validate(catalog, db, plans)
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
        let plans = (0..k).map(|_| {
            let plan = self.sample(rng);
            let rank = self.rank(&plan)?;
            Ok((plan, rank))
        });
        self.validate(catalog, db, plans)
    }

    /// Executes plan 0 as the reference, then every `(plan, rank)` of
    /// `plans` (drawn lazily, after the reference ran), recording each
    /// divergent one.
    fn validate(
        &self,
        catalog: &Catalog,
        db: &Database,
        plans: impl Iterator<Item = Result<(PlanNode, Nat), Error>>,
    ) -> Result<ValidationReport, Error> {
        let reference = self.execute(catalog, db, &self.unrank(&Nat::zero())?)?;
        let mut report = ValidationReport {
            space_size: self.total().clone(),
            plans_checked: 0,
            reference_rows: reference.len(),
            mismatches: Vec::new(),
        };
        let reference = reference.sorted();
        for item in plans {
            let (plan, rank) = item?;
            let result = self.execute(catalog, db, &plan)?;
            report.plans_checked += 1;
            if !reference.multiset_eq(&result) {
                report.mismatches.push(Mismatch {
                    rank,
                    expected_rows: report.reference_rows,
                    actual_rows: result.len(),
                    violations: validate_plan(&self.memo, &self.query, &plan),
                });
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;
    use crate::{PlanSpace, PreparedQuery};
    use plansample_catalog::Datum::Int;
    use plansample_catalog::TableId;
    use plansample_optimizer::OptimizerConfig;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

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

    /// The paper's first failure class: "the optimizer considered an
    /// invalid alternative". Delivered orders are derived from the
    /// operator, and every memo has an optimizer's shape, so neither a
    /// memo whose *claimed* order lies nor a scan in another relation's
    /// group is representable; the representable fault is an alternative
    /// that computes the wrong thing. This injects a merge join of A and
    /// B on `a.k = b.m`, which is not their predicate `a.k = b.k`, over B
    /// sorted on `b.m` by a Sort of its own: no `a.k` of the fixture
    /// equals a `b.m`, so every plan choosing the join produces divergent
    /// results.
    fn faulty_example() -> (Catalog, PlanSpace) {
        use plansample_memo::{PhysicalExpr, PhysicalOp, SortOrder};
        use plansample_query::{ColRef, RelId};
        let mut ex = paper_example::build();
        let a_k = ColRef {
            rel: RelId(0),
            col: 0,
        };
        let b_m = ColRef {
            rel: RelId(1),
            col: 1,
        };
        let target = SortOrder::on_col(b_m);
        let sort = PhysicalExpr::new(PhysicalOp::Sort { target }, 80.0, 200.0);
        ex.memo.add_physical(ex.group_b, sort).expect("a new Sort");
        let merge = PhysicalOp::MergeJoin {
            left: ex.group_a,
            right: ex.group_b,
            left_key: a_k,
            right_key: b_m,
        };
        let merge = PhysicalExpr::new(merge, 300.0, 200.0);
        ex.memo
            .add_physical(ex.group_ab, merge)
            .expect("a new merge join");
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        (ex.catalog, space)
    }

    #[test]
    fn injected_optimizer_fault_is_detected() {
        let (catalog, space) = faulty_example();
        let db = fixture_db();
        assert!(
            space.total().to_u64().unwrap() > 32,
            "the invalid alternative enlarges the space"
        );
        let report = space
            .validate_exhaustive(&catalog, &db, usize::MAX)
            .unwrap();
        assert!(
            !report.all_passed(),
            "an invalid alternative must be caught by differential testing"
        );
        // The mismatching plans must be reproducible by rank.
        let first = &report.mismatches[0];
        let plan = space.unrank(&first.rank).unwrap();
        let rerun = space.execute(&catalog, &db, &plan).unwrap();
        assert_eq!(rerun.len(), first.actual_rows);
    }

    /// A sampled run checks exactly the plans `sample` draws from the
    /// same RNG, in draw order, and draws nothing else.
    #[test]
    fn sampled_validation_checks_the_plans_sample_draws() {
        let (catalog, space) = faulty_example();
        let db = fixture_db();
        let mut rng = StdRng::seed_from_u64(9);
        let report = space.validate_sampled(&catalog, &db, 40, &mut rng).unwrap();

        let reference = space
            .execute(&catalog, &db, &space.unrank(&Nat::zero()).unwrap())
            .unwrap();
        let mut replay = StdRng::seed_from_u64(9);
        let divergent: Vec<Nat> = (0..40)
            .filter_map(|_| {
                let plan = space.sample(&mut replay);
                let result = space.execute(&catalog, &db, &plan).unwrap();
                (!result.multiset_eq(&reference)).then(|| space.rank(&plan).unwrap())
            })
            .collect();
        let reported: Vec<Nat> = report.mismatches.iter().map(|m| m.rank.clone()).collect();
        assert!(!divergent.is_empty());
        assert_eq!(reported, divergent);
        assert_eq!(report.plans_checked, 40);
        assert_eq!(
            rng.next_u64(),
            replay.next_u64(),
            "no draw beyond the plans"
        );
    }

    #[test]
    #[should_panic(expected = "different catalog")]
    fn executing_against_a_different_catalog_panics() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let plan = space.unrank(&Nat::zero()).unwrap();
        let _ = space.execute(&Catalog::new(), &fixture_db(), &plan);
    }

    /// `SELECT r_name, COUNT(*) FROM nation n, region r WHERE
    /// n.n_regionkey = r.r_regionkey GROUP BY r.r_name`, prepared by the
    /// optimizer over the TPC-H catalog, and a five-nation database
    /// (three in region 1) for it.
    fn prepared_nations_per_region() -> (Catalog, Database, PreparedQuery) {
        use plansample_catalog::Datum::Str;
        use plansample_query::{AggFunc, QueryBuilder};
        let (catalog, _) = plansample_catalog::tpch::catalog();
        let mut qb = QueryBuilder::new(&catalog);
        qb.rel("nation", Some("n")).unwrap();
        qb.rel("region", Some("r")).unwrap();
        qb.join(("n", "n_regionkey"), ("r", "r_regionkey")).unwrap();
        qb.aggregate(&[("r", "r_name")], &[(AggFunc::CountStar, None)])
            .unwrap();
        let query = qb.build().unwrap();
        let prepared = PreparedQuery::prepare(&catalog, &query, &OptimizerConfig::default())
            .expect("query prepares");

        let mut db = Database::new();
        let region = vec![
            vec![Int(2), Str("EUROPE".into())],
            vec![Int(0), Str("AFRICA".into())],
            vec![Int(1), Str("ASIA".into())],
        ];
        let nation = [(3, 2), (0, 1), (4, 1), (1, 0), (2, 1)]
            .into_iter()
            .map(|(key, region)| vec![Int(key), Str(format!("N{key}")), Int(region)])
            .collect();
        for (name, rows) in [("region", region), ("nation", nation)] {
            let (id, def) = catalog.table_by_name(name).unwrap();
            db.insert(id, Table::from_rows(def.columns.len(), rows).unwrap());
        }
        (catalog, db, prepared)
    }

    #[test]
    fn one_optimization_serves_the_optimizer_plan_and_every_useplan() {
        let before = plansample_optimizer::thread_optimizations_performed();
        let (catalog, db, prepared) = prepared_nations_per_region();
        let (best, _) = prepared.best();
        assert!(
            (prepared.scaled_cost(best) - 1.0).abs() < 1e-9,
            "optimizer plan is the 1.0 reference"
        );
        assert!(best.render(prepared.memo()).contains("Agg"));
        let reference = prepared.execute(&catalog, &db, best).unwrap();
        assert_eq!(reference.len(), 3, "one row per region");

        let n = prepared.total().to_u64().unwrap();
        assert!(n >= 4);
        for rank in [0, 1, n / 2, n - 1] {
            let plan = prepared.unrank(&Nat::from(rank)).unwrap();
            let table = prepared.execute(&catalog, &db, &plan).unwrap();
            assert!(
                table.multiset_eq(&reference),
                "USEPLAN {rank} must agree with the optimizer's plan"
            );
            assert!(prepared.scaled_cost(&plan) >= 1.0 - 1e-9);
        }
        assert_eq!(
            plansample_optimizer::thread_optimizations_performed() - before,
            1,
            "prepare once, serve many"
        );
    }
}
