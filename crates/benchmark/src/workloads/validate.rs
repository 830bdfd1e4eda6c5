//! `validate_q10`: the paper's §4 application — execute sampled plans
//! and compare their results.
//!
//! Q10 because it is the TPC-H join query whose result is non-empty on
//! `MicroScale::tiny()` (13 rows); Q3/Q5/Q7/Q8/Q9 return no rows there,
//! which would make the multiset comparison vacuous.

use super::{check_total, Ctx, Library, Metrics, TOTAL_Q10};
use crate::trace::Tracer;
use plansample_bignum::Nat;
use plansample_catalog::Catalog;
use plansample_core::lower::lower;
use plansample_core::PreparedQuery;
use plansample_datagen::MicroScale;
use plansample_exec::{Database, ExecNode};
use plansample_optimizer::OptimizerConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Plans executed per op.
const PLANS: usize = 32;
/// Seed of the micro database (fixed: the pinned row count depends on it).
const DB_SEED: u64 = 7;
/// Rows Q10 returns on that database.
const REFERENCE_ROWS: usize = 13;

pub struct ValidateQ10 {
    catalog: Catalog,
    db: Database,
    prepared: PreparedQuery,
    rng: StdRng,
}

impl ValidateQ10 {
    fn miss(&self, what: &str, got: usize, want: usize) -> Result<u64, String> {
        Err(format!("Q10 validation: {what} {got}, expected {want}"))
    }
}

impl Library for ValidateQ10 {
    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let (catalog, tables) = plansample_catalog::tpch::catalog();
        let db = plansample_datagen::generate(&catalog, &tables, &MicroScale::tiny(), DB_SEED);
        let query = plansample_query::tpch::q10(&catalog);
        let prepared = PreparedQuery::prepare(&catalog, &query, &OptimizerConfig::default())
            .map_err(|e| format!("Q10 does not prepare: {e}"))?;
        Ok(ValidateQ10 {
            catalog,
            db,
            prepared,
            rng: StdRng::seed_from_u64(ctx.seed),
        })
    }

    fn op(&mut self) -> Result<u64, String> {
        let report = self
            .prepared
            .space()
            .validate_sampled(&self.catalog, &self.db, PLANS, &mut self.rng)
            .map_err(|e| format!("validate_sampled: {e}"))?;
        if !report.all_passed() {
            return Err(format!("Q10 validation: {report}"));
        }
        if report.reference_rows != REFERENCE_ROWS {
            return self.miss("reference rows", report.reference_rows, REFERENCE_ROWS);
        }
        if report.plans_checked != PLANS {
            return self.miss("plans checked", report.plans_checked, PLANS);
        }
        Ok(PLANS as u64)
    }

    /// What `validate_sampled` does, one public call per layer.
    fn traced_op(&mut self, tr: &mut Tracer) -> Result<u64, String> {
        let space = self.prepared.space();
        let (memo, query) = (space.memo(), space.query());
        let plan0 = tr
            .span("core.unrank.tree", || space.unrank(&Nat::zero()))
            .map_err(|e| format!("unrank(0): {e}"))?;
        let exec0 = tr.span("core.lower", || lower(memo, query, &self.catalog, &plan0));
        let reference = tr
            .span("exec.run.execute", || exec0.execute(&self.db))
            .map_err(|e| format!("reference plan: {e}"))?;
        if reference.len() != REFERENCE_ROWS {
            return self.miss("reference rows", reference.len(), REFERENCE_ROWS);
        }
        for _ in 0..PLANS {
            let rng = &mut self.rng;
            let plan = tr.span("core.sample.tree", || space.sample(rng));
            let rank = tr
                .span("core.rank", || space.rank(&plan))
                .map_err(|e| format!("rank: {e}"))?;
            let exec = tr.span("core.lower", || lower(memo, query, &self.catalog, &plan));
            let result = tr
                .span("exec.run.execute", || exec.execute(&self.db))
                .map_err(|e| format!("plan {rank}: {e}"))?;
            if !tr.span("exec.compare.multiset_eq", || {
                result.multiset_eq(&reference)
            }) {
                return Err(format!(
                    "plan {rank} returned {} rows that differ from the reference",
                    result.len()
                ));
            }
        }
        Ok(PLANS as u64)
    }

    fn resident(&self) -> (usize, usize) {
        (
            self.prepared.size_bytes(),
            self.prepared.memo().num_physical(),
        )
    }

    fn verify(&mut self) -> Vec<String> {
        check_total("Q10", self.prepared.total(), TOTAL_Q10)
            .into_iter()
            .collect()
    }

    /// The pipelined executor on the same lowered plans: off the
    /// end-to-end path, recorded so the two-executor decision has rows.
    fn layers(&mut self, tr: &mut Tracer, m: &mut Metrics) -> Result<(), String> {
        let space = self.prepared.space();
        let lowered: Vec<ExecNode> = (0..PLANS * 4)
            .map(|_| {
                let plan = space.sample(&mut self.rng);
                lower(space.memo(), space.query(), &self.catalog, &plan)
            })
            .collect();
        let mut rows = 0usize;
        for exec in &lowered {
            tr.next_op();
            let table = tr
                .span("exec.iter.execute", || exec.execute_pipelined(&self.db))
                .map_err(|e| format!("execute_pipelined: {e}"))?;
            rows += table.len();
            black_box(&table);
        }
        m.set("exec.rows_out_per_plan", rows as f64 / lowered.len() as f64);
        Ok(())
    }

    fn span_metrics() -> &'static [(&'static str, &'static str, f64)] {
        &[
            ("core.sample.tree_us_per_plan", "core.sample.tree", 1000.0),
            ("core.rank.us_per_plan", "core.rank", 1000.0),
            ("core.unrank.tree_us_per_plan", "core.unrank.tree", 1000.0),
            ("core.lower.us_per_plan", "core.lower", 1000.0),
            ("exec.run.execute_us_per_plan", "exec.run.execute", 1000.0),
            ("exec.iter.execute_us_per_plan", "exec.iter.execute", 1000.0),
            (
                "exec.compare.multiset_eq_us_per_plan",
                "exec.compare.multiset_eq",
                1000.0,
            ),
        ]
    }
}
