//! The write side of every sampling workload: `build_q8cp` (cold
//! prepare → artifact save → load).
//!
//! Anything that speeds sampling by precomputing more, or adds bytes
//! per expression, is paid here.

use super::sampling::prepare_q8cp;
use super::{check_total, Ctx, Library, Metrics, TOTAL_Q8CP};
use crate::alloc;
use crate::trace::Tracer;
use plansample_artifact::format;
use plansample_bignum::Nat;
use plansample_catalog::Catalog;
use plansample_core::{Counts, Links, PlanSpace, PreparedQuery};
use plansample_optimizer::{optimize, OptimizerConfig};
use plansample_query::QuerySpec;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;

/// Spans per micro measurement.
const MICRO_REPS: usize = 7;

/// A scratch directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(ctx: &Ctx) -> Result<TempDir, String> {
        let dir = ctx
            .out_dir
            .join(format!("tmp-{}-{}", ctx.name, std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }

    /// Where the one artifact of a run is saved.
    fn artifact(&self) -> PathBuf {
        self.0.join("q8cp.artifact")
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Loaded and fresh artifacts must agree on the total, the best plan
/// and cost, and an arbitrary unranked plan.
fn same_space(loaded: &PreparedQuery, fresh: &PreparedQuery) -> Result<(), String> {
    if loaded.total() != fresh.total() {
        return Err(format!(
            "loaded total {} != fresh total {}",
            loaded.total(),
            fresh.total()
        ));
    }
    let ((lp, lc), (fp, fc)) = (loaded.best(), fresh.best());
    if lp != fp || lc.to_bits() != fc.to_bits() {
        return Err("loaded best plan or cost differs from the fresh one".into());
    }
    let rank = Nat::from(7u64);
    match (loaded.unrank(&rank), fresh.unrank(&rank)) {
        (Ok(a), Ok(b)) if a == b => Ok(()),
        _ => Err("unrank(7) differs between loaded and fresh artifact".into()),
    }
}

pub struct BuildQ8cp {
    catalog: Catalog,
    query: QuerySpec,
    config: OptimizerConfig,
    dir: TempDir,
    /// The last cycle's artifact, kept for the resident-size metric.
    last: PreparedQuery,
}

impl Library for BuildQ8cp {
    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let (catalog, _) = plansample_catalog::tpch::catalog();
        let query = plansample_query::tpch::q8(&catalog);
        Ok(BuildQ8cp {
            catalog,
            query,
            config: OptimizerConfig::with_cross_products(),
            dir: TempDir::new(ctx)?,
            // Set-up is what every read workload pays before its first
            // sample: one cold prepare.
            last: prepare_q8cp()?,
        })
    }

    fn op(&mut self) -> Result<u64, String> {
        let fresh = PreparedQuery::prepare(&self.catalog, &self.query, &self.config)
            .map_err(|e| format!("prepare: {e}"))?;
        let path = self.dir.artifact();
        format::save(&fresh, &path).map_err(|e| format!("save: {e}"))?;
        let loaded = format::load(&path).map_err(|e| format!("load: {e}"))?;
        same_space(&loaded, &fresh)?;
        self.last = fresh;
        Ok(1)
    }

    /// `PreparedQuery::prepare` taken apart at its public seams.
    fn traced_op(&mut self, tr: &mut Tracer) -> Result<u64, String> {
        let optimized = tr
            .span("optimizer.optimize", || {
                optimize(&self.catalog, &self.query, &self.config)
            })
            .map_err(|e| format!("optimize: {e}"))?;
        let memo = Arc::new(optimized.memo);
        let query = Arc::new(self.query.clone());
        let links = tr
            .span("core.links.build", || Links::build(&memo, &query))
            .map_err(|e| format!("links: {e}"))?;
        let counts = tr.span("core.count.compute", || Counts::compute(&links));
        let fresh = tr
            .span("core.assemble", || {
                PlanSpace::from_parts(memo, query, links, counts).and_then(|space| {
                    PreparedQuery::from_parts(
                        space,
                        optimized.best_plan,
                        optimized.best_cost,
                        self.config.clone(),
                    )
                })
            })
            .map_err(|e| format!("assemble: {e}"))?;
        let path = self.dir.artifact();
        tr.span("artifact.save", || format::save(&fresh, &path))
            .map_err(|e| format!("save: {e}"))?;
        let loaded = tr
            .span("artifact.load", || format::load(&path))
            .map_err(|e| format!("load: {e}"))?;
        tr.span("harness.check", || same_space(&loaded, &fresh))?;
        tr.span("harness.drop", || {
            drop(loaded);
            self.last = fresh;
        });
        Ok(1)
    }

    fn resident(&self) -> (usize, usize) {
        (self.last.size_bytes(), self.last.memo().num_physical())
    }

    fn verify(&mut self) -> Vec<String> {
        check_total("Q8+CP", self.last.total(), TOTAL_Q8CP)
            .into_iter()
            .collect()
    }

    fn layers(&mut self, tr: &mut Tracer, m: &mut Metrics) -> Result<(), String> {
        let (result, allocs) = alloc::count(|| self.op());
        result?;
        m.set("build.allocs_per_cycle", allocs as f64);

        let exprs = self.last.memo().num_physical() as f64;
        let space = self.last.space();
        m.set(
            "core.links.bytes_per_expr",
            space.links().size_bytes() as f64 / exprs,
        );
        m.set(
            "core.count.bytes_per_expr",
            space.counts().size_bytes() as f64 / exprs,
        );
        let mut bytes = Vec::new();
        for _ in 0..MICRO_REPS {
            tr.next_op();
            bytes = tr.span("artifact.encode", || format::encode(&self.last));
        }
        m.set("artifact.bytes_per_expr", bytes.len() as f64 / exprs);
        for _ in 0..MICRO_REPS {
            tr.next_op();
            let decoded = tr
                .span("artifact.decode", || format::decode(&bytes))
                .map_err(|e| format!("decode: {e}"))?;
            black_box(&decoded);
        }
        Ok(())
    }

    fn span_metrics() -> &'static [(&'static str, &'static str, f64)] {
        &[
            ("optimizer.optimize_ms", "optimizer.optimize", 1e6),
            ("core.links.build_ms", "core.links.build", 1e6),
            ("core.count.compute_ms", "core.count.compute", 1e6),
            ("artifact.encode_ms", "artifact.encode", 1e6),
            ("artifact.save_ms", "artifact.save", 1e6),
            ("artifact.load_ms", "artifact.load", 1e6),
            ("artifact.decode_ms", "artifact.decode", 1e6),
        ]
    }
}
