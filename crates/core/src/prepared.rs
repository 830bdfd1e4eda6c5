//! The prepared-query artifact: optimize once, query forever.
//!
//! The paper's central observation is that counting, enumerating, and
//! sampling are cheap *once the MEMO is built* — the expensive steps
//! (optimization, link materialization, counting) happen exactly once.
//! [`PreparedQuery`] reifies that split into the API: it is a
//! [`PlanSpace`] (the optimized memo, the query, the materialized links
//! and counts) plus the optimizer's best plan, in one owned, immutable,
//! `Send + Sync` artifact. Every plan-space operation is the space's,
//! reached through `Deref`; this type adds only what needs the best
//! plan. Wrap it in an [`std::sync::Arc`] and any number of threads can
//! count, unrank, page, and sample concurrently with zero
//! re-optimization and zero locking.

use crate::{Counts, Error, PlanBatch, PlanSpace, SpaceError};
use plansample_catalog::Catalog;
use plansample_memo::{satisfies_cols, PhysId, PlanNode, SortOrder};
use plansample_optimizer::{optimize_with_links, Optimized, OptimizerConfig};
use plansample_query::{ColRef, QuerySpec};
use rand::Rng;
use std::ops::Deref;
use std::sync::Arc;

/// An owned, shareable, fully prepared query: the complete paper surface
/// (count / rank / unrank / enumerate / sample, whole-space and
/// sub-space, all [`PlanSpace`]'s through `Deref`) without ever
/// re-optimizing.
///
/// Produced by [`PreparedQuery::prepare`]; run any of its plans on data
/// with [`PlanSpace::execute`]. The artifact is immutable and
/// `Send + Sync`; sampling takes the caller's RNG by `&mut`, so
/// concurrent threads each bring their own RNG and share the artifact
/// itself through an [`Arc`] (see `tests/concurrency.rs` and
/// [`crate::service::ArtifactCache`]).
///
/// ```
/// use plansample::PreparedQuery;
/// use plansample_bignum::Nat;
/// use plansample_optimizer::OptimizerConfig;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let (catalog, _) = plansample_catalog::tpch::catalog();
/// let query = plansample_query::tpch::q5(&catalog);
/// let prepared = PreparedQuery::prepare(&catalog, &query, &OptimizerConfig::default()).unwrap();
///
/// // All of these reuse the one memo built above:
/// assert!(prepared.total().to_f64() > 1e6);
/// let mut rng = StdRng::seed_from_u64(7);
/// let batch = prepared.sample_batch(&mut rng, 100);
/// assert_eq!(batch.len(), 100);
/// let (best, cost) = prepared.best();
/// assert!((prepared.scaled_cost(best) - 1.0).abs() < 1e-9 && cost > 0.0);
/// let page: Vec<_> = prepared.enumerate_from(Nat::from(1_000u64)).take(5).collect();
/// assert_eq!(prepared.rank(&page[0]).unwrap(), Nat::from(1_000u64));
/// ```
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    space: PlanSpace,
    best_plan: PlanNode,
    best_cost: f64,
    config: OptimizerConfig,
}

impl Deref for PreparedQuery {
    type Target = PlanSpace;

    fn deref(&self) -> &PlanSpace {
        &self.space
    }
}

impl PreparedQuery {
    /// Runs the optimizer once and post-processes its memo into the
    /// owned artifact — the only expensive call in this type's API. The
    /// links are the ones the optimizer's best-plan extraction built of
    /// the memo, so the memo is scanned once.
    pub fn prepare(
        catalog: &Catalog,
        query: &QuerySpec,
        config: &OptimizerConfig,
    ) -> Result<Self, Error> {
        let (optimized, links) = optimize_with_links(catalog, query, config)?;
        let Optimized {
            memo,
            best_plan,
            best_cost,
        } = optimized;
        let counts = Counts::compute(&links);
        let query = Arc::new(query.clone());
        Ok(PreparedQuery {
            space: PlanSpace::from_parts(Arc::new(memo), query, links, counts)?,
            best_plan,
            best_cost,
            config: config.clone(),
        })
    }

    /// Reassembles the artifact from an already-validated plan space
    /// plus the optimizer's best plan and cost — the artifact load
    /// path (see `plansample-artifact`). The best plan is checked
    /// structurally against the memo (every node resolves, every
    /// node's child count matches its operator's arity) so a corrupt
    /// plan section cannot smuggle out-of-range indices past the
    /// panicking accessors.
    pub fn from_parts(
        space: PlanSpace,
        best_plan: PlanNode,
        best_cost: f64,
        config: OptimizerConfig,
    ) -> Result<Self, SpaceError> {
        let malformed = |reason: &str| SpaceError::MalformedParts {
            reason: reason.to_string(),
        };
        if !best_cost.is_finite() || best_cost <= 0.0 {
            return Err(malformed("best cost must be finite and positive"));
        }
        let memo = space.memo();
        let mut stack = vec![&best_plan];
        while let Some(node) = stack.pop() {
            if node.id.group.0 as usize >= memo.num_groups() {
                return Err(malformed("best plan references a group out of range"));
            }
            let group = memo.group(node.id.group);
            if node.id.index >= group.phys_iter().count() {
                return Err(malformed("best plan references an expression out of range"));
            }
            if node.children.len() != memo.phys(node.id).arity() {
                return Err(malformed("best plan child count must match operator arity"));
            }
            stack.extend(&node.children);
        }
        Ok(PreparedQuery {
            space,
            best_plan,
            best_cost,
            config,
        })
    }

    /// Whether `plan`'s root operator delivers rows in the order
    /// `cols` demands — the `ORDER BY` validation used by the SQL
    /// front end. Empty `cols` is trivially satisfied; otherwise the
    /// plan root's delivered columns are checked against the
    /// requirement under the query's whole-scope column equivalences
    /// (a `MergeJoin` on `a.x = b.y` delivering `a.x` satisfies
    /// `ORDER BY b.y`).
    pub fn satisfies_order(&self, plan: &PlanNode, cols: &[ColRef]) -> bool {
        if cols.is_empty() {
            return true;
        }
        let query = self.query();
        let delivered = self.memo().phys(plan.id).delivered_cols();
        satisfies_cols(
            query,
            query.all_rels(),
            delivered,
            &SortOrder::on(cols.to_vec()),
        )
    }

    /// The optimizer's chosen plan and its total cost — the paper's
    /// cost-1.0 reference point.
    pub fn best(&self) -> (&PlanNode, f64) {
        (&self.best_plan, self.best_cost)
    }

    /// A plan's total cost scaled so the optimizer's plan is 1.0 (the
    /// paper's §5 cost unit).
    pub fn scaled_cost(&self, plan: &PlanNode) -> f64 {
        plan.total_cost(self.memo()) / self.best_cost
    }

    /// [`PlanSpace::sample_batch_costed`] with each plan's cost scaled
    /// as [`scaled_cost`](Self::scaled_cost) scales it, left in
    /// [`PlanBatch::costs`] bit-identical to costing the plan's tree —
    /// the serving path (the costs are summed during the walk that
    /// emits the ids).
    ///
    /// # Panics
    /// Panics if `k > 0` and the space is empty.
    pub fn sample_batch_scaled<R: Rng + ?Sized>(&self, rng: &mut R, k: usize, out: &mut PlanBatch) {
        self.space.sample_batch_costed(rng, k, out);
        for cost in out.costs_mut() {
            *cost /= self.best_cost;
        }
    }

    /// [`scaled_cost`](Self::scaled_cost) for a flat preorder id
    /// sequence (a [`PlanBatch`] entry): a plan's total cost is the sum
    /// of its operators' local costs, so no tree needs rebuilding.
    ///
    /// The sum is evaluated bottom-up with the exact association of
    /// [`PlanNode::total_cost`](plansample_memo::PlanNode::total_cost)
    /// — local cost plus the left-to-right sum of child subtree totals
    /// — so the result is bit-identical to the tree path. Production
    /// costs plans while it draws them
    /// ([`sample_batch_scaled`](Self::sample_batch_scaled)); this
    /// separate pass over finished ids is the reference that fill is
    /// tested against.
    pub fn scaled_cost_ids(&self, ids: &[PhysId]) -> f64 {
        let memo = self.memo();
        let mut totals: Vec<f64> = Vec::with_capacity(ids.len().min(64));
        for &id in ids.iter().rev() {
            let expr = memo.phys(id);
            // Reverse preorder pushes the leftmost child's total last,
            // so draining back-to-front restores left-to-right order.
            let start = totals.len() - expr.arity();
            let children: f64 = totals.drain(start..).rev().sum();
            totals.push(expr.local_cost + children);
        }
        debug_assert_eq!(totals.len(), 1, "preorder did not form one tree");
        totals[0] / self.best_cost
    }

    /// Bytes of memory held by this artifact: the plan space's flat link
    /// and count buffers, the shared memo, and the best plan.
    ///
    /// The value [`crate::service::ArtifactCache`]'s byte-budget
    /// eviction charges per cached entry.
    pub fn size_bytes(&self) -> usize {
        self.space.size_bytes() + self.best_plan.size_bytes() + std::mem::size_of::<Self>()
            - std::mem::size_of::<PlanSpace>()
            - std::mem::size_of::<PlanNode>()
    }

    /// The underlying plan space — what `Deref` reaches, for a caller
    /// that wants it by name (to clone it, or to pass it on).
    pub fn space(&self) -> &PlanSpace {
        &self.space
    }

    /// The optimizer configuration the artifact was prepared under.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plansample_bignum::Nat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn prepared_3way() -> PreparedQuery {
        let (catalog, _) = plansample_catalog::tpch::catalog();
        let mut qb = plansample_query::QueryBuilder::new(&catalog);
        qb.rel("nation", Some("n")).unwrap();
        qb.rel("region", Some("r")).unwrap();
        qb.join(("n", "n_regionkey"), ("r", "r_regionkey")).unwrap();
        let query = qb.build().unwrap();
        PreparedQuery::prepare(&catalog, &query, &OptimizerConfig::default()).unwrap()
    }

    #[test]
    fn prepare_exposes_the_full_surface_without_reoptimizing() {
        let before = plansample_optimizer::thread_optimizations_performed();
        let p = prepared_3way();
        assert_eq!(
            plansample_optimizer::thread_optimizations_performed() - before,
            1,
            "prepare optimizes exactly once"
        );

        let n = p.total().to_u64().unwrap();
        assert!(n >= 4);
        let mut rng = StdRng::seed_from_u64(3);
        let batch = p.sample_batch(&mut rng, 50);
        assert_eq!(batch.len(), 50);
        for plan in &batch {
            let r = p.rank(plan).unwrap();
            assert_eq!(p.unrank(&r).unwrap(), *plan);
        }
        let (best, cost) = p.best();
        assert!(cost > 0.0);
        assert!((p.scaled_cost(best) - 1.0).abs() < 1e-9);
        assert_eq!(p.enumerate().count() as u64, n);
        assert_eq!(
            plansample_optimizer::thread_optimizations_performed() - before,
            1,
            "no serving operation re-optimizes"
        );
    }

    #[test]
    fn rooted_operations_are_exposed() {
        let p = prepared_3way();
        let root = p.memo().root();
        let (v, _) = p.memo().group(root).phys_iter().next().unwrap();
        let nv = p.count_rooted(v);
        assert!(!nv.is_zero());
        let plan = p.unrank_rooted(v, &Nat::zero()).unwrap();
        assert_eq!(plan.id, v);
        assert_eq!(p.rank_rooted(&plan).unwrap(), Nat::zero());
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(p.sample_rooted(&mut rng, v).id, v);
    }
}
