//! Uniform random sampling of execution plans (§1, §3).
//!
//! "Once an unranking mechanism is available, uniform sampling of
//! elements in the space reduces to random generation of numbers in the
//! range 0, …, N−1." [`PlanSpace::sample`] draws a uniform rank with
//! [`Nat::random_below`](plansample_bignum::Nat::random_below) and
//! unranks it — every plan has probability exactly `1/N`.
//!
//! [`PlanSpace::sample_naive_walk`] is the obvious-but-wrong alternative
//! kept as a measurable baseline: walk the memo top-down picking
//! *operators* uniformly at each step. Because a subtree's probability
//! is then the product of per-step choices rather than `1/N`, plans in
//! bushy, asymmetric regions of the space are systematically
//! over-sampled. The statistical tests show a chi-square uniformity test
//! accepts the unranking sampler and rejects the naive walk — the reason
//! the paper needs the counting machinery at all.

use crate::batch::{OpenOp, Scratch};
use crate::count::{with_tier, TierCounts};
use crate::unrank::unrank_flat;
use crate::word::Word;
use crate::{PlanBatch, PlanSpace};
use plansample_memo::{DenseId, PlanNode};
use rand::Rng;

/// What [`PlanNode::total_cost`] adds a node's children to: the sum of
/// no costs, taken from the same `Sum` so the fold below starts where
/// the tree's does on any toolchain.
fn no_children() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// The costing visitor of a costed fill: called with each operator's
/// local cost and arity in preorder, it leaves the plan's total cost in
/// `plan_total` when the last operator has been seen.
///
/// An operator with children waits on `open`; a leaf is complete at
/// once, and completes every ancestor whose last child it closes. Each
/// total is `local + ((∅ + c₁) + c₂ …)` over the children's totals left
/// to right — the association of [`PlanNode::total_cost`], so the
/// result is that function's to the bit and not merely within a ULP
/// (serve pins reply bytes).
#[inline]
fn fold_cost(open: &mut Vec<OpenOp>, local: f64, arity: usize, plan_total: &mut f64) {
    if arity > 0 {
        open.push(OpenOp {
            pending: arity,
            local,
            children: no_children(),
        });
        return;
    }
    let mut total = local + no_children();
    while let Some(parent) = open.last_mut() {
        parent.children += total;
        parent.pending -= 1;
        if parent.pending > 0 {
            return;
        }
        total = parent.local + parent.children;
        open.pop();
    }
    *plan_total = total;
}

impl PlanSpace {
    /// Draws one plan uniformly from the space.
    ///
    /// # Panics
    /// Panics if the space is empty (`total() == 0`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> PlanNode {
        assert!(
            !self.total().is_zero(),
            "cannot sample from an empty plan space"
        );
        let root = self.links.root_list();
        with_tier!(self.counts, c => {
            let rank = Word::random_below(rng, c.list_total(root));
            let (v, local) = c.select(&self.links, root, rank);
            self.unrank_tree(c, v, local)
        })
    }

    /// Draws `k` plans uniformly and independently (with replacement),
    /// as in the paper's 10 000-plan experiments. The batched entry
    /// point of the prepared-query serving surface: amortizes the memo
    /// preparation over arbitrarily many draws.
    ///
    /// This is [`sample_batch_flat`](Self::sample_batch_flat) followed
    /// by lifting each preorder listing into a tree, so the two cannot
    /// disagree. The lift is sequential; a caller that draws trees only
    /// to cost them wants [`sample_batch_costed`](Self::sample_batch_costed).
    ///
    /// # Panics
    /// Panics if `k > 0` and the space is empty.
    pub fn sample_batch<R: Rng + ?Sized>(&self, rng: &mut R, k: usize) -> Vec<PlanNode> {
        let mut flat = PlanBatch::new();
        self.sample_batch_flat(rng, k, &mut flat);
        flat.iter().map(|ids| self.lift(ids)).collect()
    }

    /// Draws `k` plans uniformly into a reusable flat batch — the
    /// zero-allocation sampling path.
    ///
    /// Each draw is one rank below `N` — consuming the caller's RNG
    /// exactly as a call of [`sample`](Self::sample) would, on every
    /// tier — unranked at once in the word the space's counts are
    /// stored in (see [`crate::Counts::tier`]), straight into `out`'s
    /// buffers, on the calling thread. On the fixed-width tiers, once
    /// those buffers are at capacity a steady-state fill performs
    /// **zero heap allocations per draw** (asserted by
    /// `tests/alloc_counting.rs`).
    ///
    /// # Panics
    /// Panics if `k > 0` and the space is empty.
    pub fn sample_batch_flat<R: Rng + ?Sized>(&self, rng: &mut R, k: usize, out: &mut PlanBatch) {
        self.fill(rng, k, false, out);
    }

    /// [`sample_batch_flat`](Self::sample_batch_flat) — the same draws,
    /// the same ids, from the same one walk per plan — that also leaves
    /// each plan's total cost in [`PlanBatch::costs`], bit-identical to
    /// [`PlanNode::total_cost`] of the plan's tree: the serving path.
    /// The operators' local costs are summed as the walk meets them, so
    /// costing a batch is not a second pass over it, and the loads it
    /// needs are independent of the unranker's own chain.
    ///
    /// # Panics
    /// Panics if `k > 0` and the space is empty.
    pub fn sample_batch_costed<R: Rng + ?Sized>(&self, rng: &mut R, k: usize, out: &mut PlanBatch) {
        self.fill(rng, k, true, out);
    }

    fn fill<R: Rng + ?Sized>(&self, rng: &mut R, k: usize, costed: bool, out: &mut PlanBatch) {
        assert!(
            k == 0 || !self.total().is_zero(),
            "cannot sample from an empty plan space"
        );
        with_tier!(self.counts, c => self.fill_in(c, rng, k, costed, out));
    }

    /// [`fill`](Self::fill) in word `W`.
    fn fill_in<W: Word, R: Rng + ?Sized>(
        &self,
        counts: &TierCounts<W>,
        rng: &mut R,
        k: usize,
        costed: bool,
        out: &mut PlanBatch,
    ) {
        out.start_fill();
        let root = self.links.root_list();
        let total = counts.list_total(root);
        let ids = self.links.ids();
        let mut slot = std::mem::take(&mut out.scratch);
        let Scratch { stack, open } = W::scratch(&mut slot);
        for _ in 0..k {
            let rank = W::random_below(rng, total);
            let (v, local): (DenseId, W) = counts.select(&self.links, root, rank);
            let plan = out.ids_mut();
            if costed {
                open.clear();
                let mut cost = 0.0;
                unrank_flat(&self.links, counts, v, local, stack, |v, arity| {
                    let id = ids.phys(v);
                    plan.push(id);
                    fold_cost(open, self.memo.phys(id).local_cost, arity, &mut cost);
                });
                out.costs_mut().push(cost);
            } else {
                unrank_flat(&self.links, counts, v, local, stack, |v, _| {
                    plan.push(ids.phys(v))
                });
            }
            out.finish_plan();
        }
        out.scratch = slot;
    }

    /// Biased baseline: pick an operator uniformly among the group's (or
    /// slot's) alternatives at every step, ignoring subtree counts.
    /// Returns `None` if the walk reaches an operator with an
    /// unsatisfiable slot (possible in pruned memos).
    pub fn sample_naive_walk<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<PlanNode> {
        self.naive_pick(rng, self.links.list(self.links.root_list()))
    }

    fn naive_pick<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        alternatives: &[DenseId],
    ) -> Option<PlanNode> {
        if alternatives.is_empty() {
            return None;
        }
        let v = alternatives[rng.gen_range(0..alternatives.len())];
        let children = self
            .links
            .slot_lists(v)
            .iter()
            .map(|&l| self.naive_pick(rng, self.links.list(l)))
            .collect::<Option<Vec<_>>>()?;
        Some(PlanNode {
            id: self.links.ids().phys(v),
            children,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::paper_example;
    use crate::PlanSpace;
    use plansample_bignum::Nat;
    use plansample_memo::validate_plan;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    #[test]
    fn samples_are_valid_plans() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for plan in space.sample_batch(&mut rng, 200) {
            assert!(validate_plan(&ex.memo, &ex.query, &plan).is_empty());
        }
    }

    #[test]
    fn uniform_sampler_covers_the_space_evenly() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let draws = 32_000usize;
        let mut freq: HashMap<u64, usize> = HashMap::new();
        for _ in 0..draws {
            let plan = space.sample(&mut rng);
            let r = space.rank(&plan).unwrap().to_u64().unwrap();
            *freq.entry(r).or_default() += 1;
        }
        assert_eq!(freq.len(), 32, "all 32 plans appear");
        // Expected 1000 per plan; chi-square with 31 dof, p=0.001
        // critical value ≈ 61.1.
        let expected = draws as f64 / 32.0;
        let chi2: f64 = (0..32u64)
            .map(|r| {
                let o = *freq.get(&r).unwrap_or(&0) as f64;
                (o - expected).powi(2) / expected
            })
            .sum();
        assert!(chi2 < 61.1, "chi-square {chi2} rejects uniformity");
    }

    #[test]
    fn naive_walk_is_measurably_biased() {
        // In the fixture, plan rank 16 (root 7.8 with first choices) is
        // reached by the naive walk with probability 1/2 · 1/3 · 1/2 ·
        // 1/2 · … while uniform gives 1/32; aggregate: the chi-square
        // statistic across all 32 plans must blow past the critical
        // value.
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let draws = 32_000usize;
        let mut freq: HashMap<u64, usize> = HashMap::new();
        for _ in 0..draws {
            let plan = space.sample_naive_walk(&mut rng).unwrap();
            let r = space.rank(&plan).unwrap().to_u64().unwrap();
            *freq.entry(r).or_default() += 1;
        }
        let expected = draws as f64 / 32.0;
        let chi2: f64 = (0..32u64)
            .map(|r| {
                let o = *freq.get(&r).unwrap_or(&0) as f64;
                (o - expected).powi(2) / expected
            })
            .sum();
        assert!(chi2 > 61.1, "naive walk unexpectedly uniform: chi2={chi2}");
    }

    #[test]
    fn sampling_respects_the_seed() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let a: Vec<Nat> = {
            let mut rng = StdRng::seed_from_u64(1);
            space
                .sample_batch(&mut rng, 10)
                .iter()
                .map(|p| space.rank(p).unwrap())
                .collect()
        };
        let b: Vec<Nat> = {
            let mut rng = StdRng::seed_from_u64(1);
            space
                .sample_batch(&mut rng, 10)
                .iter()
                .map(|p| space.rank(p).unwrap())
                .collect()
        };
        assert_eq!(a, b);
    }
}
