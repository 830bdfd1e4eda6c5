//! Ranking: the inverse of unranking — finding a plan's number.
//!
//! The paper defines ranking as "finding [an execution plan's] number"
//! (§1) and uses it implicitly to establish the bijection between
//! `[0, N)` and the plan space. The computation mirrors unranking in
//! reverse: at every node, find the chosen operator in its alternative
//! list (a binary search: lists ascend in dense id), read the stored
//! running sum of the alternatives preceding it (prefix), then recompose
//! the local rank from the children's sub-ranks in the same mixed-radix
//! system.
//!
//! `rank(unrank(r)) == r` for every `r` is the central bijection
//! property, enforced by unit and property tests.

use crate::count::{with_tier, TierCounts};
use crate::word::Word;
use crate::ListId;
use crate::{PlanSpace, SpaceError};
use plansample_bignum::Nat;
use plansample_memo::{DenseId, PlanNode};

impl PlanSpace {
    /// Computes the rank of `plan` within this space.
    ///
    /// Fails with [`SpaceError::ForeignPlan`] when the plan uses an
    /// operator that is not among the eligible alternatives at its
    /// position (e.g. a plan from a different memo, or one violating
    /// physical-property requirements).
    pub fn rank(&self, plan: &PlanNode) -> Result<Nat, SpaceError> {
        with_tier!(self.counts, c => self
            .rank_in(c, self.links.root_list(), plan)
            .map(|r| r.to_nat()))
    }

    /// The rank of `plan` within the sub-space rooted at its own root
    /// expression (inverse of [`unrank_rooted`](Self::unrank_rooted)).
    pub fn rank_rooted(&self, plan: &PlanNode) -> Result<Nat, SpaceError> {
        let d = self.member(plan)?;
        with_tier!(self.counts, c => self.rank_expr_at(c, d, plan).map(|r| r.to_nat()))
    }

    /// The dense id of `plan`'s root operator, if it is in the memo.
    fn member(&self, plan: &PlanNode) -> Result<DenseId, SpaceError> {
        self.links
            .ids()
            .dense_checked(plan.id)
            .ok_or(SpaceError::ForeignPlan { at: plan.id })
    }

    /// The stored running sum of the alternatives preceding the plan's
    /// operator, plus its local rank. Like unranking, this runs in the
    /// word the counts are stored in: every intermediate is bounded by
    /// a list total of the space.
    fn rank_in<W: Word>(
        &self,
        counts: &TierCounts<W>,
        list: ListId,
        plan: &PlanNode,
    ) -> Result<W, SpaceError> {
        let target = self.member(plan)?;
        // Every list ascends in dense id (`Links` builds them so and
        // checks it of loaded ones).
        let at = self
            .links
            .list(list)
            .binary_search(&target)
            .map_err(|_| SpaceError::ForeignPlan { at: plan.id })?;
        let mut rank = self.rank_expr_at(counts, target, plan)?;
        if at > 0 {
            rank += &counts.list_sums(&self.links, list)[at - 1];
        }
        Ok(rank)
    }

    /// Recomposes the local rank from the children's sub-ranks:
    /// `r_l = Σ_i s_v(i) · B_v(i−1)`.
    fn rank_expr_at<W: Word>(
        &self,
        counts: &TierCounts<W>,
        d: DenseId,
        plan: &PlanNode,
    ) -> Result<W, SpaceError> {
        let lists = self.links.slot_lists(d);
        if lists.len() != plan.children.len() {
            return Err(SpaceError::ForeignPlan { at: plan.id });
        }
        let mut local = W::ZERO;
        let mut multiplier = W::ONE;
        for (&l, child) in lists.iter().zip(&plan.children) {
            let mut term = self.rank_in(counts, l, child)?;
            term *= &multiplier;
            local += &term;
            multiplier *= counts.list_total(l);
        }
        Ok(local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;
    use crate::PlanSpace;
    use plansample_memo::PlanNode;

    #[test]
    fn rank_inverts_unrank_on_the_paper_example() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        for r in 0..32u64 {
            let plan = space.unrank(&Nat::from(r)).unwrap();
            assert_eq!(space.rank(&plan).unwrap(), Nat::from(r), "round trip {r}");
        }
    }

    #[test]
    fn appendix_plan_ranks_to_13() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let plan = PlanNode {
            id: ex.root_c_ab,
            children: vec![
                PlanNode::leaf(ex.idx_scan_c),
                PlanNode {
                    id: ex.merge_join_ab,
                    children: vec![PlanNode::leaf(ex.idx_scan_a), PlanNode::leaf(ex.idx_scan_b)],
                },
            ],
        };
        assert_eq!(space.rank(&plan).unwrap(), Nat::from(13u64));
    }

    #[test]
    fn foreign_plan_is_rejected() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        // A merge join fed by an unsorted table scan is not in the space.
        let bogus = PlanNode {
            id: ex.root_c_ab,
            children: vec![
                PlanNode::leaf(ex.idx_scan_c),
                PlanNode {
                    id: ex.merge_join_ab,
                    children: vec![
                        PlanNode::leaf(ex.table_scan_a),
                        PlanNode::leaf(ex.idx_scan_b),
                    ],
                },
            ],
        };
        assert!(matches!(
            space.rank(&bogus),
            Err(SpaceError::ForeignPlan { .. })
        ));
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let truncated = PlanNode {
            id: ex.root_c_ab,
            children: vec![PlanNode::leaf(ex.idx_scan_c)],
        };
        assert!(matches!(
            space.rank(&truncated),
            Err(SpaceError::ForeignPlan { .. })
        ));
    }
}
