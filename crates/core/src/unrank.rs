//! §3.3 — Unranking: constructing plan number `r`.
//!
//! Given `(r, G)`:
//!
//! 1. choose the operator `v_k` of `G` by prefix sums — the first
//!    operator covers ranks `0 … N(v_1)-1`, the second
//!    `N(v_1) … N(v_1)+N(v_2)-1`, and so on — and compute the local rank
//!    `r_l = r − Σ_{i<k} N(v_i)`. The sums are stored
//!    ([`TierCounts`]'s pool), so the choice is a binary search
//!    ([`Word::select`]) and the local rank one subtraction;
//! 2. decompose `r_l` into per-slot sub-ranks. The paper writes this with
//!    the recurrences `R_v(|v|) = r_l`, `R_v(i) = R_v(i+1) mod B_v(i)`,
//!    `s_v(i) = ⌊R_v(i) / B_v(i−1)⌋` (and `s_v(1) = R_v(1)`); since
//!    `B_v(i) = Π_{j≤i} b_v(j)`, these `s_v(i)` are exactly the digits of
//!    `r_l` in the mixed-radix system with bases `b_v(1), b_v(2), …` —
//!    which is how we compute them: one `div_rem` per slot but the last,
//!    whose digit is what is left of the rank (`r_l < B_v(|v|)`, so the
//!    quotient carried past slot `|v|−1` is already below `b_v(|v|)`).
//!    A join divides once, a unary operator not at all;
//! 3. recurse: sub-rank `s_v(i)` is unranked within slot `i`'s
//!    alternative list.
//!
//! Unranking visits one operator per plan node and performs arithmetic
//! linear in the plan size — "a small fraction of the time needed for
//! counting": the tracked benchmark's `core.unrank.tree_us_per_plan`
//! and `core.sample.flat_b*_ns_per_plan` rows against
//! `core.count.compute_ms`. Every `b_v(i)` the mixed-radix
//! decomposition divides by is precomputed per interned alternative
//! list ([`crate::Counts::list_total`]), so no step re-sums alternative
//! counts.
//!
//! There is exactly one implementation of the procedure,
//! [`unrank_flat`]: iterative, generic over the [`Word`] the space's
//! counts are stored in, handing each operator to a caller-supplied
//! visitor in preorder. What is made of a plan is the visitor's
//! business — a preorder id sequence, or that plus the plan's cost
//! folded on the way down (`sample.rs`) — and the walk exists once.
//! Every public entry point — tree or flat, whole-space or rooted,
//! single rank or sampled batch — converts its rank to that word, runs
//! it, and (for the tree-returning ones) lifts the ids back into a
//! [`PlanNode`]. The paper's recursive formulation, dividing once per
//! slot, survives as the independent test oracle in `tests/common`.

use crate::count::{with_tier, TierCounts};
use crate::links::ListId;
use crate::word::Word;
use crate::{Links, PlanSpace, SpaceError};
use plansample_bignum::Nat;
use plansample_memo::{DenseId, PhysId, PlanNode};

/// Walks plan number `local` of the sub-space rooted at expression `v`
/// (`local < N(v)`) in preorder, calling `visit(operator, arity)` once
/// per plan node.
///
/// The walk descends into an operator's first slot directly; only the
/// later slots wait, as `(list, sub-rank)` frames on the explicit
/// `stack`. Nothing is allocated per node, so with `stack` (and
/// whatever the visitor writes to) at capacity a fixed-width call
/// performs zero heap allocations (asserted by
/// `tests/alloc_counting.rs`).
pub(crate) fn unrank_flat<W: Word>(
    links: &Links,
    counts: &TierCounts<W>,
    mut v: DenseId,
    mut local: W,
    stack: &mut Vec<(ListId, W)>,
    mut visit: impl FnMut(DenseId, usize),
) {
    stack.clear();
    loop {
        let slots = links.slot_lists(v);
        visit(v, slots.len());
        // Steps 2 and 3: the next (list, sub-rank) to descend into.
        let (list, rank) = match slots {
            // A leaf: on to the nearest ancestor's next pending slot.
            [] => match stack.pop() {
                Some(frame) => frame,
                None => return,
            },
            [only] => (*only, local),
            // Digit s_v(i) = rest mod b_v(i), carrying rest / b_v(i)
            // onward, the last slot taking what is left undivided. Slot
            // 0's subtree comes first in preorder and is entered now;
            // the others go on the stack last slot first, so that slot 1
            // pops when slot 0's subtree is complete.
            [first, middle @ .., last] => {
                let (mut rest, digit) = local.div_rem(counts.list_total(*first));
                let base = stack.len();
                for &l in middle {
                    let (carry, digit) = rest.div_rem(counts.list_total(l));
                    stack.push((l, digit));
                    rest = carry;
                }
                debug_assert!(
                    rest < *counts.list_total(*last),
                    "local rank exceeded B_v(|v|)"
                );
                stack.push((*last, rest));
                stack[base..].reverse();
                (*first, digit)
            }
        };
        // Step 1: select the slot's operator by searching the list's
        // stored running sums.
        (v, local) = counts.select(links, list, rank);
    }
}

impl PlanSpace {
    /// Builds plan number `rank` (0-based, `rank < total()`).
    pub fn unrank(&self, rank: &Nat) -> Result<PlanNode, SpaceError> {
        if rank >= self.counts.total() {
            return Err(SpaceError::RankOutOfRange {
                rank: rank.clone(),
                total: self.counts.total().clone(),
            });
        }
        Ok(with_tier!(self.counts, c => {
            let rank = Word::from_nat(rank).expect("a rank below the total fits the tier");
            let (v, local) = c.select(&self.links, self.links.root_list(), rank);
            self.unrank_tree(c, v, local)
        }))
    }

    /// [`unrank_flat`] from `(v, local)`, lifted to a tree.
    pub(crate) fn unrank_tree<W: Word>(
        &self,
        counts: &TierCounts<W>,
        v: DenseId,
        local: W,
    ) -> PlanNode {
        let (mut ids, mut stack) = (Vec::with_capacity(32), Vec::with_capacity(16));
        unrank_flat(&self.links, counts, v, local, &mut stack, |v, _| {
            ids.push(self.links.ids().phys(v))
        });
        self.lift(&ids)
    }

    /// Rebuilds the tree a preorder id sequence denotes (each
    /// operator's arity is known from the links, so the sequence
    /// determines the tree). Inverse of [`PlanNode::preorder_ids`].
    ///
    /// `ids` must be the preorder listing of one plan of this space.
    pub(crate) fn lift(&self, ids: &[PhysId]) -> PlanNode {
        // Reverse preorder completes every subtree before its parent
        // and pushes the leftmost child last, so each operator's
        // children are the top `arity` finished nodes, top first.
        let mut done: Vec<PlanNode> = Vec::with_capacity(ids.len());
        for &id in ids.iter().rev() {
            let at = done.len() - self.links.arity_of(id);
            let mut children = done.split_off(at);
            children.reverse();
            done.push(PlanNode { id, children });
        }
        let root = done.pop().expect("a plan has at least one operator");
        assert!(done.is_empty(), "preorder did not form one tree");
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;
    use crate::PlanSpace;
    use plansample_memo::validate_plan;

    #[test]
    fn appendix_example_rank_13() {
        // The paper's appendix unranks (13, group 7) and obtains the
        // operators 7.7, 4.3, 3.4, 2.3, 1.3. In fixture terms: the root
        // HashJoin(C, A⋈B) over SortedIdxScan_C and MergeJoin(A,B) over
        // SortedIdxScan_A / SortedIdxScan_B.
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let plan = space.unrank(&Nat::from(13u64)).unwrap();

        assert_eq!(plan.id, ex.root_c_ab); // 7.7
        assert_eq!(plan.children.len(), 2);
        assert_eq!(plan.children[0].id, ex.idx_scan_c); // 4.3
        let inner = &plan.children[1];
        assert_eq!(inner.id, ex.merge_join_ab); // 3.4
        assert_eq!(inner.children[0].id, ex.idx_scan_a); // 1.3
        assert_eq!(inner.children[1].id, ex.idx_scan_b); // 2.3

        let ids = plan.preorder_ids();
        assert_eq!(
            ids,
            vec![
                ex.root_c_ab,
                ex.idx_scan_c,
                ex.merge_join_ab,
                ex.idx_scan_a,
                ex.idx_scan_b
            ]
        );
    }

    #[test]
    fn every_rank_yields_a_distinct_valid_plan() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let total = space.total().to_u64().unwrap();
        assert_eq!(total, 32);
        let mut seen = std::collections::HashSet::new();
        for r in 0..total {
            let plan = space.unrank(&Nat::from(r)).unwrap();
            assert!(
                validate_plan(&ex.memo, &ex.query, &plan).is_empty(),
                "rank {r} must be a valid plan"
            );
            assert!(
                seen.insert(format!("{:?}", plan.preorder_ids())),
                "rank {r} duplicated a plan"
            );
        }
    }

    #[test]
    fn rank_zero_picks_first_alternatives() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let plan = space.unrank(&Nat::zero()).unwrap();
        assert_eq!(plan.id, ex.root_c_ab);
        assert_eq!(plan.children[0].id, ex.table_scan_c);
        assert_eq!(plan.children[1].id, ex.hash_join_ab);
        assert_eq!(plan.children[1].children[0].id, ex.table_scan_a);
        assert_eq!(plan.children[1].children[1].id, ex.table_scan_b);
    }

    #[test]
    fn out_of_range_rank_is_rejected() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let err = space.unrank(&Nat::from(32u64)).unwrap_err();
        assert!(matches!(err, SpaceError::RankOutOfRange { .. }));
        assert!(space.unrank(&Nat::from(31u64)).is_ok());
    }

    #[test]
    fn last_rank_uses_last_root_operator() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let plan = space.unrank(&Nat::from(31u64)).unwrap();
        assert_eq!(plan.id, ex.root_ab_c); // 7.8-analogue covers 16..31
    }
}
