//! Reusable flat plan batches — the allocation-free sampling surface.
//!
//! A [`PlanBatch`] holds `k` sampled plans as one contiguous buffer of
//! preorder [`PhysId`]s plus a bounds table, CSR-style, mirroring the
//! flat layout philosophy of [`crate::Links`]: after the first batch
//! warms its capacity, refilling it allocates nothing. A *costed* fill
//! ([`crate::PlanSpace::sample_batch_costed`], or
//! [`crate::PreparedQuery::sample_batch_scaled`]) also leaves one cost per
//! plan in a column beside the bounds, summed during the walk that
//! produced the ids, so a caller that wants both never reads a plan
//! twice. The serving layer's `SampleBatch` path, the CLI and the
//! throughput benchmark all sample through this type; callers that want
//! trees keep using [`crate::PlanSpace::sample_batch`], which returns
//! [`PlanNode`](plansample_memo::PlanNode)s.
//!
//! A preorder id sequence determines the plan tree uniquely (each
//! operator's arity is known from the memo), so the flat form loses no
//! information — [`PlanNode::preorder_ids`](plansample_memo::PlanNode::preorder_ids)
//! is the inverse direction, and the differential tests compare the two
//! representations directly; `PlanSpace::lift` is the way back to a tree.

use crate::ListId;
use plansample_bignum::Nat;
use plansample_memo::PhysId;

/// An operator the walk has entered and not yet left: what a costed
/// fill keeps of it until its last child's subtree is complete.
#[derive(Debug, Clone)]
pub(crate) struct OpenOp {
    /// Children not yet complete.
    pub(crate) pending: usize,
    /// The operator's own cost.
    pub(crate) local: f64,
    /// The complete children's subtree costs, summed left to right.
    pub(crate) children: f64,
}

/// Unrank scratch in word `W`, kept in the batch so its capacity
/// survives across draws and fills.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch<W> {
    /// The unranker's explicit recursion stack: `(list, sub-rank)`.
    pub(crate) stack: Vec<(ListId, W)>,
    /// A costed fill's open operators, root first (at most the plan's
    /// depth).
    pub(crate) open: Vec<OpenOp>,
}

impl<W> Scratch<W> {
    fn size_bytes(&self) -> usize {
        self.stack.capacity() * std::mem::size_of::<(ListId, W)>()
            + self.open.capacity() * std::mem::size_of::<OpenOp>()
    }
}

/// The one scratch slot of a [`PlanBatch`], tagged with the tier that
/// last filled it (see `Word::scratch`). A batch refilled from the same
/// space — the serving steady state — never retags.
#[derive(Debug, Clone)]
pub(crate) enum TierScratch {
    U64(Scratch<u64>),
    U128(Scratch<u128>),
    Nat(Scratch<Nat>),
}

impl Default for TierScratch {
    fn default() -> Self {
        TierScratch::U64(Scratch::default())
    }
}

/// A resizable, reusable batch of flat plans.
///
/// Obtain one with [`PlanBatch::new`], pass it to
/// [`crate::PlanSpace::sample_batch_flat`],
/// [`sample_batch_costed`](crate::PlanSpace::sample_batch_costed) or
/// [`crate::PreparedQuery::sample_batch_scaled`] as many times as
/// needed; each fill clears the previous content but keeps the capacity.
#[derive(Debug, Default, Clone)]
pub struct PlanBatch {
    /// Preorder operator ids of every plan, concatenated.
    ids: Vec<PhysId>,
    /// Plan `p` = `ids[bounds[p] as usize .. bounds[p+1] as usize]`;
    /// always starts with 0.
    bounds: Vec<u32>,
    /// Plan `p`'s cost after a costed fill; empty after a plain one.
    costs: Vec<f64>,
    /// Unrank scratch, in the filling space's word.
    pub(crate) scratch: TierScratch,
}

impl PlanBatch {
    /// An empty batch; buffers grow on first use and are kept thereafter.
    pub fn new() -> PlanBatch {
        PlanBatch::default()
    }

    /// Number of plans currently held.
    pub fn len(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// Whether the batch holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `p`-th plan as its preorder id sequence.
    ///
    /// # Panics
    /// Panics when `p >= len()`.
    #[inline]
    pub fn plan(&self, p: usize) -> &[PhysId] {
        &self.ids[self.bounds[p] as usize..self.bounds[p + 1] as usize]
    }

    /// Iterates the plans in draw order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[PhysId]> + '_ {
        (0..self.len()).map(|p| self.plan(p))
    }

    /// One cost per plan, in draw order, when the batch was last filled
    /// by a costed fill — in that fill's unit: total plan cost from
    /// [`crate::PlanSpace::sample_batch_costed`], cost scaled to the
    /// optimizer's plan from
    /// [`crate::PreparedQuery::sample_batch_scaled`]. Empty after
    /// [`crate::PlanSpace::sample_batch_flat`].
    pub fn costs(&self) -> &[f64] {
        &self.costs
    }

    /// Drops the plans, keeping every buffer's capacity.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.bounds.clear();
        self.costs.clear();
    }

    /// Total preorder ids across all plans (the buffer payload size).
    pub fn total_nodes(&self) -> usize {
        self.ids.len()
    }

    /// Begins a fill: ensures the leading 0 bound is in place.
    pub(crate) fn start_fill(&mut self) {
        self.clear();
        self.bounds.push(0);
    }

    /// Direct access to the id buffer for the unrank fast path; the
    /// caller appends one plan's preorder ids then calls
    /// [`finish_plan`](Self::finish_plan).
    pub(crate) fn ids_mut(&mut self) -> &mut Vec<PhysId> {
        &mut self.ids
    }

    /// Seals the ids appended since the previous seal as one plan.
    pub(crate) fn finish_plan(&mut self) {
        debug_assert!(!self.bounds.is_empty(), "start_fill must come first");
        self.bounds.push(self.ids.len() as u32);
    }

    /// The cost column, for a costed fill to push to (one per sealed
    /// plan) or rescale.
    pub(crate) fn costs_mut(&mut self) -> &mut Vec<f64> {
        &mut self.costs
    }

    /// Bytes of memory held by the buffers, capacity-accurate.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.ids.capacity() * std::mem::size_of::<PhysId>()
            + self.bounds.capacity() * std::mem::size_of::<u32>()
            + self.costs.capacity() * std::mem::size_of::<f64>()
            + match &self.scratch {
                TierScratch::U64(s) => s.size_bytes(),
                TierScratch::U128(s) => s.size_bytes(),
                TierScratch::Nat(s) => s.size_bytes(),
            }
    }
}

impl<'a> IntoIterator for &'a PlanBatch {
    type Item = &'a [PhysId];
    type IntoIter = Box<dyn ExactSizeIterator<Item = &'a [PhysId]> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;
    use crate::PlanSpace;
    use plansample_bignum::Nat;

    /// A batch holding the plans of `ranks`, in order.
    fn batch_of(space: &PlanSpace, ranks: &[u64]) -> PlanBatch {
        let mut batch = PlanBatch::new();
        batch.start_fill();
        for &r in ranks {
            let tree = space.unrank(&Nat::from(r)).unwrap();
            batch.ids_mut().extend(tree.preorder_ids());
            batch.finish_plan();
        }
        batch
    }

    #[test]
    fn plans_are_sealed_in_order() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let batch = batch_of(&space, &[0, 13, 31]);
        assert_eq!(batch.len(), 3);
        for (p, r) in [0u64, 13, 31].iter().enumerate() {
            let tree = space.unrank(&Nat::from(*r)).unwrap();
            assert_eq!(batch.plan(p), tree.preorder_ids().as_slice());
        }
        assert_eq!(
            batch.total_nodes(),
            batch.iter().map(<[PhysId]>::len).sum::<usize>()
        );
    }

    #[test]
    fn clear_keeps_capacity() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let mut batch = batch_of(&space, &[0]);
        let cap = batch.ids.capacity();
        assert!(cap > 0);
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.ids.capacity(), cap);
    }
}
