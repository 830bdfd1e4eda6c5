//! Exhaustive generation of the plan space, and resumable cursors.
//!
//! Enumeration is sequential unranking of `0, 1, …, N−1` — the paper's
//! "exhaustive testing" mode for small spaces, doubling as a stress test
//! of unranking. [`PlanCursor`] packages it as a resumable iterator:
//! because position is just a rank, a cursor can start (or jump) at any
//! point of a `10^20`-plan space for the cost of one unranking instead of
//! walking there from zero — pagination over astronomically large spaces
//! is as cheap as pagination over small ones.

use crate::PlanSpace;
use plansample_bignum::Nat;
use plansample_memo::PlanNode;

/// A resumable cursor over a plan space, in rank order.
///
/// Created by [`PlanSpace::enumerate`] /
/// [`PlanSpace::enumerate_from`] (also exposed on
/// [`crate::PreparedQuery`]). Implements [`Iterator`]; `nth`-style skips
/// — including the standard [`Iterator::skip`] / [`Iterator::nth`]
/// adapters — jump by rank arithmetic rather than generating and
/// discarding plans, so `cursor.skip(1_000_000)` costs one big-integer
/// addition, not a million unrankings.
///
/// ```
/// use plansample::PreparedQuery;
/// use plansample_bignum::Nat;
/// use plansample_optimizer::OptimizerConfig;
///
/// let (catalog, _) = plansample_catalog::tpch::catalog();
/// let query = plansample_query::tpch::q6(&catalog);
/// let prepared = PreparedQuery::prepare(&catalog, &query, &OptimizerConfig::default()).unwrap();
///
/// // Page through the space three plans at a time, resuming by rank.
/// let page1: Vec<_> = prepared.enumerate_from(Nat::zero()).take(3).collect();
/// let mut cursor = prepared.enumerate_from(Nat::from(3u64));
/// let page2: Vec<_> = cursor.by_ref().take(3).collect();
/// assert_eq!(page1.len(), 3);
/// assert_ne!(page1, page2);
/// assert_eq!(cursor.next_rank(), &Nat::from(6u64));
/// ```
#[derive(Debug, Clone)]
pub struct PlanCursor<'a> {
    space: &'a PlanSpace,
    next: Nat,
}

impl<'a> PlanCursor<'a> {
    pub(crate) fn new(space: &'a PlanSpace, start: Nat) -> Self {
        PlanCursor { space, next: start }
    }

    /// The rank the next call to [`Iterator::next`] will produce, i.e.
    /// the cursor's current position. Equals `total()` once exhausted.
    pub fn next_rank(&self) -> &Nat {
        &self.next
    }

    /// Repositions the cursor to an absolute rank (forwards or
    /// backwards) in O(1).
    pub fn seek(&mut self, rank: Nat) {
        self.next = rank;
    }

    /// Returns up to `k` plans starting at the current position and
    /// advances past them — one page of results.
    pub fn next_page(&mut self, k: usize) -> Vec<PlanNode> {
        self.by_ref().take(k).collect()
    }
}

impl Iterator for PlanCursor<'_> {
    type Item = PlanNode;

    fn next(&mut self) -> Option<PlanNode> {
        if self.next >= *self.space.total() {
            // Clamp so `next_rank()`'s exhaustion invariant holds even
            // after an overshooting `nth`/`skip`/`seek`.
            self.next = self.space.total().clone();
            return None;
        }
        let plan = self
            .space
            .unrank(&self.next)
            .expect("ranks below the total are valid");
        self.next.incr();
        Some(plan)
    }

    fn nth(&mut self, n: usize) -> Option<PlanNode> {
        // Jump by rank arithmetic: skipping n plans costs one addition.
        self.next += &Nat::from(n as u64);
        self.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self
            .space
            .total()
            .checked_sub(&self.next)
            .unwrap_or_else(Nat::zero);
        match remaining.to_u64() {
            Some(r) if r <= usize::MAX as u64 => (r as usize, Some(r as usize)),
            _ => (usize::MAX, None),
        }
    }
}

impl PlanSpace {
    /// Streams every plan of the space in rank order.
    pub fn enumerate(&self) -> PlanCursor<'_> {
        self.enumerate_from(Nat::zero())
    }

    /// Streams plans in rank order starting at `rank` — the resumable
    /// entry point for paginating a space. A starting rank at or past
    /// `total()` yields an exhausted cursor (mirroring
    /// `enumerate().skip(rank)`), so pagination loops need no bounds
    /// bookkeeping.
    pub fn enumerate_from(&self, rank: Nat) -> PlanCursor<'_> {
        PlanCursor::new(self, rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;
    use crate::PlanSpace;
    use plansample_memo::validate_plan;

    #[test]
    fn enumerate_produces_exactly_n_distinct_plans() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let plans: Vec<_> = space.enumerate().collect();
        assert_eq!(plans.len(), 32);
        let distinct: std::collections::HashSet<String> = plans
            .iter()
            .map(|p| format!("{:?}", p.preorder_ids()))
            .collect();
        assert_eq!(distinct.len(), 32);
        for p in &plans {
            assert!(validate_plan(&ex.memo, &ex.query, p).is_empty());
        }
    }

    #[test]
    fn enumerate_from_matches_skipping() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        for start in [0u64, 1, 13, 31, 32, 100] {
            let resumed: Vec<_> = space.enumerate_from(Nat::from(start)).collect();
            let skipped: Vec<_> = space.enumerate().skip(start as usize).collect();
            assert_eq!(resumed, skipped, "start {start}");
        }
    }

    #[test]
    fn cursor_nth_jumps_by_rank() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let mut cursor = space.enumerate();
        let plan = cursor.nth(13).unwrap();
        assert_eq!(space.rank(&plan).unwrap(), Nat::from(13u64));
        assert_eq!(cursor.next_rank(), &Nat::from(14u64));
        // `skip` routes through `nth`, so it jumps too.
        let mut skipped = space.enumerate().skip(31);
        let plan = skipped.next().unwrap();
        assert_eq!(space.rank(&plan).unwrap(), Nat::from(31u64));
        assert!(skipped.next().is_none());
        assert!(space.enumerate().nth(32).is_none());
    }

    #[test]
    fn cursor_pages_cover_the_space_without_overlap() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let mut cursor = space.enumerate();
        let mut all = Vec::new();
        loop {
            let page = cursor.next_page(10);
            if page.is_empty() {
                break;
            }
            all.extend(page);
        }
        assert_eq!(all, space.enumerate().collect::<Vec<_>>());
        assert_eq!(cursor.next_rank(), space.total());
    }

    #[test]
    fn cursor_seek_repositions() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let mut cursor = space.enumerate();
        cursor.seek(Nat::from(30u64));
        assert_eq!(cursor.by_ref().count(), 2);
        cursor.seek(Nat::zero());
        assert_eq!(cursor.size_hint(), (32, Some(32)));
    }

    #[test]
    fn take_caps_enumeration() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        assert_eq!(space.enumerate().take(5).count(), 5);
        assert_eq!(space.enumerate().take(0).count(), 0);
        assert_eq!(space.enumerate().take(1000).count(), 32);
    }
}
