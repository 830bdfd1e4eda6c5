//! Dense expression ids: a memo-wide contiguous numbering of physical
//! expressions.
//!
//! [`PhysId`] is the *nominal* identity of a physical expression —
//! `(group, index)`, matching the paper's `7.7`-style labels — but it is
//! a poor array index: consumers either nest `Vec<Vec<…>>` per group or
//! hash. [`DenseId`] assigns every physical expression of a memo a
//! contiguous `u32` (group order, then position within the group), so
//! per-expression tables become single flat vectors and the whole
//! counting/unranking machinery turns into linear passes over cache-
//! friendly buffers. [`DenseIdMap`] is the bidirectional table; both
//! directions are O(1).

use crate::{GroupId, Memo, PhysId};

/// A memo-wide contiguous physical-expression number (`0 .. num_physical`).
///
/// Issued by [`DenseIdMap::build`]; only meaningful relative to the memo
/// the map was built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DenseId(pub u32);

impl DenseId {
    /// The id as a usize array index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Bidirectional `PhysId ↔ DenseId` table for one memo.
///
/// Dense ids are assigned in group order, then expression order, so all
/// expressions of one group occupy a contiguous range
/// ([`DenseIdMap::group_range`]) — which is why the root group's
/// alternatives need no materialized id list of their own.
#[derive(Debug, Clone)]
pub struct DenseIdMap {
    /// `starts[g] .. starts[g+1]` is the dense range of group `g`.
    starts: Vec<u32>,
    /// Owning group of each dense id (the O(1) reverse direction).
    group_of: Vec<u32>,
}

impl DenseIdMap {
    /// Numbers every physical expression of `memo`.
    ///
    /// # Panics
    /// Panics if the memo holds ≥ 2³¹ physical expressions: ids, the
    /// one-past-the-end bound in `starts` and the levels
    /// [`Links::build`](crate::Links::build) folds (at most one
    /// per expression) are `u32`, and the fold reserves `u32::MAX` and
    /// `u32::MAX − 1` as sentinels, so the bound keeps every value far
    /// below them.
    pub fn build(memo: &Memo) -> DenseIdMap {
        let total = memo.num_physical();
        assert!(total < (1 << 31), "memo too large for dense u32 ids");
        let mut starts = Vec::with_capacity(memo.num_groups() + 1);
        let mut group_of = Vec::with_capacity(total);
        starts.push(0u32);
        for group in memo.groups() {
            group_of.extend(std::iter::repeat_n(group.id.0, group.physical.len()));
            starts.push(group_of.len() as u32);
        }
        DenseIdMap { starts, group_of }
    }

    /// Number of physical expressions covered (the memo's size).
    pub fn len(&self) -> usize {
        self.group_of.len()
    }

    /// `true` when the memo holds no physical expressions.
    pub fn is_empty(&self) -> bool {
        self.group_of.is_empty()
    }

    /// The dense id of `id`.
    ///
    /// # Panics
    /// Panics when `id` does not belong to the mapped memo.
    #[inline]
    pub fn dense(&self, id: PhysId) -> DenseId {
        self.dense_checked(id)
            .unwrap_or_else(|| panic!("expression {id} is not part of this memo"))
    }

    /// The dense id of `id`, or `None` when `id` does not belong to the
    /// mapped memo (e.g. a plan node from a different memo).
    #[inline]
    pub fn dense_checked(&self, id: PhysId) -> Option<DenseId> {
        let g = id.group.0 as usize;
        if g + 1 >= self.starts.len() {
            return None;
        }
        let start = self.starts[g] as usize;
        let end = self.starts[g + 1] as usize;
        if id.index >= end - start {
            return None;
        }
        Some(DenseId((start + id.index) as u32))
    }

    /// The nominal `(group, index)` id behind a dense id.
    ///
    /// # Panics
    /// Panics when `d` is out of range.
    #[inline]
    pub fn phys(&self, d: DenseId) -> PhysId {
        let g = self.group_of[d.idx()];
        PhysId {
            group: GroupId(g),
            index: (d.0 - self.starts[g as usize]) as usize,
        }
    }

    /// The contiguous dense range of a group's expressions.
    #[inline]
    pub fn group_range(&self, group: GroupId) -> std::ops::Range<u32> {
        let g = group.0 as usize;
        self.starts[g]..self.starts[g + 1]
    }

    /// Iterates every `(DenseId, PhysId)` pair in dense order.
    pub fn iter(&self) -> impl Iterator<Item = (DenseId, PhysId)> + '_ {
        (0..self.len() as u32).map(|d| (DenseId(d), self.phys(DenseId(d))))
    }

    /// Heap bytes held by the table's flat buffers.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.starts.capacity() * std::mem::size_of::<u32>()
            + self.group_of.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GroupKey, PhysicalExpr, PhysicalOp};
    use plansample_query::{RelId, RelSet};

    fn scan(rel: u32) -> PhysicalExpr {
        PhysicalExpr::new(PhysicalOp::TableScan { rel: RelId(rel) }, 1.0, 1.0)
    }

    fn idx(rel: u32) -> PhysicalExpr {
        let col = plansample_query::ColRef {
            rel: RelId(rel),
            col: 0,
        };
        PhysicalExpr::new(
            PhysicalOp::SortedIdxScan {
                rel: RelId(rel),
                col,
            },
            1.0,
            1.0,
        )
    }

    /// Three groups with 2, 0, and 1 expressions: the empty middle group
    /// exercises the degenerate range.
    fn memo_with_gap() -> Memo {
        let mut memo = Memo::new();
        let g0 = memo.add_group(GroupKey::Rels(RelSet::singleton(RelId(0))));
        memo.add_physical(g0, scan(0)).unwrap();
        memo.add_physical(g0, idx(0)).unwrap();
        memo.add_group(GroupKey::Rels(RelSet::singleton(RelId(1))));
        let g2 = memo.add_group(GroupKey::Rels(RelSet::singleton(RelId(2))));
        memo.add_physical(g2, scan(2)).unwrap();
        memo
    }

    #[test]
    fn round_trips_over_every_expression() {
        let memo = memo_with_gap();
        let map = DenseIdMap::build(&memo);
        assert_eq!(map.len(), 3);
        assert!(!map.is_empty());
        for group in memo.groups() {
            for (id, _) in group.phys_iter() {
                let d = map.dense(id);
                assert_eq!(map.phys(d), id);
            }
        }
        // Dense ids are exactly 0..len, in group order.
        let all: Vec<u32> = map.iter().map(|(d, _)| d.0).collect();
        assert_eq!(all, vec![0, 1, 2]);
        assert_eq!(
            map.phys(DenseId(2)),
            PhysId {
                group: GroupId(2),
                index: 0
            }
        );
    }

    #[test]
    fn group_ranges_are_contiguous_and_cover_empty_groups() {
        let memo = memo_with_gap();
        let map = DenseIdMap::build(&memo);
        assert_eq!(map.group_range(GroupId(0)), 0..2);
        assert_eq!(map.group_range(GroupId(1)), 2..2);
        assert_eq!(map.group_range(GroupId(2)), 2..3);
    }

    #[test]
    fn foreign_ids_are_rejected() {
        let memo = memo_with_gap();
        let map = DenseIdMap::build(&memo);
        assert_eq!(
            map.dense_checked(PhysId {
                group: GroupId(7),
                index: 0
            }),
            None
        );
        assert_eq!(
            map.dense_checked(PhysId {
                group: GroupId(0),
                index: 2
            }),
            None
        );
        assert_eq!(
            map.dense_checked(PhysId {
                group: GroupId(1),
                index: 0
            }),
            None,
            "empty group has no expressions"
        );
    }

    #[test]
    #[should_panic(expected = "not part of this memo")]
    fn dense_panics_on_foreign_id() {
        let map = DenseIdMap::build(&memo_with_gap());
        map.dense(PhysId {
            group: GroupId(9),
            index: 9,
        });
    }

    #[test]
    fn empty_memo_maps_nothing() {
        let map = DenseIdMap::build(&Memo::new());
        assert!(map.is_empty());
        assert_eq!(map.iter().count(), 0);
        assert!(map.size_bytes() >= std::mem::size_of::<DenseIdMap>());
    }
}
