//! [`RelSet`]: a compact bitset over the relations of one query block.
//!
//! Group identity in the MEMO (and hence duplicate detection during
//! exploration) is keyed by the set of base relations a sub-plan covers, so
//! this type is on the optimizer's hottest path. Queries are limited to 64
//! relation instances — far beyond anything the paper's workloads (or any
//! sane SQL) contain.

use crate::RelId;
use std::fmt;

/// A set of relation instances, represented as a 64-bit mask.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct RelSet(u64);

impl RelSet {
    /// The empty set.
    pub const EMPTY: RelSet = RelSet(0);

    /// Maximum number of relations representable.
    pub const MAX_RELS: usize = 64;

    /// Singleton set `{rel}`.
    pub fn singleton(rel: RelId) -> Self {
        assert!(
            rel.idx() < Self::MAX_RELS,
            "relation index {} out of range",
            rel.0
        );
        RelSet(1 << rel.0)
    }

    /// Set containing relations `0..n`.
    pub fn all(n: usize) -> Self {
        assert!(n <= Self::MAX_RELS);
        if n == 64 {
            RelSet(u64::MAX)
        } else {
            RelSet((1u64 << n) - 1)
        }
    }

    /// Raw mask (stable across calls; used for hashing/interop).
    pub fn mask(&self) -> u64 {
        self.0
    }

    /// Number of relations in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// `true` iff the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Membership test.
    pub fn contains(&self, rel: RelId) -> bool {
        rel.idx() < Self::MAX_RELS && self.0 & (1 << rel.0) != 0
    }

    /// `true` iff `other` is a subset of `self`.
    pub fn is_superset(&self, other: RelSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// `true` iff the sets share no relation.
    pub fn is_disjoint(&self, other: RelSet) -> bool {
        self.0 & other.0 == 0
    }

    /// Set union.
    pub fn union(&self, other: RelSet) -> RelSet {
        RelSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersect(&self, other: RelSet) -> RelSet {
        RelSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: RelSet) -> RelSet {
        RelSet(self.0 & !other.0)
    }

    /// Inserts a relation.
    pub fn insert(&mut self, rel: RelId) {
        *self = self.union(RelSet::singleton(rel));
    }

    /// Iterates members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = RelId> + '_ {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros();
                bits &= bits - 1;
                Some(RelId(i))
            }
        })
    }

    /// The single member of a singleton set.
    ///
    /// # Panics
    /// Panics unless `len() == 1`.
    pub fn sole_member(&self) -> RelId {
        assert_eq!(self.len(), 1, "sole_member on non-singleton {self:?}");
        RelId(self.0.trailing_zeros())
    }

    /// Enumerates every way to split this set into an unordered pair of
    /// non-empty disjoint halves `(left, right)` with `left ∪ right == self`.
    /// Each unordered pair appears exactly once (the half containing the
    /// lowest relation is reported as `left`).
    pub fn splits(&self) -> Vec<(RelSet, RelSet)> {
        // Fix the lowest member on the left to avoid double counting;
        // its companions are the sub-masks of the rest, in increasing
        // order, short of the whole rest (which would leave the right
        // empty).
        let low = self.0 & self.0.wrapping_neg();
        let rest = self.0 ^ low;
        let mut out = Vec::with_capacity((1usize << rest.count_ones()) - 1);
        let mut sub = 0;
        while sub != rest {
            out.push((RelSet(low | sub), RelSet(rest ^ sub)));
            sub = ((sub | !rest) + 1) & rest;
        }
        out
    }
}

impl FromIterator<RelId> for RelSet {
    fn from_iter<I: IntoIterator<Item = RelId>>(iter: I) -> Self {
        iter.into_iter()
            .fold(RelSet::EMPTY, |acc, r| acc.union(RelSet::singleton(r)))
    }
}

impl fmt::Debug for RelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", r.0)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(ids: &[u32]) -> RelSet {
        RelSet::from_iter(ids.iter().map(|&i| RelId(i)))
    }

    #[test]
    fn basic_set_algebra() {
        let a = rs(&[0, 2, 5]);
        let b = rs(&[2, 3]);
        assert_eq!(a.union(b), rs(&[0, 2, 3, 5]));
        assert_eq!(a.intersect(b), rs(&[2]));
        assert_eq!(a.difference(b), rs(&[0, 5]));
        assert!(a.contains(RelId(2)));
        assert!(!a.contains(RelId(3)));
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert!(RelSet::EMPTY.is_empty());
    }

    #[test]
    fn subset_and_disjoint() {
        let a = rs(&[1, 2, 3]);
        assert!(a.is_superset(rs(&[1, 3])));
        assert!(!a.is_superset(rs(&[0])));
        assert!(a.is_disjoint(rs(&[0, 4])));
        assert!(!a.is_disjoint(rs(&[3, 4])));
        assert!(a.is_superset(RelSet::EMPTY));
    }

    #[test]
    fn iteration_is_sorted() {
        let a = rs(&[5, 1, 9]);
        let v: Vec<u32> = a.iter().map(|r| r.0).collect();
        assert_eq!(v, vec![1, 5, 9]);
    }

    #[test]
    fn all_builds_prefix() {
        assert_eq!(RelSet::all(3), rs(&[0, 1, 2]));
        assert_eq!(RelSet::all(0), RelSet::EMPTY);
        assert_eq!(RelSet::all(64).len(), 64);
    }

    #[test]
    fn sole_member_of_singleton() {
        assert_eq!(RelSet::singleton(RelId(7)).sole_member(), RelId(7));
    }

    #[test]
    #[should_panic(expected = "non-singleton")]
    fn sole_member_rejects_pairs() {
        rs(&[1, 2]).sole_member();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn singleton_out_of_range() {
        RelSet::singleton(RelId(64));
    }

    #[test]
    fn splits_enumerate_unordered_pairs_once() {
        // {0,1,2}: 3 unordered splits: {0}|{1,2}, {0,1}|{2}, {0,2}|{1}.
        let splits = rs(&[0, 1, 2]).splits();
        assert_eq!(splits.len(), 3);
        for (l, r) in &splits {
            assert!(l.is_disjoint(*r));
            assert_eq!(l.union(*r), rs(&[0, 1, 2]));
            assert!(
                l.contains(RelId(0)),
                "canonical split keeps lowest member left"
            );
        }
        // n members -> 2^(n-1) - 1 unordered splits.
        assert_eq!(rs(&[0, 1, 2, 3]).splits().len(), 7);
        assert_eq!(rs(&[3, 9]).splits().len(), 1);
        assert!(rs(&[4]).splits().is_empty());
        assert!(RelSet::EMPTY.splits().is_empty());
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", rs(&[0, 3])), "{0,3}");
    }
}
