//! §3.1 — Preparatory steps: materializing the links between operators
//! and their possible children.
//!
//! "In order to facilitate later operations we extract all physical
//! operators and materialize the links between operators and their
//! possible children." For every physical expression and every child
//! slot, [`Links`] records the list of compatible child expressions
//! (property-filtered by the one rule of `plansample_memo`'s `links`
//! module). The resulting structure describes all possible execution
//! plans rooted in each operator and is what counting and unranking
//! traverse.
//!
//! # One table
//!
//! The links *are* the tables [`MemoScan::build`] makes — the scan the
//! optimizer's best-plan extraction folds its costs over — moved in
//! without a copy or a repack, the topological order among them.
//! [`Links`] adds one thing: the root group's list.
//!
//! # Flat layout
//!
//! Expressions are addressed by [`DenseId`] (a memo-wide contiguous
//! `u32`, see [`DenseIdMap`]) and the links are stored in three flat
//! buffers:
//!
//! ```text
//!   pool:        [DenseId]      all alternative lists, concatenated
//!   list_bounds: [u32]          list l = pool[list_bounds[l] .. list_bounds[l+1]]
//!   slots:       [SlotRecord]   expr d's slot → list, padded with ListId::NONE
//! ```
//!
//! The lists are CSR; the slots are not. No operator has more than
//! [`MAX_SLOTS`](plansample_memo::MAX_SLOTS) children and 98 % of a join
//! memo's expressions are binary joins, so one fixed record per
//! expression is *smaller* than a bounds table plus a concatenated slot
//! table (`8·n` against `4·(n+1) + 4·slots` bytes, `slots ≈ 1.96·n`) and
//! an unranking step reads it in one load instead of two dependent ones.
//! The serialization view ([`LinksParts`]) keeps the CSR pair, so
//! artifacts did not change when the resident table did.
//!
//! Alternative lists are *interned*: two slots demanding the same
//! `(group, requirement)` — or even different requirements that filter
//! down to the same child set — share one [`ListId`]. Sibling joins over
//! the same input groups share most of their lists, which collapses both
//! the memory footprint and the property tests, from "once per slot and
//! candidate" to "once per distinct slot and delivered order". The
//! per-list slot totals `b_v(i)` of §3.2 are likewise computed once per
//! distinct list (see [`crate::Counts`]).
//!
//! The scan also orders the plan graph children before parents, by
//! level, in the one fold that verifies acyclicity — the order both
//! bottom-up folds walk, the optimizer's cost minimum and §3.2's count.
//! Memos produced by the optimizer are acyclic by construction (joins
//! reference strictly smaller relation sets; enforcers never feed
//! enforcers), but hand-built memos are checked defensively.

use crate::SpaceError;
use plansample_memo::{DenseId, DenseIdMap, ListId, Memo, MemoScan, PhysId, SlotRecord};
use plansample_query::QuerySpec;

/// A [`Links`] as raw `u32` tables, every one of them CSR — the
/// serialization view a plan-space artifact stores and reloads
/// byte-for-byte (see `plansample-artifact`). Produced by
/// [`Links::to_parts`], consumed (and validated) by
/// [`Links::from_parts`]. The slots are listed here as a bounds table
/// and a concatenated table, not as the padded records the links keep
/// resident: the view has no sentinel and no width to agree on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinksParts {
    /// All interned alternative lists, concatenated ([`DenseId`] raws).
    pub pool: Vec<u32>,
    /// List `l` = `pool[list_bounds[l] .. list_bounds[l+1]]`.
    pub list_bounds: Vec<u32>,
    /// Per-expression slot → interned list ([`ListId`] raws).
    pub slot_lists: Vec<u32>,
    /// Expr `d`'s slots = `slot_lists[slot_bounds[d] .. slot_bounds[d+1]]`.
    pub slot_bounds: Vec<u32>,
    /// Every expression, children before parents ([`DenseId`] raws):
    /// the scan's order, by level and then dense id (see
    /// [`MemoScan::build`]). A load checks that it is a permutation in
    /// which every list's members precede every expression that reads
    /// it — any such order, not necessarily the scan's.
    pub topo: Vec<u32>,
    /// The root group's interned alternative list.
    pub root_list: u32,
}

/// Materialized parent→child links for every physical expression, in the
/// flat layout described in the module docs above.
#[derive(Debug, Clone)]
pub struct Links {
    ids: DenseIdMap,
    /// All interned alternative lists, concatenated; each list strictly
    /// ascending (group order is dense order), which ranking searches.
    pool: Vec<DenseId>,
    /// `list_bounds[l]..list_bounds[l+1]` bounds list `l` in `pool`.
    list_bounds: Vec<u32>,
    /// Expr `d`'s slot → interned list, in slot order.
    slots: Vec<SlotRecord>,
    /// Every expression, children before parents: the scan's order.
    topo: Vec<DenseId>,
    /// The root group's expressions as an interned list — the alternative
    /// list the whole-space operations start from.
    root_list: ListId,
}

impl Links {
    /// Materializes all links in their topological order (failing on
    /// cyclic hand-built memos). Sequential, and a pure function of the
    /// memo:
    ///
    /// 1. **Scan**: [`MemoScan::build`] decides each distinct child slot
    ///    once per *class* of its group — the expressions that deliver
    ///    one order — gives slots that accept the same classes one list,
    ///    writes each slot's list into its expression's [`SlotRecord`],
    ///    and orders the expressions by level. Lists are numbered as the
    ///    slots that first name them are met, which pins pool layout and
    ///    [`ListId`] assignment. Its ids, pool, bounds, records and order
    ///    *are* the links' own; a cycle is [`SpaceError::CyclicMemo`].
    /// 2. **Root**: the root group's full range joins the pool, unless a
    ///    slot already lists exactly that. No expression's slot is the
    ///    root list, so the order stands.
    ///
    /// This entry point scans the memo itself;
    /// [`PreparedQuery::prepare`](crate::PreparedQuery::prepare) instead
    /// hands over the scan its optimizer's best-plan extraction ran on,
    /// so a prepare scans once. Either way `from_scan` runs pass 2.
    pub fn build(memo: &Memo, query: &QuerySpec) -> Result<Links, SpaceError> {
        let scan = MemoScan::build(memo, query).map_err(|at| SpaceError::CyclicMemo { at })?;
        Ok(Links::from_scan(memo, scan))
    }

    /// Pass 2 of [`build`](Self::build), over `scan`, which must be
    /// `memo`'s: its tables move in as they are.
    pub(crate) fn from_scan(memo: &Memo, scan: MemoScan) -> Links {
        let MemoScan {
            ids,
            mut pool,
            mut list_bounds,
            slots,
            topo,
        } = scan;

        // A list is an ascending subset of one group's range, so one as
        // long as the root's range that starts where it starts is it.
        let root = ids.group_range(memo.root());
        let is_root = |w: &[u32]| {
            w[1] - w[0] == root.len() as u32
                && pool[w[0] as usize..w[1] as usize]
                    .first()
                    .is_none_or(|d| d.0 == root.start)
        };
        let root_list = match list_bounds.windows(2).position(is_root) {
            Some(l) => ListId(l as u32),
            None => {
                pool.extend(root.map(DenseId));
                list_bounds.push(pool.len() as u32);
                ListId(list_bounds.len() as u32 - 2)
            }
        };

        // The links back a long-lived, byte-budgeted artifact: drop the
        // growth slack the root list left in the flat buffers.
        pool.shrink_to_fit();
        list_bounds.shrink_to_fit();

        Links {
            ids,
            pool,
            list_bounds,
            slots,
            topo,
            root_list,
        }
    }

    /// Copies the tables out as raw `u32` CSR buffers for
    /// serialization, expanding the slot records to the bounds +
    /// concatenation pair. The dense-id table is *not* part of the view:
    /// it is a pure function of the memo and is rebuilt by
    /// [`from_parts`](Self::from_parts).
    pub fn to_parts(&self) -> LinksParts {
        let mut slot_lists = Vec::new();
        let mut slot_bounds = Vec::with_capacity(self.slots.len() + 1);
        slot_bounds.push(0);
        for d in 0..self.slots.len() as u32 {
            slot_lists.extend(self.slot_lists(DenseId(d)).iter().map(|l| l.0));
            slot_bounds.push(slot_lists.len() as u32);
        }
        LinksParts {
            pool: self.pool.iter().map(|d| d.0).collect(),
            list_bounds: self.list_bounds.clone(),
            slot_lists,
            slot_bounds,
            topo: self.topo.iter().map(|d| d.0).collect(),
            root_list: self.root_list.0,
        }
    }

    /// Reassembles links from raw parts (the artifact load path),
    /// validating every structural invariant the accessors and §3.2's
    /// count fold rely on, in O(expressions + pool + slots) — bounds
    /// tables monotonic and covering, every index in range, every list
    /// strictly ascending (ranking finds a plan's operator by binary
    /// search), no expression with more than
    /// [`MAX_SLOTS`](plansample_memo::MAX_SLOTS) slots, every list some
    /// slot's list or the root list, and the topo order a permutation
    /// that is children-before-parents: each list's latest member comes
    /// before every expression that reads it. That last check is also
    /// the cycle check, since no order puts a cycle's members before
    /// each other. Corrupt or adversarial bytes surface as
    /// [`SpaceError::MalformedParts`] instead of a panic, a member
    /// reported foreign or counts folded over unfinished ones. It does
    /// *not* re-verify that list contents are what the eligibility rule
    /// lists; the artifact layer's sums own byte integrity, and this
    /// constructor owns the soundness of the graph the counts are folded
    /// over.
    pub fn from_parts(memo: &Memo, parts: LinksParts) -> Result<Links, SpaceError> {
        let malformed = |reason: &str| SpaceError::MalformedParts {
            reason: reason.to_string(),
        };
        let ids = DenseIdMap::build(memo);
        let n = ids.len();
        let LinksParts {
            pool,
            list_bounds,
            slot_lists,
            slot_bounds,
            topo,
            root_list,
        } = parts;

        // Bounds tables: non-empty, start at 0, monotonic, end at the
        // length of the buffer they index.
        let check_bounds = |bounds: &[u32], covered: usize, what: &str| {
            if bounds.first() != Some(&0) {
                return Err(SpaceError::MalformedParts {
                    reason: format!("{what} bounds must start at 0"),
                });
            }
            if bounds.windows(2).any(|w| w[0] > w[1]) {
                return Err(SpaceError::MalformedParts {
                    reason: format!("{what} bounds must be monotonic"),
                });
            }
            if *bounds.last().unwrap() as usize != covered {
                return Err(SpaceError::MalformedParts {
                    reason: format!("{what} bounds must end at the buffer length"),
                });
            }
            Ok(())
        };
        check_bounds(&list_bounds, pool.len(), "list")?;
        let num_lists = list_bounds.len() - 1;
        if slot_bounds.len() != n + 1 {
            return Err(malformed("slot bounds must have one entry per expression"));
        }
        check_bounds(&slot_bounds, slot_lists.len(), "slot")?;

        // Index ranges.
        if pool.iter().any(|&d| d as usize >= n) {
            return Err(malformed("pool entry out of range"));
        }
        let ascending = |w: &[u32]| pool[w[0] as usize..w[1] as usize].is_sorted_by(|a, b| a < b);
        if !list_bounds.windows(2).all(ascending) {
            return Err(malformed("every list must be strictly ascending"));
        }
        // The padding sentinel is out of range for any table that fits
        // `u32` list ids, so it cannot arrive as a slot's list.
        if num_lists > ListId::NONE.idx() || slot_lists.iter().any(|&l| l as usize >= num_lists) {
            return Err(malformed("slot list id out of range"));
        }
        if (root_list as usize) >= num_lists {
            return Err(malformed("root list id out of range"));
        }

        // The topo order must be a permutation of the expressions.
        if topo.len() != n {
            return Err(malformed("topo order must cover every expression"));
        }
        const UNSEEN: u32 = u32::MAX;
        let mut position = vec![UNSEEN; n];
        for (i, &d) in topo.iter().enumerate() {
            match position.get_mut(d as usize) {
                Some(at) if *at == UNSEEN => *at = i as u32,
                _ => return Err(malformed("topo order must be a permutation")),
            }
        }
        // In that order, a list's members must all come before every
        // expression that reads it: one past its latest member's
        // position (0 for an empty list) is at most any reader's.
        let after: Vec<u32> = list_bounds
            .windows(2)
            .map(|w| {
                let members = pool[w[0] as usize..w[1] as usize].iter();
                members
                    .map(|&d| position[d as usize] + 1)
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut read = vec![false; num_lists];
        read[root_list as usize] = true;

        // Pack the slot records, checking each slot against the order.
        let mut slots: Vec<SlotRecord> = Vec::with_capacity(n);
        for (w, &at) in slot_bounds.windows(2).zip(&position) {
            let lists = &slot_lists[w[0] as usize..w[1] as usize];
            for &l in lists {
                if after[l as usize] > at {
                    return Err(malformed(
                        "topo order must put every list's members before its readers",
                    ));
                }
                read[l as usize] = true;
            }
            slots.push(
                SlotRecord::pack(lists.iter().map(|&l| ListId(l)))
                    .ok_or_else(|| malformed("an expression has more than MAX_SLOTS slots"))?,
            );
        }
        if !read.iter().all(|&r| r) {
            return Err(malformed(
                "every list must be some slot's list or the root list",
            ));
        }

        Ok(Links {
            ids,
            pool: pool.into_iter().map(DenseId).collect(),
            list_bounds,
            slots,
            topo: topo.into_iter().map(DenseId).collect(),
            root_list: ListId(root_list),
        })
    }

    /// The dense-id table shared by everything built on these links.
    pub fn ids(&self) -> &DenseIdMap {
        &self.ids
    }

    /// Number of physical expressions covered.
    pub fn num_exprs(&self) -> usize {
        self.ids.len()
    }

    /// Number of distinct (interned) alternative lists.
    pub fn num_lists(&self) -> usize {
        self.list_bounds.len() - 1
    }

    /// Total entries across the interned lists (the arena size; without
    /// interning this would be the full link count).
    pub fn num_pooled_links(&self) -> usize {
        self.pool.len()
    }

    /// The alternatives of one interned list.
    #[inline]
    pub fn list(&self, l: ListId) -> &[DenseId] {
        &self.pool[self.list_bounds[l.idx()] as usize..self.list_bounds[l.idx() + 1] as usize]
    }

    /// The range of one interned list within the concatenated pool —
    /// the coordinate system the pool-aligned count table shares (see
    /// [`crate::Counts`]): indexed by this range it yields the running
    /// sums of list `l`'s alternatives as one contiguous slice.
    #[inline]
    pub(crate) fn list_range(&self, l: ListId) -> std::ops::Range<usize> {
        self.list_bounds[l.idx()] as usize..self.list_bounds[l.idx() + 1] as usize
    }

    /// The interned list of each child slot of `d`, in slot order: the
    /// occupied prefix of `d`'s slot record.
    #[inline]
    pub fn slot_lists(&self, d: DenseId) -> &[ListId] {
        self.slots[d.idx()].lists()
    }

    /// Number of child slots of `d` (the paper's `|v|`).
    #[inline]
    pub fn arity(&self, d: DenseId) -> usize {
        self.slot_lists(d).len()
    }

    /// Number of child slots of an expression, by nominal id.
    ///
    /// # Panics
    /// Panics when `id` is not part of the linked memo.
    pub fn arity_of(&self, id: PhysId) -> usize {
        self.arity(self.ids.dense(id))
    }

    /// The list every whole-space operation starts from: the root group's
    /// expressions.
    pub fn root_list(&self) -> ListId {
        self.root_list
    }

    /// Every expression in a children-before-parents order. Computed once,
    /// by the scan; the iterative count and the analytical passes walk it
    /// instead of recursing.
    pub fn topo(&self) -> &[DenseId] {
        &self.topo
    }

    /// Iterates every expression id covered by these links, in dense
    /// order. (Self-contained: the links carry their own id table.)
    pub fn all_ids(&self) -> impl Iterator<Item = PhysId> + '_ {
        self.ids.iter().map(|(_, id)| id)
    }

    /// The alternatives for each child slot of `id`, materialized as
    /// nominal ids — the nested view tests and diagnostics read; hot
    /// paths use [`slot_lists`](Self::slot_lists)/[`list`](Self::list)
    /// directly.
    pub fn children_of(&self, id: PhysId) -> Vec<Vec<PhysId>> {
        self.slot_lists(self.ids.dense(id))
            .iter()
            .map(|&l| self.list(l).iter().map(|&d| self.ids.phys(d)).collect())
            .collect()
    }

    /// Bytes of memory held by the links: the id table plus the flat
    /// buffers (pool, list bounds, slot records, topo), capacity-accurate.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>() - std::mem::size_of::<DenseIdMap>()
            + self.ids.size_bytes()
            + self.pool.capacity() * std::mem::size_of::<DenseId>()
            + self.list_bounds.capacity() * std::mem::size_of::<u32>()
            + self.slots.capacity() * std::mem::size_of::<SlotRecord>()
            + self.topo.capacity() * std::mem::size_of::<DenseId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;
    use plansample_memo::{GroupKey, Memo, PhysicalExpr, PhysicalOp};
    use plansample_query::RelSet;

    #[test]
    fn paper_example_links_match_figure3() {
        let ex = paper_example::build();
        let links = Links::build(&ex.memo, &ex.query).unwrap();

        // Sort in group A: only the TableScan is a sortable input.
        let sort_children = links.children_of(ex.sort_a);
        assert_eq!(sort_children.len(), 1);
        assert_eq!(sort_children[0], vec![ex.table_scan_a]);

        // MergeJoin(A,B): left alternatives IdxScan_A and Sort_A; right
        // only IdxScan_B — "operator 3.4 however can use only the
        // darkened operators 2.3 and 1.3 or 1.4".
        let mj = links.children_of(ex.merge_join_ab);
        assert_eq!(mj[0], vec![ex.idx_scan_a, ex.sort_a]);
        assert_eq!(mj[1], vec![ex.idx_scan_b]);

        // HashJoin(A,B): any of group A (3) × any of group B (2).
        let hj = links.children_of(ex.hash_join_ab);
        assert_eq!(hj[0].len(), 3);
        assert_eq!(hj[1].len(), 2);

        // Root 7.7-analogue: any of group C (2) × any of group AB (2).
        let root = links.children_of(ex.root_c_ab);
        assert_eq!(root[0].len(), 2);
        assert_eq!(root[1].len(), 2);
    }

    /// The scan `Links::build` and the optimizer share, on Figure 3: seven
    /// distinct slots for nine expression slots, filtering to seven lists
    /// numbered as they are first met, each slot's list what the rule
    /// lists.
    #[test]
    fn paper_example_gathers_seven_distinct_slots_in_first_encounter_order() {
        let ex = paper_example::build();
        let scan = MemoScan::build(&ex.memo, &ex.query).unwrap();
        let slots = |id: PhysId| -> Vec<u32> {
            let lists = scan.slot_lists(scan.ids.dense(id));
            lists.iter().map(|l| l.0).collect()
        };
        // Group A's Sort is met first, then A⋈B's hash and merge joins,
        // then the root: HashJoin(C, A⋈B) opens two lists that
        // HashJoin(A⋈B, C) reuses the other way round.
        assert_eq!(slots(ex.sort_a), [0]);
        assert_eq!(slots(ex.hash_join_ab), [1, 2]);
        assert_eq!(slots(ex.merge_join_ab), [3, 4]);
        assert_eq!(slots(ex.root_c_ab), [5, 6]);
        assert_eq!(slots(ex.root_ab_c), [6, 5]);
        assert!(slots(ex.idx_scan_c).is_empty());
        assert_eq!(scan.list_bounds.len() - 1, 7);
        let records = scan.slots.iter().map(|r| r.lists().len());
        assert_eq!(records.sum::<usize>(), 9);
        for (d, id) in scan.ids.iter() {
            let expected = ex.memo.phys(id).child_slots(id.group);
            assert_eq!(scan.slot_lists(d).len(), expected.len(), "{id}");
            for (&l, slot) in scan.slot_lists(d).iter().zip(&expected) {
                let rule = plansample_memo::eligible_children(&ex.memo, &ex.query, slot);
                let listed: Vec<PhysId> = scan.list(l).iter().map(|&c| scan.ids.phys(c)).collect();
                assert_eq!(listed, rule, "{id}: {slot:?}");
            }
        }
    }

    #[test]
    fn leaves_have_no_slots() {
        let ex = paper_example::build();
        let links = Links::build(&ex.memo, &ex.query).unwrap();
        assert!(links.children_of(ex.table_scan_a).is_empty());
        assert!(links.children_of(ex.idx_scan_c).is_empty());
        assert_eq!(links.arity_of(ex.table_scan_a), 0);
        assert_eq!(links.arity_of(ex.root_c_ab), 2);
    }

    #[test]
    fn identical_slots_intern_to_one_list() {
        // The two roots HashJoin(C, AB) and HashJoin(AB, C) both have an
        // unconstrained slot on group C and one on group AB; the sibling
        // hash join in group AB shares the unconstrained A and B lists
        // with nothing else, but the roots' four slots intern to two
        // lists.
        let ex = paper_example::build();
        let links = Links::build(&ex.memo, &ex.query).unwrap();
        let a = links.slot_lists(links.ids().dense(ex.root_c_ab));
        let b = links.slot_lists(links.ids().dense(ex.root_ab_c));
        assert_eq!(a[0], b[1], "group-C slots share one interned list");
        assert_eq!(a[1], b[0], "group-AB slots share one interned list");
        // Interning keeps the arena strictly smaller than the sum of all
        // per-slot list lengths.
        let flat: usize = links
            .all_ids()
            .map(|id| links.children_of(id).iter().map(Vec::len).sum::<usize>())
            .sum();
        assert!(links.num_pooled_links() < flat);
    }

    /// The root's alternatives are interned like a slot's: a root group
    /// some slot already lists in full — or an empty one beside a slot
    /// that filters to nothing — adds no list of its own.
    #[test]
    fn root_list_is_a_slot_list_with_the_same_members() {
        let ex = paper_example::build();
        let full = Links::build(&ex.memo, &ex.query).unwrap();
        let mut rooted_in_a = ex.memo.clone();
        rooted_in_a.set_root(ex.table_scan_a.group);
        let links = Links::build(&rooted_in_a, &ex.query).unwrap();
        let join_ab = links.ids().dense(ex.hash_join_ab);
        assert_eq!(links.root_list(), links.slot_lists(join_ab)[0]);
        assert_eq!(links.list(links.root_list()).len(), 3);
        assert_eq!(links.num_lists() + 1, full.num_lists());

        let scan = PhysicalOp::TableScan {
            rel: plansample_query::RelId(0),
        };
        let mut memo = Memo::new();
        let scans = memo.add_group(GroupKey::Rels(RelSet::all(1)));
        let empty = memo.add_group(GroupKey::Rels(RelSet::all(2)));
        let joins = memo.add_group(GroupKey::Rels(RelSet::all(3)));
        memo.add_physical(scans, PhysicalExpr::new(scan, 1.0, 1.0));
        let (left, right) = (scans, empty);
        let join = PhysicalExpr::new(PhysicalOp::HashJoin { left, right }, 1.0, 1.0);
        let join = memo.add_physical(joins, join).unwrap();
        memo.set_root(empty);
        let links = Links::build(&memo, &ex.query).unwrap();
        let join = links.ids().dense(join);
        assert_eq!(links.root_list(), links.slot_lists(join)[1]);
        assert!(links.list(links.root_list()).is_empty());
        assert_eq!(links.num_lists(), 2);
    }

    #[test]
    fn topo_orders_children_before_parents() {
        let ex = paper_example::build();
        let links = Links::build(&ex.memo, &ex.query).unwrap();
        assert_eq!(links.topo().len(), links.num_exprs());
        let mut position = vec![usize::MAX; links.num_exprs()];
        for (i, &d) in links.topo().iter().enumerate() {
            position[d.idx()] = i;
        }
        for (d, _) in links.ids().iter() {
            for &l in links.slot_lists(d) {
                for &child in links.list(l) {
                    assert!(
                        position[child.idx()] < position[d.idx()],
                        "child {child:?} must precede parent {d:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_ids_needs_no_memo_and_covers_everything() {
        let ex = paper_example::build();
        let links = Links::build(&ex.memo, &ex.query).unwrap();
        let ids: Vec<PhysId> = links.all_ids().collect();
        assert_eq!(ids.len(), ex.memo.num_physical());
        let from_memo: Vec<PhysId> = ex
            .memo
            .groups()
            .flat_map(|g| g.phys_iter().map(|(id, _)| id))
            .collect();
        assert_eq!(ids, from_memo);
    }

    /// The artifact's view of the links is the CSR pair, whatever the
    /// resident layout: nine slots over ten expressions on Figure 3, no
    /// sentinel in sight, and `from_parts` packs it back to links that
    /// answer — and serialize — the same.
    #[test]
    fn parts_are_the_csr_view_and_round_trip() {
        let ex = paper_example::build();
        let links = Links::build(&ex.memo, &ex.query).unwrap();
        let parts = links.to_parts();
        assert_eq!(parts.slot_bounds.len(), links.num_exprs() + 1);
        assert_eq!(parts.slot_lists.len(), 9);
        assert_eq!(*parts.slot_bounds.last().unwrap(), 9);
        assert!(parts
            .slot_lists
            .iter()
            .all(|&l| (l as usize) < links.num_lists()));

        let back = Links::from_parts(&ex.memo, parts.clone()).unwrap();
        assert_eq!(back.to_parts(), parts);
        assert_eq!(back.size_bytes(), links.size_bytes());
        for (d, id) in links.ids().iter() {
            assert_eq!(back.slot_lists(d), links.slot_lists(d));
            assert_eq!(back.arity(d), ex.memo.phys(id).arity());
            assert_eq!(back.children_of(id), links.children_of(id));
        }
    }

    /// What the packed table and the ranker's binary search add to the
    /// load-time checks: a checksummed artifact can still describe an
    /// expression too wide for the slot record, name the padding
    /// sentinel as a list, or hold a list out of order — each is
    /// `MalformedParts`, none a panic or a member ranked as foreign.
    #[test]
    fn from_parts_rejects_what_the_slot_record_and_the_ranker_cannot_hold() {
        let ex = paper_example::build();
        let links = Links::build(&ex.memo, &ex.query).unwrap();
        let parts = links.to_parts();
        let rejected = |parts: LinksParts, why: &str| match Links::from_parts(&ex.memo, parts) {
            Err(SpaceError::MalformedParts { reason }) => {
                assert!(reason.contains(why), "{reason:?} does not mention {why:?}")
            }
            other => panic!("expected MalformedParts ({why}), got {other:?}"),
        };
        let root = links.ids().dense(ex.root_c_ab).idx();

        // A third slot on a root join (a list id in range, bounds still
        // monotonic and covering).
        let mut wide = parts.clone();
        let at = wide.slot_bounds[root + 1] as usize;
        wide.slot_lists.insert(at, wide.slot_lists[at - 1]);
        for bound in &mut wide.slot_bounds[root + 1..] {
            *bound += 1;
        }
        rejected(wide, "more than MAX_SLOTS");

        // The padding sentinel where a list id belongs.
        let mut padded = parts.clone();
        padded.slot_lists[parts.slot_bounds[root] as usize] = ListId::NONE.0;
        rejected(padded, "slot list id out of range");

        // Group AB's two joins, swapped within the list the roots draw
        // from: same members, not ascending.
        let mut unsorted = parts.clone();
        let l = links.slot_lists(DenseId(root as u32))[1];
        assert_eq!(links.list(l).len(), 2);
        let at = parts.list_bounds[l.idx()] as usize;
        unsorted.pool.swap(at, at + 1);
        rejected(unsorted, "strictly ascending");
        // … or one of them listed twice.
        let mut repeated = parts;
        repeated.pool[at + 1] = repeated.pool[at];
        rejected(repeated, "strictly ascending");
    }

    /// What §3.2's fold over a loaded order relies on: children before
    /// parents, and every list read. A reversed order is a permutation
    /// that puts every parent first; a list holding its own reader is a
    /// cycle no order can satisfy; a list nothing reads would never be
    /// summed. Each is `MalformedParts`.
    #[test]
    fn from_parts_rejects_orders_a_count_fold_cannot_walk() {
        let ex = paper_example::build();
        let links = Links::build(&ex.memo, &ex.query).unwrap();
        let parts = links.to_parts();
        let rejected = |parts: LinksParts, why: &str| match Links::from_parts(&ex.memo, parts) {
            Err(SpaceError::MalformedParts { reason }) => {
                assert!(reason.contains(why), "{reason:?} does not mention {why:?}")
            }
            other => panic!("expected MalformedParts ({why}), got {other:?}"),
        };

        let mut reversed = parts.clone();
        reversed.topo.reverse();
        rejected(reversed, "members before its readers");

        // The hash join over A and B reads group A's three expressions;
        // its own id, above theirs, replaces the last.
        let join = links.ids().dense(ex.hash_join_ab);
        let left = links.slot_lists(join)[0];
        let mut cyclic = parts.clone();
        let last = parts.list_bounds[left.idx() + 1] as usize - 1;
        assert!(cyclic.pool[last] < join.0);
        cyclic.pool[last] = join.0;
        rejected(cyclic, "members before its readers");

        let mut unread = parts;
        unread.list_bounds.push(*unread.list_bounds.last().unwrap());
        rejected(unread, "some slot's list or the root list");
    }

    /// Two mutually-referencing "joins" in the same group cannot occur via
    /// the optimizer, but a hand-built memo can express a cycle through a
    /// self-join of groups: g1.join(g0, g1) — child group equals own
    /// group with an always-satisfied requirement. Its join is `1.1`.
    fn cyclic_memo() -> Memo {
        let mut memo = Memo::new();
        let g0 = memo.add_group(GroupKey::Rels(RelSet::all(1)));
        memo.add_physical(
            g0,
            PhysicalExpr::new(
                PhysicalOp::TableScan {
                    rel: plansample_query::RelId(0),
                },
                1.0,
                1.0,
            ),
        )
        .unwrap();
        let g1 = memo.add_group(GroupKey::Rels(RelSet::all(2)));
        memo.add_physical(
            g1,
            PhysicalExpr::new(
                PhysicalOp::NestedLoopJoin {
                    left: g0,
                    right: g1,
                },
                1.0,
                1.0,
            ),
        )
        .unwrap();
        memo.set_root(g1);
        memo
    }

    #[test]
    fn cyclic_hand_built_memo_is_rejected() {
        let ex = paper_example::build();
        assert!(matches!(
            Links::build(&cyclic_memo(), &ex.query),
            Err(SpaceError::CyclicMemo { .. })
        ));
    }

    /// The optimizer's cost fold reads the same table and cannot return
    /// an error: it stops at the cycle with a panic naming the join, not
    /// a stack overflow that aborts the process.
    #[test]
    #[should_panic(expected = "cyclic memo: expression 1.1")]
    fn cyclic_hand_built_memo_panics_in_compute_totals() {
        let ex = paper_example::build();
        plansample_optimizer::compute_totals(&cyclic_memo(), &ex.query);
    }

    #[test]
    #[should_panic(expected = "cyclic memo: expression 1.1")]
    fn cyclic_hand_built_memo_panics_in_prune() {
        let ex = paper_example::build();
        plansample_optimizer::prune(&cyclic_memo(), &ex.query, 1.0);
    }
}
