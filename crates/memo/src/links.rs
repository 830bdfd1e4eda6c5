//! Child eligibility, and the one scan that turns it into a memo's link
//! table: every expression's child slots as interned lists of the
//! expressions that may fill them.
//!
//! This is the single source of truth for parent→child compatibility
//! (§3.1 of the paper: "Due to the differences in physical properties
//! some operators of a group may qualify as potential children while
//! others do not"). The rule, written once in [`accepts`]:
//!
//! - an [`Requirement::Order`] slot accepts every expression whose
//!   delivered order satisfies the required one (the empty requirement
//!   accepts *everything*, including enforcers — Figure 3's hash join
//!   "can have any operator from group 1 and 2", and group 1 contains the
//!   Sort 1.4);
//! - a [`Requirement::SortInput`] slot (a Sort enforcer's own input)
//!   accepts the group's non-enforcer expressions that do **not** already
//!   satisfy the sort target. Excluding enforcers rules out Sort-over-Sort
//!   chains, which keeps the plan graph finite and acyclic; excluding
//!   already-satisfying children rules out redundant sorts.
//!
//! # One table
//!
//! [`MemoScan::build`] materializes the links once, as the tables the
//! rest of the system keeps: the dense ids, a pool of interned lists with
//! their bounds, one [`SlotRecord`] per expression naming the list of
//! each of its slots, and the expressions in one children-before-parents
//! order. The optimizer's best-plan extraction (`compute_totals`) folds
//! over these tables in that order, and `Links` in `plansample-core`
//! moves them in as they are, adding only the root list — so a prepare,
//! which hands the optimizer's scan to its links, scans its memo once and
//! both bottom-up folds (the cost minimum and §3.2's count) walk one
//! table in one order.
//!
//! # One order
//!
//! The order is by *level*, then dense id: a leaf is level 0, and any
//! other expression one above the highest member of its slot lists (an
//! empty list counts as 0). It comes from one memoised fold, which is
//! also the memo's one cycle check: an expression met again while its
//! level is being folded is its own descendant.
//!
//! # Classes
//!
//! The rule reads two things of a candidate and nothing else: the order
//! it delivers and whether it is an enforcer. Expressions of one group
//! that agree on `(delivered_cols(), is_enforcer())` — a *class* — are
//! therefore accepted or refused together by every requirement, and a
//! group delivers a handful of orders however many expressions it holds
//! (Q8+CP: 22 293 expressions, 2 060 classes, at most 16 in a group).
//! The scan asks the rule once per `(distinct slot, class)` instead of
//! once per `(expression slot, candidate)`, through one
//! [`OrderSatisfier`] a group.
//!
//! Classes also identify lists. A group's classes partition it and none
//! is empty, so two slots of one group have equal lists exactly when they
//! accept equal class sets — whatever their requirements say — and lists
//! of different groups are equal only when both are empty. Comparing
//! class sets (a few integers) is how the scan interns, where a content
//! hash would read every member of every list.
//!
//! [`eligible_children`] is the per-slot, per-expression form of the same
//! rule: the reference the test suites compare the scan against.

use crate::expr::SlotRef;
use crate::{
    ChildSlot, DenseId, DenseIdMap, GroupId, ListId, Memo, OrderSatisfier, PhysId, Requirement,
    SlotRecord, MAX_SLOTS,
};
use plansample_query::{ColRef, QuerySpec};

/// §3.1's rule: does a slot demanding `requirement` accept a candidate
/// that delivers `delivered`, given whether the candidate is an
/// enforcer? `sat` must be the satisfier of the slot's group.
fn accepts(
    sat: &mut OrderSatisfier<'_>,
    requirement: &Requirement,
    delivered: &[ColRef],
    enforcer: bool,
) -> bool {
    match requirement {
        Requirement::Order(req) => sat.satisfies_cols(delivered, req),
        Requirement::SortInput { target } => !enforcer && !sat.satisfies_cols(delivered, target),
    }
}

/// All expressions of `slot.group` eligible to fill `slot`, in group
/// order (the order that defines plan ranks) — one test per expression.
/// Production code asks per class ([`MemoScan::build`]); this is the
/// reference it is tested against.
pub fn eligible_children(memo: &Memo, query: &QuerySpec, slot: &ChildSlot) -> Vec<PhysId> {
    let group = memo.group(slot.group);
    let mut sat = OrderSatisfier::new(query, group.scope(query));
    let asked = &slot.requirement;
    group
        .phys_iter()
        .filter(|(_, e)| accepts(&mut sat, asked, e.delivered_cols(), e.op.is_enforcer()))
        .map(|(id, _)| id)
        .collect()
}

/// §3.1's materialized links of one memo, built by [`MemoScan::build`]:
/// the tables `Links` in `plansample-core` keeps (docs/DESIGN.md §3).
#[derive(Debug, Clone)]
pub struct MemoScan {
    /// The memo's dense numbering.
    pub ids: DenseIdMap,
    /// The interned lists, concatenated in list-id order; each in group
    /// order, hence strictly ascending. Allocated at its exact length.
    pub pool: Vec<DenseId>,
    /// List `l` is `pool[list_bounds[l] .. list_bounds[l + 1]]`; one
    /// entry more than there are lists.
    pub list_bounds: Vec<u32>,
    /// Expression `d`'s slot record: the list of each of its child
    /// slots. Lists are numbered as the slots that first name them are
    /// met — over groups, then expressions, then slots — which fixes list
    /// ids, pool layout and artifact bytes.
    pub slots: Vec<SlotRecord>,
    /// Every expression, children before parents: sorted by level, then
    /// dense id (see [`MemoScan::build`]). Both bottom-up folds walk it.
    pub topo: Vec<DenseId>,
}

/// A level not yet known, and one being folded: meeting an expression
/// whose level is `OPEN` is meeting it again below itself.
const UNSEEN: u32 = u32::MAX;
const OPEN: u32 = u32::MAX - 1;

impl MemoScan {
    /// Numbers `memo`'s expressions, materializes the list of every
    /// child slot and orders the expressions children before parents.
    /// Four linear passes over the memo:
    ///
    /// 1. **Classify**: number each group's classes (see the module docs)
    ///    in first-appearance order, by a linear search over borrowed
    ///    column slices — nothing hashed, nothing cloned — and count them.
    /// 2. **Walk**: visit every expression's slots in dense order. A
    ///    `(group, requirement)` asked before is looked up per target
    ///    group, by a linear search over borrowed key columns (a group is
    ///    asked a handful of distinct questions — Q8+CP: 2 049 over 256
    ///    groups — so nothing is hashed); a new one is decided once per
    ///    class of its group, and a class set the group has not produced
    ///    before is a new list, whose length is the sum of its class
    ///    counts. Each slot's list goes straight into its expression's
    ///    record.
    /// 3. **Emit**: with every length known the pool is reserved exactly,
    ///    and each list is its group's dense range filtered by class.
    /// 4. **Order**: a leaf has level 0, and any other expression the
    ///    largest over its slot lists of 0 for an empty list and one more
    ///    than its members' largest level otherwise — one memoised
    ///    (max, +1) fold, per expression and per list. `topo` is the
    ///    expressions by level, dense order within a level: the order
    ///    Kahn elimination emits frontier by frontier with each frontier
    ///    sorted, which artifacts carry byte for byte.
    ///
    /// # Errors
    /// A memo whose plan graph is cyclic — only a hand-built one can be —
    /// is refused with the expression the fold met again while folding
    /// it.
    pub fn build(memo: &Memo, query: &QuerySpec) -> Result<MemoScan, PhysId> {
        let ids = DenseIdMap::build(memo);

        // Classify. Classes are numbered memo-wide, each group's contiguous.
        let mut classes: Vec<Class<'_>> = Vec::new();
        let mut class_of: Vec<u32> = Vec::with_capacity(ids.len());
        let mut class_bounds: Vec<u32> = Vec::with_capacity(memo.num_groups() + 1);
        class_bounds.push(0);
        for group in memo.groups() {
            let first = classes.len();
            for expr in &group.physical {
                let (delivered, enforcer) = (expr.delivered_cols(), expr.op.is_enforcer());
                let class = classes[first..]
                    .iter()
                    .position(|c| c.delivered == delivered && c.enforcer == enforcer)
                    .map_or(classes.len(), |c| first + c);
                if class == classes.len() {
                    classes.push(Class {
                        group: group.id,
                        delivered,
                        enforcer,
                        len: 0,
                    });
                }
                classes[class].len += 1;
                class_of.push(class as u32);
            }
            class_bounds.push(classes.len() as u32);
        }

        // Walk. List `l` accepts the classes `sets[set_bounds[l] ..
        // set_bounds[l + 1]]`; `lists_of[g]` holds the lists of group `g`,
        // and one entry past the groups the list that accepts nothing,
        // which every group shares; `asked[g]` holds the slots on group
        // `g` met so far, with their lists.
        let mut sats: Vec<OrderSatisfier<'_>> = memo
            .groups()
            .map(|g| OrderSatisfier::new(query, g.scope(query)))
            .collect();
        let mut sets: Vec<u32> = Vec::new();
        let mut set_bounds: Vec<u32> = vec![0];
        let mut list_bounds: Vec<u32> = vec![0];
        let mut lists_of: Vec<Vec<ListId>> = vec![Vec::new(); memo.num_groups() + 1];
        let mut asked: Vec<Vec<(SlotRef<'_>, ListId)>> = vec![Vec::new(); memo.num_groups()];
        let mut decide = |slot: SlotRef<'_>| {
            let g = slot.group.0 as usize;
            let requirement = slot.to_owned().requirement;
            let (at, mut len) = (sets.len(), 0);
            for class in class_bounds[g]..class_bounds[g + 1] {
                let c = &classes[class as usize];
                if accepts(&mut sats[g], &requirement, c.delivered, c.enforcer) {
                    sets.push(class);
                    len += c.len;
                }
            }
            let nothing = sets.len() == at;
            let home = &mut lists_of[if nothing { memo.num_groups() } else { g }];
            let set_of = |l: ListId| set_bounds[l.idx()] as usize..set_bounds[l.idx() + 1] as usize;
            if let Some(&l) = home.iter().find(|&&l| sets[set_of(l)] == sets[at..]) {
                sets.truncate(at);
                return l;
            }
            let l = ListId(list_bounds.len() as u32 - 1);
            set_bounds.push(sets.len() as u32);
            list_bounds.push(list_bounds[l.idx()] + len);
            home.push(l);
            l
        };
        let mut slots: Vec<SlotRecord> = Vec::with_capacity(ids.len());
        for group in memo.groups() {
            for expr in &group.physical {
                let mut record = [ListId::NONE; MAX_SLOTS];
                for (list, slot) in record.iter_mut().zip(expr.slot_refs(group.id)) {
                    let met = &mut asked[slot.group.0 as usize];
                    *list = match met.iter().find(|(s, _)| *s == slot) {
                        Some(&(_, l)) => l,
                        None => {
                            let l = decide(slot);
                            met.push((slot, l));
                            l
                        }
                    };
                }
                slots.push(SlotRecord(record));
            }
        }

        // Emit.
        let mut pool: Vec<DenseId> =
            Vec::with_capacity(list_bounds[list_bounds.len() - 1] as usize);
        let mut accepted = vec![false; classes.len()];
        for set in set_bounds.windows(2) {
            let set = &sets[set[0] as usize..set[1] as usize];
            let Some(&first) = set.first() else { continue };
            set.iter().for_each(|&c| accepted[c as usize] = true);
            let members = ids.group_range(classes[first as usize].group);
            pool.extend(
                members
                    .filter(|&d| accepted[class_of[d as usize] as usize])
                    .map(DenseId),
            );
            set.iter().for_each(|&c| accepted[c as usize] = false);
        }
        let mut scan = MemoScan {
            ids,
            pool,
            list_bounds,
            slots,
            topo: Vec::new(),
        };

        // Order: fold the levels, then counting-sort by level, stably.
        let mut levels = vec![UNSEEN; scan.ids.len()];
        let mut list_levels = vec![UNSEEN; scan.list_bounds.len() - 1];
        for d in (0..scan.ids.len() as u32).map(DenseId) {
            scan.level(d, &mut levels, &mut list_levels)
                .map_err(|at| scan.ids.phys(at))?;
        }
        let mut starts = vec![0; levels.iter().max().map_or(1, |&top| top as usize + 2)];
        for &level in &levels {
            starts[level as usize + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        scan.topo = vec![DenseId(0); scan.ids.len()];
        for (d, &level) in levels.iter().enumerate() {
            scan.topo[starts[level as usize]] = DenseId(d as u32);
            starts[level as usize] += 1;
        }
        Ok(scan)
    }

    /// The level of `d` (see [`build`](Self::build)), memoised in
    /// `levels` and, per list, in `list_levels`; `Err` names the
    /// expression met again while open.
    fn level(
        &self,
        d: DenseId,
        levels: &mut [u32],
        list_levels: &mut [u32],
    ) -> Result<u32, DenseId> {
        match levels[d.idx()] {
            OPEN => return Err(d),
            UNSEEN => levels[d.idx()] = OPEN,
            known => return Ok(known),
        }
        let mut level = 0;
        for &l in self.slot_lists(d) {
            if list_levels[l.idx()] == UNSEEN {
                let mut above = 0;
                for &w in self.list(l) {
                    above = above.max(self.level(w, levels, list_levels)? + 1);
                }
                list_levels[l.idx()] = above;
            }
            level = level.max(list_levels[l.idx()]);
        }
        levels[d.idx()] = level;
        Ok(level)
    }

    /// The members of list `l`.
    #[inline]
    pub fn list(&self, l: ListId) -> &[DenseId] {
        &self.pool[self.list_bounds[l.idx()] as usize..self.list_bounds[l.idx() + 1] as usize]
    }

    /// The list of each child slot of `d`, in slot order.
    #[inline]
    pub fn slot_lists(&self, d: DenseId) -> &[ListId] {
        self.slots[d.idx()].lists()
    }
}

/// One group's expressions that deliver the same order and agree on
/// being an enforcer (see the module docs).
struct Class<'m> {
    group: GroupId,
    delivered: &'m [ColRef],
    enforcer: bool,
    /// How many expressions of the group are in the class; never 0.
    len: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GroupKey, PhysicalExpr, PhysicalOp, SortOrder};
    use plansample_catalog::{table, Catalog, ColType};
    use plansample_query::{QueryBuilder, RelId, RelSet};

    /// One relation with an index on column 0; group holds TableScan,
    /// SortedIdxScan, and a Sort enforcer targeting column 0 — the exact
    /// shape of the paper's group 1 in Figures 2/3.
    fn setup() -> (Catalog, QuerySpec, Memo, crate::GroupId) {
        let mut cat = Catalog::new();
        cat.add_table(
            table("a", 100)
                .col("x", ColType::Int, 100)
                .col("y", ColType::Int, 10)
                .index_on(0)
                .build(),
        )
        .unwrap();
        let mut qb = QueryBuilder::new(&cat);
        qb.rel("a", None).unwrap();
        let q = qb.build().unwrap();

        let key = ColRef {
            rel: RelId(0),
            col: 0,
        };
        let mut memo = Memo::new();
        let g = memo.add_group(GroupKey::Rels(RelSet::singleton(RelId(0))));
        memo.add_physical(
            g,
            PhysicalExpr::new(PhysicalOp::TableScan { rel: RelId(0) }, 100.0, 100.0),
        )
        .unwrap();
        memo.add_physical(
            g,
            PhysicalExpr::new(
                PhysicalOp::SortedIdxScan {
                    rel: RelId(0),
                    col: key,
                },
                120.0,
                100.0,
            ),
        )
        .unwrap();
        memo.add_physical(
            g,
            PhysicalExpr::new(
                PhysicalOp::Sort {
                    target: SortOrder::on_col(key),
                },
                50.0,
                100.0,
            ),
        )
        .unwrap();
        memo.set_root(g);
        (cat, q, memo, g)
    }

    #[test]
    fn empty_requirement_accepts_everything_including_sorts() {
        let (_cat, q, memo, g) = setup();
        let slot = ChildSlot {
            group: g,
            requirement: Requirement::Order(SortOrder::unsorted()),
        };
        let kids = eligible_children(&memo, &q, &slot);
        assert_eq!(kids.len(), 3, "TableScan, SortedIdxScan, Sort all qualify");
    }

    #[test]
    fn order_requirement_selects_sorted_providers() {
        let (_cat, q, memo, g) = setup();
        let key = ColRef {
            rel: RelId(0),
            col: 0,
        };
        let slot = ChildSlot {
            group: g,
            requirement: Requirement::Order(SortOrder::on_col(key)),
        };
        let kids = eligible_children(&memo, &q, &slot);
        // SortedIdxScan (index 1) and Sort (index 2) deliver the order.
        assert_eq!(kids.len(), 2);
        assert!(kids.iter().all(|id| id.index != 0));
    }

    #[test]
    fn unsatisfiable_order_yields_empty() {
        let (_cat, q, memo, g) = setup();
        let other = ColRef {
            rel: RelId(0),
            col: 1,
        };
        let slot = ChildSlot {
            group: g,
            requirement: Requirement::Order(SortOrder::on_col(other)),
        };
        assert!(eligible_children(&memo, &q, &slot).is_empty());
    }

    #[test]
    fn sort_input_excludes_enforcers_and_already_sorted() {
        let (_cat, q, memo, g) = setup();
        let key = ColRef {
            rel: RelId(0),
            col: 0,
        };
        let slot = ChildSlot {
            group: g,
            requirement: Requirement::SortInput {
                target: SortOrder::on_col(key),
            },
        };
        let kids = eligible_children(&memo, &q, &slot);
        // Only the TableScan: the idx scan already satisfies, the Sort is
        // an enforcer.
        assert_eq!(kids.len(), 1);
        assert_eq!(kids[0].index, 0);
    }

    #[test]
    fn sort_input_for_other_target_takes_differently_sorted() {
        let (_cat, q, memo, g) = setup();
        let other = ColRef {
            rel: RelId(0),
            col: 1,
        };
        let slot = ChildSlot {
            group: g,
            requirement: Requirement::SortInput {
                target: SortOrder::on_col(other),
            },
        };
        let kids = eligible_children(&memo, &q, &slot);
        // TableScan and the x-sorted idx scan both fail to satisfy a sort
        // on y, so both are sortable inputs.
        assert_eq!(kids.len(), 2);
    }
    /// A merge-join group: two merge joins that agree on the left key and
    /// differ on the right, a nested-loops join, the group's own Sort,
    /// and an aggregate above that *requires* the order the Sort
    /// *targets* — same key columns, two different slots. Eight distinct
    /// slots over the ten expression slots filter to six lists, numbered
    /// as the slots that first name them are met.
    #[test]
    fn gather_numbers_distinct_slots_in_first_encounter_order() {
        let (_cat, q) = crate::props::tests::chain_query();
        let col = |rel, col| ColRef {
            rel: RelId(rel),
            col,
        };
        let expr = |op| PhysicalExpr::new(op, 1.0, 1.0);
        let mut memo = Memo::new();
        let l = memo.add_group(GroupKey::Rels(RelSet::singleton(RelId(0))));
        let r = memo.add_group(GroupKey::Rels(RelSet::singleton(RelId(1))));
        let j = memo.add_group(GroupKey::Rels(RelSet::all(2)));
        let top = memo.add_group(GroupKey::Agg);
        memo.add_physical(l, expr(PhysicalOp::TableScan { rel: RelId(0) }));
        memo.add_physical(r, expr(PhysicalOp::TableScan { rel: RelId(1) }));
        let merge = |right_key| PhysicalOp::MergeJoin {
            left: l,
            right: r,
            left_key: col(0, 0),
            right_key,
        };
        memo.add_physical(j, expr(merge(col(1, 0))));
        memo.add_physical(j, expr(merge(col(1, 1))));
        memo.add_physical(j, expr(PhysicalOp::NestedLoopJoin { left: l, right: r }));
        let on_key = SortOrder::on_col(col(0, 0));
        memo.add_physical(
            j,
            expr(PhysicalOp::Sort {
                target: on_key.clone(),
            }),
        );
        memo.add_physical(
            top,
            expr(PhysicalOp::StreamAgg {
                input: j,
                group_order: on_key,
            }),
        );
        memo.add_physical(top, expr(PhysicalOp::HashAgg { input: j }));
        memo.set_root(top);

        let scan = assert_lists_match_the_rule(&memo, &q);
        // Dense order: the two scans, then group j's four, then the two
        // aggregates. The bare scans deliver no order, so all three
        // ordered demands on them share the empty list 0; the merge
        // joins' common left slot is decided once.
        let per_expr: Vec<Vec<u32>> = (0..memo.num_physical() as u32)
            .map(|d| scan.slot_lists(DenseId(d)).iter().map(|l| l.0).collect())
            .collect();
        let expected: [&[u32]; 8] = [&[], &[], &[0, 0], &[0, 0], &[1, 2], &[3], &[4], &[5]];
        assert_eq!(per_expr, expected);
        let members = |l| scan.list(ListId(l)).iter().map(|d| d.0).collect::<Vec<_>>();
        let lists: Vec<Vec<u32>> = (0..6).map(members).collect();
        let expected: [&[u32]; 6] = [&[], &[0], &[1], &[4], &[2, 3, 5], &[2, 3, 4, 5]];
        assert_eq!(lists, expected);
    }

    /// Every expression slot's list against the per-expression rule, and
    /// the shape [`MemoScan::build`] promises: one record per expression,
    /// exact bounds, an exactly sized pool, lists numbered as first met
    /// and pairwise different.
    fn assert_lists_match_the_rule(memo: &Memo, q: &QuerySpec) -> MemoScan {
        let scan = MemoScan::build(memo, q).unwrap();
        assert_eq!(scan.slots.len(), memo.num_physical());
        for (d, id) in scan.ids.iter() {
            let slots = memo.phys(id).child_slots(id.group);
            assert_eq!(scan.slot_lists(d).len(), slots.len(), "{id}: arity");
            for (&l, slot) in scan.slot_lists(d).iter().zip(&slots) {
                let rule: Vec<DenseId> = eligible_children(memo, q, slot)
                    .into_iter()
                    .map(|id| scan.ids.dense(id))
                    .collect();
                assert_eq!(scan.list(l), rule, "{id}: {slot:?}");
            }
        }
        let bounds = &scan.list_bounds;
        assert_eq!(bounds[0], 0);
        assert!(bounds.is_sorted());
        let num_lists = bounds.len() - 1;
        assert_eq!(bounds[num_lists] as usize, scan.pool.len());
        assert_eq!(scan.pool.capacity(), scan.pool.len());
        let mut met = 0;
        for l in scan.slots.iter().flat_map(|r| r.lists()) {
            assert!(l.0 <= met, "lists are numbered in first-encounter order");
            met = met.max(l.0 + 1);
        }
        assert_eq!(met as usize, num_lists);
        for a in 0..num_lists as u32 {
            for b in 0..a {
                assert_ne!(
                    scan.list(ListId(a)),
                    scan.list(ListId(b)),
                    "lists {b} and {a}"
                );
            }
        }
        scan
    }

    /// The order is by level, then dense id, not by group: here the
    /// aggregate's group is numbered first and the join group's Sort
    /// before the joins it sorts, so dense order is parents first.
    #[test]
    fn topo_is_by_level_then_dense_id() {
        let (_cat, q) = crate::props::tests::chain_query();
        let expr = |op| PhysicalExpr::new(op, 1.0, 1.0);
        let mut memo = Memo::new();
        let top = memo.add_group(GroupKey::Agg);
        let j = memo.add_group(GroupKey::Rels(RelSet::all(2)));
        let [l, r] =
            [0, 1].map(|rel| memo.add_group(GroupKey::Rels(RelSet::singleton(RelId(rel)))));
        let target = SortOrder::on_col(ColRef {
            rel: RelId(0),
            col: 0,
        });
        memo.add_physical(top, expr(PhysicalOp::HashAgg { input: j }));
        memo.add_physical(j, expr(PhysicalOp::Sort { target }));
        memo.add_physical(j, expr(PhysicalOp::HashJoin { left: l, right: r }));
        memo.add_physical(j, expr(PhysicalOp::NestedLoopJoin { left: l, right: r }));
        memo.add_physical(l, expr(PhysicalOp::TableScan { rel: RelId(0) }));
        memo.add_physical(r, expr(PhysicalOp::TableScan { rel: RelId(1) }));
        memo.set_root(top);

        // Levels by dense id: the aggregate 3, the Sort 2, the joins 1,
        // the scans 0.
        let scan = MemoScan::build(&memo, &q).unwrap();
        let topo: Vec<u32> = scan.topo.iter().map(|d| d.0).collect();
        assert_eq!(topo, [4, 5, 2, 3, 1, 0]);
    }

    /// A join whose right input is its own group: the fold meets the join
    /// again while folding it, and the scan is refused naming it.
    #[test]
    fn a_cyclic_memo_is_refused_naming_the_expression_met_again() {
        let (_cat, q) = crate::props::tests::chain_query();
        let mut memo = Memo::new();
        let g0 = memo.add_group(GroupKey::Rels(RelSet::all(1)));
        let scan = PhysicalOp::TableScan { rel: RelId(0) };
        memo.add_physical(g0, PhysicalExpr::new(scan, 1.0, 1.0));
        let g1 = memo.add_group(GroupKey::Rels(RelSet::all(2)));
        let join = PhysicalOp::NestedLoopJoin {
            left: g0,
            right: g1,
        };
        let join = memo
            .add_physical(g1, PhysicalExpr::new(join, 1.0, 1.0))
            .unwrap();
        memo.set_root(g1);
        let at = MemoScan::build(&memo, &q).unwrap_err();
        assert_eq!(at, join);
        assert_eq!(at.to_string(), "1.1");
    }

    /// No cap on the orders a group delivers: 70 index scans on 70
    /// columns and the 70 Sorts that enforce them make 141 classes in
    /// one group, and an aggregate group above asks for each order —
    /// 141 lists, every one what the rule says.
    #[test]
    fn a_group_delivering_seventy_orders_builds_without_truncation() {
        const ORDERS: u32 = 70;
        let mut cat = Catalog::new();
        let mut wide = table("wide", 100);
        for c in 0..ORDERS {
            wide = wide.col(&format!("c{c}"), ColType::Int, 100);
        }
        cat.add_table(wide.build()).unwrap();
        let mut qb = QueryBuilder::new(&cat);
        qb.rel("wide", None).unwrap();
        let q = qb.build().unwrap();

        let expr = |op| PhysicalExpr::new(op, 1.0, 1.0);
        let col = |col| ColRef { rel: RelId(0), col };
        let mut memo = Memo::new();
        let g = memo.add_group(GroupKey::Rels(RelSet::singleton(RelId(0))));
        let top = memo.add_group(GroupKey::Agg);
        memo.add_physical(g, expr(PhysicalOp::TableScan { rel: RelId(0) }));
        memo.add_physical(top, expr(PhysicalOp::HashAgg { input: g }));
        for c in 0..ORDERS {
            let (rel, target) = (RelId(0), SortOrder::on_col(col(c)));
            memo.add_physical(g, expr(PhysicalOp::SortedIdxScan { rel, col: col(c) }));
            memo.add_physical(
                g,
                expr(PhysicalOp::Sort {
                    target: target.clone(),
                }),
            );
            memo.add_physical(
                top,
                expr(PhysicalOp::StreamAgg {
                    input: g,
                    group_order: target,
                }),
            );
        }
        memo.set_root(top);

        let scan = assert_lists_match_the_rule(&memo, &q);
        assert_eq!(scan.list_bounds.len() - 1, 2 * ORDERS as usize + 1);
        // Each order has its scan and its Sort; each Sort may sit on the
        // table scan and the 69 other index scans; the hash aggregate
        // takes all 141.
        let mut lens: Vec<u32> = scan.list_bounds.windows(2).map(|w| w[1] - w[0]).collect();
        lens.sort_unstable();
        lens.dedup();
        assert_eq!(lens, [2, ORDERS, 2 * ORDERS + 1]);
    }

    /// The two facts list identity — hence every artifact byte — rests
    /// on, over the `a.x = b.y`, `b.z = c.w` chain: slots of *different*
    /// groups share a list only when nothing is eligible, and slots of
    /// *one* group share a list when different requirements accept the
    /// same classes. Here they do so only through the group's column
    /// equivalences: in scope {a, b} the merge join's `a.x` order
    /// answers a demand for `b.y`, and the Sort's `b.y` one for `a.x`.
    #[test]
    fn equal_class_sets_share_a_list_and_empty_lists_share_one_across_groups() {
        let (_cat, q) = crate::props::tests::chain_query();
        let col = |rel, col| ColRef {
            rel: RelId(rel),
            col,
        };
        let (ax, by, cw) = (col(0, 0), col(1, 0), col(2, 0));
        let expr = |op| PhysicalExpr::new(op, 1.0, 1.0);
        let rels = |ids: &[u32]| GroupKey::Rels(RelSet::from_iter(ids.iter().map(|&i| RelId(i))));
        let mut memo = Memo::new();
        let [a, b, c] = [0, 1, 2].map(|rel| {
            let g = memo.add_group(rels(&[rel]));
            memo.add_physical(g, expr(PhysicalOp::TableScan { rel: RelId(rel) }));
            g
        });
        let ab = memo.add_group(rels(&[0, 1]));
        let abc = memo.add_group(rels(&[0, 1, 2]));
        let merge = |left, right, left_key, right_key| {
            expr(PhysicalOp::MergeJoin {
                left,
                right,
                left_key,
                right_key,
            })
        };
        memo.add_physical(ab, merge(a, b, ax, by));
        memo.add_physical(ab, expr(PhysicalOp::HashJoin { left: a, right: b }));
        memo.add_physical(
            ab,
            expr(PhysicalOp::Sort {
                target: SortOrder::on_col(by),
            }),
        );
        memo.add_physical(abc, merge(ab, c, ax, cw));
        memo.add_physical(abc, merge(ab, c, by, cw));
        memo.set_root(abc);

        let scan = assert_lists_match_the_rule(&memo, &q);
        let list_of = |group, requirement| {
            let slot = ChildSlot { group, requirement };
            let (d, i) = (scan.ids.iter())
                .find_map(|(d, id)| {
                    let slots = memo.phys(id).child_slots(id.group);
                    Some((d, slots.iter().position(|s| *s == slot)?))
                })
                .unwrap();
            scan.slot_lists(d)[i]
        };
        let order = |c| Requirement::Order(SortOrder::on_col(c));

        // A bare table scan delivers no order: three groups, one list.
        let nothing = list_of(a, order(ax));
        assert!(scan.list(nothing).is_empty());
        assert_eq!(list_of(b, order(by)), nothing);
        assert_eq!(list_of(c, order(cw)), nothing);

        // Two requirements, one class set: the merge join and the Sort.
        let either = list_of(ab, order(ax));
        assert_eq!(list_of(ab, order(by)), either);
        assert_eq!(scan.list(either), [DenseId(3), DenseId(5)]);
        // The Sort's own input: the merge join already delivers `b.y`
        // (it is `a.x`), so only the hash join is worth sorting.
        let target = SortOrder::on_col(by);
        let input = list_of(ab, Requirement::SortInput { target });
        assert_eq!(scan.list(input), [DenseId(4)]);
    }
}
