//! Child eligibility: which expressions of a group may fill a given child
//! slot, which distinct slots a memo has, and which distinct child lists
//! those slots filter down to.
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
//! # Classes
//!
//! The rule reads two things of a candidate and nothing else: the order
//! it delivers and whether it is an enforcer. Expressions of one group
//! that agree on `(delivered_cols(), is_enforcer())` — a *class* — are
//! therefore accepted or refused together by every requirement, and a
//! group delivers a handful of orders however many expressions it holds
//! (Q8+CP: 22 293 expressions, 2 060 classes, at most 16 in a group).
//! [`child_lists`] asks the rule once per `(distinct slot, class)`
//! instead of once per `(distinct slot, expression)`, through one
//! [`OrderSatisfier`] a group.
//!
//! Classes also identify lists. A group's classes partition it and none
//! is empty, so two slots of one group have equal lists exactly when they
//! accept equal class sets — whatever their requirements say — and lists
//! of different groups are equal only when both are empty. Comparing
//! class sets (a few integers) is how [`child_lists`] interns, where a
//! content hash would read every member of every list.
//!
//! [`eligible_children`] is the per-slot, per-expression form of the same
//! rule: the reference the test suites compare the class scan against.
//! Production code scans a memo through [`MemoScan::build`] only — dense
//! ids, then the slot gather, then the class scan — and its two consumers
//! read one scan: the optimizer's best-plan extraction (`compute_totals`)
//! and link materialization (`Links` in `plansample-core`). A prepare
//! hands the optimizer's scan to the links, so it scans its memo once.

use crate::expr::SlotRef;
use crate::{ChildSlot, DenseId, DenseIdMap, GroupId, Memo, OrderSatisfier, PhysId, Requirement};
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

/// §3.1's post-processing scan of one memo: its dense ids, its distinct
/// child slots and their distinct child lists. Built by
/// [`MemoScan::build`], the one place the three are made.
#[derive(Debug, Clone)]
pub struct MemoScan {
    /// The memo's dense numbering.
    pub ids: DenseIdMap,
    /// Every child slot resolved to a distinct one.
    pub gather: SlotGather,
    /// The distinct slots' child lists.
    pub lists: ChildLists,
}

impl MemoScan {
    /// Numbers `memo`'s expressions, gathers its distinct slots, and
    /// decides each per class of its group (see the module docs).
    pub fn build(memo: &Memo, query: &QuerySpec) -> MemoScan {
        let ids = DenseIdMap::build(memo);
        let gather = gather_slots(memo);
        let lists = child_lists(memo, query, &ids, &gather);
        MemoScan { ids, gather, lists }
    }
}

/// Every child slot of a memo resolved to one of its *distinct* slots —
/// what lets a consumer decide eligibility once per `(group,
/// requirement)` instead of once per expression slot (Q8+CP: 2 049
/// questions, not 43 651).
#[derive(Debug, Clone)]
pub struct SlotGather {
    /// The distinct slots, in first-encounter order over groups, then
    /// expressions, then slots. The order is contractual: the class scan
    /// interns in it, so it fixes list ids, pool layout and artifact
    /// bytes.
    pub distinct: Vec<ChildSlot>,
    /// Each expression slot's index into `distinct`, concatenated in
    /// dense-id, then slot order.
    pub slot_of: Vec<u32>,
    /// Expression `d`'s slots are `slot_of[slot_bounds[d] ..
    /// slot_bounds[d + 1]]`.
    pub slot_bounds: Vec<u32>,
}

impl SlotGather {
    /// The distinct-slot index of each child slot of `d`, in slot order.
    #[inline]
    pub fn slots_of(&self, d: DenseId) -> &[u32] {
        &self.slot_of[self.slot_bounds[d.idx()] as usize..self.slot_bounds[d.idx() + 1] as usize]
    }
}

/// Walks every expression's child slots once — no property scans — and
/// numbers the distinct ones.
///
/// Requirements are interned per *target group* by a linear search over
/// borrowed key columns: a group is asked for a handful of distinct
/// orders (Q8+CP: 2 049 slots over 256 groups), so nothing is hashed and
/// only a first encounter clones its requirement into an owned
/// [`ChildSlot`].
fn gather_slots(memo: &Memo) -> SlotGather {
    let mut slot_of: Vec<u32> = Vec::new();
    let mut slot_bounds: Vec<u32> = Vec::with_capacity(memo.num_physical() + 1);
    slot_bounds.push(0);
    let mut distinct: Vec<ChildSlot> = Vec::new();
    let mut seen: Vec<Vec<(SlotRef<'_>, u32)>> = vec![Vec::new(); memo.num_groups()];
    for group in memo.groups() {
        for expr in &group.physical {
            for slot in expr.slot_refs(group.id) {
                let asked = &mut seen[slot.group.0 as usize];
                let idx = match asked.iter().find(|(s, _)| *s == slot) {
                    Some(&(_, idx)) => idx,
                    None => {
                        let idx = distinct.len() as u32;
                        distinct.push(slot.to_owned());
                        asked.push((slot, idx));
                        idx
                    }
                };
                slot_of.push(idx);
            }
            slot_bounds.push(slot_of.len() as u32);
        }
    }
    SlotGather {
        distinct,
        slot_of,
        slot_bounds,
    }
}

/// The distinct child lists of a memo: every distinct slot's eligible
/// children as [`DenseId`]s, slots that filter to the same children
/// sharing one list.
#[derive(Debug, Clone)]
pub struct ChildLists {
    /// The lists, concatenated in first-encounter order over
    /// [`SlotGather::distinct`]; each in group order, hence strictly
    /// ascending. Allocated at its exact length.
    pub pool: Vec<DenseId>,
    /// List `l` is `pool[bounds[l] .. bounds[l + 1]]`; one entry more
    /// than there are lists.
    pub bounds: Vec<u32>,
    /// Each distinct slot's list, by index into [`SlotGather::distinct`].
    pub list_of: Vec<u32>,
}

impl ChildLists {
    /// The members of list `l`.
    #[inline]
    pub fn list(&self, l: usize) -> &[DenseId] {
        &self.pool[self.bounds[l] as usize..self.bounds[l + 1] as usize]
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

/// Decides every distinct slot of `gather` per class and materializes
/// the distinct lists. A *class* is the expressions of one group that
/// deliver the same order and agree on being an enforcer: the rule reads
/// nothing else of a candidate, so a class is accepted or refused whole,
/// and two slots of a group list the same children exactly when they
/// accept the same classes (`links.rs`'s module docs argue both).
///
/// Three linear passes. **Classify**: number each group's classes in
/// first-appearance order, by a linear search over borrowed column
/// slices — nothing hashed, nothing cloned — and count them. **Decide**:
/// in distinct-slot order, ask the rule of each class of the slot's
/// group, through one [`OrderSatisfier`] a group; a class set its group
/// has not produced before is a new list, whose length is the sum of its
/// class counts. **Emit**: with every length known the pool is reserved
/// exactly, and each list is its group's dense range filtered by class.
fn child_lists(
    memo: &Memo,
    query: &QuerySpec,
    ids: &DenseIdMap,
    gather: &SlotGather,
) -> ChildLists {
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

    // Decide. List `l` accepts the classes `sets[set_bounds[l] ..
    // set_bounds[l + 1]]`; `seen[g]` holds the lists of group `g`, and
    // one entry past the groups the list that accepts nothing, which
    // every group shares.
    let mut sats: Vec<OrderSatisfier<'_>> = memo
        .groups()
        .map(|g| OrderSatisfier::new(query, g.scope(query)))
        .collect();
    let mut sets: Vec<u32> = Vec::new();
    let mut set_bounds: Vec<u32> = vec![0];
    let mut bounds: Vec<u32> = vec![0];
    let mut seen: Vec<Vec<u32>> = vec![Vec::new(); memo.num_groups() + 1];
    let mut list_of: Vec<u32> = Vec::with_capacity(gather.distinct.len());
    for slot in &gather.distinct {
        let g = slot.group.0 as usize;
        let (at, mut len) = (sets.len(), 0);
        for class in class_bounds[g]..class_bounds[g + 1] {
            let c = &classes[class as usize];
            if accepts(&mut sats[g], &slot.requirement, c.delivered, c.enforcer) {
                sets.push(class);
                len += c.len;
            }
        }
        let nothing = sets.len() == at;
        let home = &mut seen[if nothing { memo.num_groups() } else { g }];
        let set_of = |l: u32| set_bounds[l as usize] as usize..set_bounds[l as usize + 1] as usize;
        let known = home.iter().find(|&&l| sets[set_of(l)] == sets[at..]);
        list_of.push(match known {
            Some(&l) => {
                sets.truncate(at);
                l
            }
            None => {
                let l = bounds.len() as u32 - 1;
                set_bounds.push(sets.len() as u32);
                bounds.push(bounds[l as usize] + len);
                home.push(l);
                l
            }
        });
    }

    // Emit.
    let mut pool: Vec<DenseId> = Vec::with_capacity(bounds[bounds.len() - 1] as usize);
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
    ChildLists {
        pool,
        bounds,
        list_of,
    }
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
    /// *targets* — same key columns, two different slots.
    #[test]
    fn gather_numbers_distinct_slots_in_first_encounter_order() {
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
                group_order: on_key.clone(),
            }),
        );
        memo.add_physical(top, expr(PhysicalOp::HashAgg { input: j }));

        let order = |group, cols: SortOrder| ChildSlot {
            group,
            requirement: Requirement::Order(cols),
        };
        let gather = gather_slots(&memo);
        assert_eq!(
            gather.distinct,
            vec![
                order(l, on_key.clone()),
                order(r, SortOrder::on_col(col(1, 0))),
                order(r, SortOrder::on_col(col(1, 1))),
                order(l, SortOrder::unsorted()),
                order(r, SortOrder::unsorted()),
                ChildSlot {
                    group: j,
                    requirement: Requirement::SortInput {
                        target: on_key.clone()
                    },
                },
                order(j, on_key),
                order(j, SortOrder::unsorted()),
            ]
        );
        // Dense order: the two scans, then group j's four, then the two
        // aggregates.
        let per_expr: Vec<&[u32]> = (0..memo.num_physical() as u32)
            .map(|d| gather.slots_of(DenseId(d)))
            .collect();
        let expected: [&[u32]; 8] = [&[], &[], &[0, 1], &[0, 2], &[3, 4], &[5], &[6], &[7]];
        assert_eq!(per_expr, expected);
    }

    /// Every distinct slot's list against the per-expression rule, and
    /// the shape [`child_lists`] promises: exact bounds, an exactly
    /// sized pool, lists numbered as first met and pairwise different.
    fn assert_lists_match_the_rule(memo: &Memo, q: &QuerySpec) -> (SlotGather, ChildLists) {
        let MemoScan { ids, gather, lists } = MemoScan::build(memo, q);
        assert_eq!(lists.list_of.len(), gather.distinct.len());
        for (i, slot) in gather.distinct.iter().enumerate() {
            let rule: Vec<DenseId> = eligible_children(memo, q, slot)
                .into_iter()
                .map(|id| ids.dense(id))
                .collect();
            let listed = lists.list(lists.list_of[i] as usize);
            assert_eq!(listed, rule, "slot {i}: {slot:?}");
        }
        assert_eq!(lists.bounds[0], 0);
        assert!(lists.bounds.is_sorted());
        let num_lists = lists.bounds.len() - 1;
        assert_eq!(lists.bounds[num_lists] as usize, lists.pool.len());
        assert_eq!(lists.pool.capacity(), lists.pool.len());
        let mut met = 0;
        for &l in &lists.list_of {
            assert!(l <= met, "lists are numbered in first-encounter order");
            met = met.max(l + 1);
        }
        assert_eq!(met as usize, num_lists);
        for a in 0..num_lists {
            for b in 0..a {
                assert_ne!(lists.list(a), lists.list(b), "lists {b} and {a}");
            }
        }
        (gather, lists)
    }

    /// No cap on the orders a group delivers: 70 index scans on 70
    /// columns and the 70 Sorts that enforce them make 141 classes in
    /// one group, and an aggregate group above asks for each order —
    /// 141 distinct slots, every list what the rule says.
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

        let (gather, lists) = assert_lists_match_the_rule(&memo, &q);
        assert_eq!(gather.distinct.len(), 2 * ORDERS as usize + 1);
        // Each order has its scan and its Sort; each Sort may sit on the
        // table scan and the 69 other index scans; the hash aggregate
        // takes all 141.
        let mut lens: Vec<u32> = lists.bounds.windows(2).map(|w| w[1] - w[0]).collect();
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

        let (gather, lists) = assert_lists_match_the_rule(&memo, &q);
        let list_of = |group, requirement| {
            let slot = ChildSlot { group, requirement };
            let i = gather.distinct.iter().position(|s| *s == slot).unwrap();
            lists.list_of[i]
        };
        let order = |c| Requirement::Order(SortOrder::on_col(c));

        // A bare table scan delivers no order: three groups, one list.
        let nothing = list_of(a, order(ax));
        assert!(lists.list(nothing as usize).is_empty());
        assert_eq!(list_of(b, order(by)), nothing);
        assert_eq!(list_of(c, order(cw)), nothing);

        // Two requirements, one class set: the merge join and the Sort.
        let either = list_of(ab, order(ax));
        assert_eq!(list_of(ab, order(by)), either);
        assert_eq!(lists.list(either as usize), [DenseId(3), DenseId(5)]);
        // The Sort's own input: the merge join already delivers `b.y`
        // (it is `a.x`), so only the hash join is worth sorting.
        let target = SortOrder::on_col(by);
        let input = list_of(ab, Requirement::SortInput { target });
        assert_eq!(lists.list(input as usize), [DenseId(4)]);
    }
}
