//! Child eligibility: which expressions of a group may fill a given child
//! slot, and which distinct slots a memo has.
//!
//! This is the single source of truth for parent→child compatibility
//! (§3.1 of the paper: "Due to the differences in physical properties
//! some operators of a group may qualify as potential children while
//! others do not"). It has two consumers, and both work the same way —
//! [`gather_slots`] once, then one [`eligible_children`] scan per
//! *distinct* slot:
//!
//! - the optimizer's best-plan extraction (`compute_totals` memoises the
//!   cheapest eligible child per distinct slot);
//! - the counting/unranking machinery (`Links::build` in
//!   `plansample-core` scans the distinct slots in parallel and interns
//!   the lists).
//!
//! Rules:
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

use crate::expr::SlotRef;
use crate::{ChildSlot, DenseId, Memo, OrderSatisfier, PhysId, Requirement};
use plansample_query::QuerySpec;

/// All expressions of `slot.group` eligible to fill `slot`, in group
/// order (the order that defines plan ranks).
pub fn eligible_children(memo: &Memo, query: &QuerySpec, slot: &ChildSlot) -> Vec<PhysId> {
    let group = memo.group(slot.group);
    // One satisfier for the whole scan: the scope's equivalence classes
    // are built at most once, not per candidate expression.
    let mut sat = OrderSatisfier::new(query, group.scope(query));
    group
        .phys_iter()
        .filter(|(_, e)| match &slot.requirement {
            Requirement::Order(req) => sat.satisfies_cols(e.delivered_cols(), req),
            Requirement::SortInput { target } => {
                !e.op.is_enforcer() && !sat.satisfies_cols(e.delivered_cols(), target)
            }
        })
        .map(|(id, _)| id)
        .collect()
}

/// Every child slot of a memo resolved to one of its *distinct* slots —
/// what lets a consumer run [`eligible_children`] once per `(group,
/// requirement)` instead of once per expression slot (Q8+CP: 2 049
/// scans, not 43 651). Built by [`gather_slots`].
#[derive(Debug, Clone)]
pub struct SlotGather {
    /// The distinct slots, in first-encounter order over groups, then
    /// expressions, then slots. The order is contractual: `Links::build`
    /// interns its lists in it, so it fixes list ids, pool layout and
    /// artifact bytes.
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
pub fn gather_slots(memo: &Memo) -> SlotGather {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GroupKey, PhysicalExpr, PhysicalOp, SortOrder};
    use plansample_catalog::{table, Catalog, ColType};
    use plansample_query::{ColRef, QueryBuilder, RelId, RelSet};

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
}
