//! Logical and physical expressions stored in MEMO groups.
//!
//! Logical operators describe *what* a group computes; physical operators
//! describe *how*. Only physical operators appear in executable plans, so
//! only they participate in counting/unranking (§3.1: "we extract all
//! physical operators"). Each physical operator knows its child slots —
//! which group each input comes from and what physical property that
//! input must deliver — which is the information the materialized-links
//! step consumes.

use crate::{GroupId, SortOrder};
use plansample_query::{ColRef, RelId};

/// A logical (algebraic) operator. Children are group references.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LogicalOp {
    /// Access one base relation instance (filters are implicit: every
    /// access to `rel` applies that relation's local predicates).
    Scan {
        /// The relation instance.
        rel: RelId,
    },
    /// Join two disjoint sub-goals; all join predicates crossing the two
    /// relation sets are applied.
    Join {
        /// Left input goal.
        left: GroupId,
        /// Right input goal.
        right: GroupId,
    },
    /// Final grouping/aggregation over the full join.
    Agg {
        /// Input goal (the group covering all relations).
        input: GroupId,
    },
}

/// A physical (executable) operator. Children are group references plus
/// property requirements.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PhysicalOp {
    /// Heap scan of a base relation; delivers no order.
    TableScan {
        /// The relation instance.
        rel: RelId,
    },
    /// Ordered scan through an index; delivers order on the index column.
    SortedIdxScan {
        /// The relation instance.
        rel: RelId,
        /// The indexed column (also the delivered sort key).
        col: ColRef,
    },
    /// Sort enforcer: same-group child, delivers `target`.
    ///
    /// Its valid children are the group's *non-enforcer* operators that do
    /// **not** already satisfy `target` (sorting an already-sorted stream
    /// is never generated, which also keeps the plan graph acyclic — this
    /// is the `Sort 1.4 → TableScan 1.2` link structure of Figure 3).
    Sort {
        /// The order this enforcer produces.
        target: SortOrder,
    },
    /// Tuple-at-a-time nested loops join; applies all crossing predicates;
    /// delivers no order.
    NestedLoopJoin {
        /// Build (outer) side goal.
        left: GroupId,
        /// Probe (inner) side goal.
        right: GroupId,
    },
    /// Hash join on the equality predicates crossing the inputs; delivers
    /// no order. Requires at least one crossing equality predicate.
    HashJoin {
        /// Build side goal.
        left: GroupId,
        /// Probe side goal.
        right: GroupId,
    },
    /// Sort-merge join on one crossing predicate (`left_key = right_key`),
    /// remaining crossing predicates applied as residuals. Requires both
    /// inputs sorted on their key; delivers the left key's order.
    MergeJoin {
        /// Left input goal.
        left: GroupId,
        /// Right input goal.
        right: GroupId,
        /// Sort/merge key on the left input.
        left_key: ColRef,
        /// Sort/merge key on the right input.
        right_key: ColRef,
    },
    /// Hash-based grouping; no input requirement, delivers no order.
    HashAgg {
        /// Input goal.
        input: GroupId,
    },
    /// Streaming grouping; requires the input sorted on the full group-by
    /// key list and delivers that order.
    StreamAgg {
        /// Input goal.
        input: GroupId,
        /// Required (and delivered) grouping order.
        group_order: SortOrder,
    },
}

impl PhysicalOp {
    /// Short operator name for plan rendering.
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalOp::TableScan { .. } => "TableScan",
            PhysicalOp::SortedIdxScan { .. } => "SortedIdxScan",
            PhysicalOp::Sort { .. } => "Sort",
            PhysicalOp::NestedLoopJoin { .. } => "NestedLoopJoin",
            PhysicalOp::HashJoin { .. } => "HashJoin",
            PhysicalOp::MergeJoin { .. } => "MergeJoin",
            PhysicalOp::HashAgg { .. } => "HashAgg",
            PhysicalOp::StreamAgg { .. } => "StreamAgg",
        }
    }

    /// `true` for property enforcers (operators whose child lives in their
    /// own group).
    pub fn is_enforcer(&self) -> bool {
        matches!(self, PhysicalOp::Sort { .. })
    }

    /// `true` for leaf (zero-input) operators.
    pub fn is_leaf(&self) -> bool {
        matches!(
            self,
            PhysicalOp::TableScan { .. } | PhysicalOp::SortedIdxScan { .. }
        )
    }
}

/// What a child slot demands from the chosen child expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Requirement {
    /// The child's delivered order must satisfy this order (the empty
    /// order accepts anything — the paper's "any operator from group 1
    /// and 2" case for hash joins).
    Order(SortOrder),
    /// Enforcer input: the child must be a non-enforcer of the *same*
    /// group whose delivered order does not already satisfy `target`.
    SortInput {
        /// The order the enforcer will produce.
        target: SortOrder,
    },
}

/// One child position of a physical operator: where the input comes from
/// and what it must provide.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChildSlot {
    /// The group supplying this input.
    pub group: GroupId,
    /// The property demanded of it.
    pub requirement: Requirement,
}

/// A [`ChildSlot`] borrowed from its operator: the same `(group,
/// requirement)`, with the requirement's key columns as a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotRef<'a> {
    /// The group supplying this input.
    pub group: GroupId,
    /// `true` for [`Requirement::SortInput`], `false` for
    /// [`Requirement::Order`].
    pub sort_input: bool,
    /// Key columns of the required order, or of the sort target.
    pub cols: &'a [ColRef],
}

impl SlotRef<'_> {
    /// The owned slot.
    pub fn to_owned(self) -> ChildSlot {
        let order = SortOrder::on(self.cols.to_vec());
        ChildSlot {
            group: self.group,
            requirement: if self.sort_input {
                Requirement::SortInput { target: order }
            } else {
                Requirement::Order(order)
            },
        }
    }
}

/// The most child slots any [`PhysicalOp`] has — the bound on
/// [`PhysicalExpr::arity`]. The operator enum is closed, so this is a
/// property of the type: the fixed-size [`SlotRecord`] every expression
/// keeps is sized with this, and a unit test below holds it against one
/// value of every variant.
pub const MAX_SLOTS: usize = 2;

/// Identifies one interned child-alternative list of a memo's link
/// table: an index into the list bounds of a
/// [`MemoScan`](crate::MemoScan), and of the `Links` built from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ListId(pub u32);

impl ListId {
    /// Pads the unoccupied tail of a [`SlotRecord`]. No interned list has
    /// this id: one would need a bounds table of 2³² entries.
    pub const NONE: ListId = ListId(u32::MAX);

    /// The id as a usize array index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// One expression's child slots as the interned lists that fill them, in
/// slot order, padded with [`ListId::NONE`] — one fixed record per
/// expression, read in one load (docs/DESIGN.md §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRecord(pub(crate) [ListId; MAX_SLOTS]);

impl SlotRecord {
    /// Packs one expression's slot lists; `None` when there are more than
    /// [`MAX_SLOTS`].
    pub fn pack(lists: impl ExactSizeIterator<Item = ListId>) -> Option<SlotRecord> {
        let mut record = [ListId::NONE; MAX_SLOTS];
        if lists.len() > MAX_SLOTS {
            return None;
        }
        for (slot, l) in record.iter_mut().zip(lists) {
            *slot = l;
        }
        Some(SlotRecord(record))
    }

    /// The list of each child slot, in slot order: the occupied prefix.
    #[inline]
    pub fn lists(&self) -> &[ListId] {
        let arity = self.0.iter().take_while(|&&l| l != ListId::NONE).count();
        &self.0[..arity]
    }
}

/// A physical expression: the operator plus its derived properties and
/// local cost.
///
/// The sort order an operator delivers is a function of the operator
/// itself (a table scan delivers nothing, an index scan its index
/// column, a sort its target, a merge join its left key …), so it is
/// *derived on demand* ([`delivered_cols`](Self::delivered_cols) /
/// [`delivered`](Self::delivered)) rather than stored. That keeps the
/// expression at `op + two f64s` — the MEMO stores one of these per
/// physical alternative, and on large memos the struct size dominates
/// the resident footprint (docs/DESIGN.md §6) — and makes a memo whose
/// *claimed* order disagrees with its operator unrepresentable.
#[derive(Debug, Clone)]
pub struct PhysicalExpr {
    /// The operator.
    pub op: PhysicalOp,
    /// Cost of this operator alone (excluding children). Because child
    /// *cardinalities* are group-level estimates, the local cost is the
    /// same for every choice of child expressions — a plan's cost is the
    /// sum of its operators' local costs.
    pub local_cost: f64,
    /// Estimated output cardinality (a group-level property, duplicated
    /// here for convenient cost reporting).
    pub out_card: f64,
}

impl PhysicalExpr {
    /// Bundles an operator with its cost properties.
    pub fn new(op: PhysicalOp, local_cost: f64, out_card: f64) -> Self {
        PhysicalExpr {
            op,
            local_cost,
            out_card,
        }
    }

    /// The key columns of the sort order this operator guarantees on its
    /// output, major first (empty = no guarantee) — borrowed straight
    /// from the operator, so property checks on the link-materialization
    /// hot path allocate nothing.
    #[inline]
    pub fn delivered_cols(&self) -> &[ColRef] {
        match &self.op {
            PhysicalOp::TableScan { .. }
            | PhysicalOp::NestedLoopJoin { .. }
            | PhysicalOp::HashJoin { .. }
            | PhysicalOp::HashAgg { .. } => &[],
            PhysicalOp::SortedIdxScan { col, .. } => std::slice::from_ref(col),
            PhysicalOp::Sort { target } => target.cols(),
            PhysicalOp::MergeJoin { left_key, .. } => std::slice::from_ref(left_key),
            PhysicalOp::StreamAgg { group_order, .. } => group_order.cols(),
        }
    }

    /// The delivered order as an owned [`SortOrder`] (allocates for
    /// sorted operators; rendering/diagnostic convenience over
    /// [`delivered_cols`](Self::delivered_cols)).
    pub fn delivered(&self) -> SortOrder {
        SortOrder::on(self.delivered_cols().to_vec())
    }

    /// The operator's child slots, in input order. `own_group` is the
    /// group this expression lives in (needed by enforcers, whose child
    /// is their own group).
    pub fn child_slots(&self, own_group: GroupId) -> Vec<ChildSlot> {
        self.slot_refs(own_group).map(SlotRef::to_owned).collect()
    }

    /// [`child_slots`](Self::child_slots) borrowed from the operator:
    /// [`MemoScan::build`](crate::MemoScan::build) walks every slot of a
    /// memo and clones only the distinct ones.
    pub(crate) fn slot_refs(&self, own_group: GroupId) -> impl Iterator<Item = SlotRef<'_>> {
        fn order(group: GroupId, cols: &[ColRef]) -> Option<SlotRef<'_>> {
            Some(SlotRef {
                group,
                sort_input: false,
                cols,
            })
        }
        let slots: [_; MAX_SLOTS] = match &self.op {
            PhysicalOp::TableScan { .. } | PhysicalOp::SortedIdxScan { .. } => [None, None],
            PhysicalOp::Sort { target } => [
                Some(SlotRef {
                    group: own_group,
                    sort_input: true,
                    cols: target.cols(),
                }),
                None,
            ],
            PhysicalOp::NestedLoopJoin { left, right } | PhysicalOp::HashJoin { left, right } => {
                [order(*left, &[]), order(*right, &[])]
            }
            PhysicalOp::MergeJoin {
                left,
                right,
                left_key,
                right_key,
            } => [
                order(*left, std::slice::from_ref(left_key)),
                order(*right, std::slice::from_ref(right_key)),
            ],
            PhysicalOp::HashAgg { input } => [order(*input, &[]), None],
            PhysicalOp::StreamAgg { input, group_order } => {
                [order(*input, group_order.cols()), None]
            }
        };
        slots.into_iter().flatten()
    }

    /// Heap bytes owned by this expression beyond its inline size (the
    /// sort-order key vectors of enforcer/stream-agg operators; every
    /// other operator owns no heap at all).
    pub fn heap_bytes(&self) -> usize {
        match &self.op {
            PhysicalOp::Sort { target } => target.heap_bytes(),
            PhysicalOp::StreamAgg { group_order, .. } => group_order.heap_bytes(),
            _ => 0,
        }
    }

    /// Number of children (the paper's `|v|`), at most [`MAX_SLOTS`].
    pub fn arity(&self) -> usize {
        match &self.op {
            PhysicalOp::TableScan { .. } | PhysicalOp::SortedIdxScan { .. } => 0,
            PhysicalOp::Sort { .. } | PhysicalOp::HashAgg { .. } | PhysicalOp::StreamAgg { .. } => {
                1
            }
            PhysicalOp::NestedLoopJoin { .. }
            | PhysicalOp::HashJoin { .. }
            | PhysicalOp::MergeJoin { .. } => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(rel: u32, c: u32) -> ColRef {
        ColRef {
            rel: RelId(rel),
            col: c,
        }
    }

    #[test]
    fn names_and_classification() {
        let scan = PhysicalOp::TableScan { rel: RelId(0) };
        assert_eq!(scan.name(), "TableScan");
        assert!(scan.is_leaf());
        assert!(!scan.is_enforcer());
        let sort = PhysicalOp::Sort {
            target: SortOrder::on_col(col(0, 0)),
        };
        assert!(sort.is_enforcer());
        assert!(!sort.is_leaf());
    }

    #[test]
    fn leaf_has_no_slots() {
        let e = PhysicalExpr::new(PhysicalOp::TableScan { rel: RelId(0) }, 1.0, 10.0);
        assert!(e.child_slots(GroupId(0)).is_empty());
        assert_eq!(e.arity(), 0);
    }

    #[test]
    fn join_slots_accept_anything() {
        let e = PhysicalExpr::new(
            PhysicalOp::HashJoin {
                left: GroupId(1),
                right: GroupId(2),
            },
            1.0,
            10.0,
        );
        let slots = e.child_slots(GroupId(3));
        assert_eq!(slots.len(), 2);
        assert_eq!(slots[0].group, GroupId(1));
        assert_eq!(slots[1].group, GroupId(2));
        assert_eq!(
            slots[0].requirement,
            Requirement::Order(SortOrder::unsorted())
        );
        assert_eq!(e.arity(), 2);
    }

    #[test]
    fn merge_join_requires_orders() {
        let e = PhysicalExpr::new(
            PhysicalOp::MergeJoin {
                left: GroupId(1),
                right: GroupId(2),
                left_key: col(0, 0),
                right_key: col(1, 0),
            },
            1.0,
            10.0,
        );
        let slots = e.child_slots(GroupId(3));
        assert_eq!(
            slots[0].requirement,
            Requirement::Order(SortOrder::on_col(col(0, 0)))
        );
        assert_eq!(
            slots[1].requirement,
            Requirement::Order(SortOrder::on_col(col(1, 0)))
        );
    }

    #[test]
    fn sort_slot_points_at_own_group() {
        let target = SortOrder::on_col(col(0, 0));
        let e = PhysicalExpr::new(
            PhysicalOp::Sort {
                target: target.clone(),
            },
            1.0,
            10.0,
        );
        let slots = e.child_slots(GroupId(9));
        assert_eq!(slots.len(), 1);
        assert_eq!(slots[0].group, GroupId(9));
        assert_eq!(slots[0].requirement, Requirement::SortInput { target });
        assert_eq!(e.arity(), 1);
    }

    /// One value of every variant: the `match` has no wildcard arm, so
    /// a new operator does not compile until it is listed here, and
    /// then has to fit the slot record.
    #[test]
    fn max_slots_bounds_the_arity_of_every_operator() {
        let (rel, left, right) = (RelId(0), GroupId(1), GroupId(2));
        let order = SortOrder::on_col(col(0, 0));
        let ops = [
            PhysicalOp::TableScan { rel },
            PhysicalOp::SortedIdxScan {
                rel,
                col: col(0, 0),
            },
            PhysicalOp::Sort {
                target: order.clone(),
            },
            PhysicalOp::NestedLoopJoin { left, right },
            PhysicalOp::HashJoin { left, right },
            PhysicalOp::MergeJoin {
                left,
                right,
                left_key: col(0, 0),
                right_key: col(1, 0),
            },
            PhysicalOp::HashAgg { input: left },
            PhysicalOp::StreamAgg {
                input: left,
                group_order: order,
            },
        ];
        let mut widest = 0;
        for op in ops {
            match op {
                PhysicalOp::TableScan { .. }
                | PhysicalOp::SortedIdxScan { .. }
                | PhysicalOp::Sort { .. }
                | PhysicalOp::NestedLoopJoin { .. }
                | PhysicalOp::HashJoin { .. }
                | PhysicalOp::MergeJoin { .. }
                | PhysicalOp::HashAgg { .. }
                | PhysicalOp::StreamAgg { .. } => {}
            }
            let expr = PhysicalExpr::new(op, 1.0, 1.0);
            assert!(expr.arity() <= MAX_SLOTS, "{} overflows", expr.op.name());
            assert_eq!(expr.child_slots(GroupId(3)).len(), expr.arity());
            widest = widest.max(expr.arity());
        }
        assert_eq!(widest, MAX_SLOTS, "the record is no wider than needed");
    }

    #[test]
    fn stream_agg_requires_group_order() {
        let order = SortOrder::on(vec![col(0, 0), col(1, 0)]);
        let e = PhysicalExpr::new(
            PhysicalOp::StreamAgg {
                input: GroupId(4),
                group_order: order.clone(),
            },
            1.0,
            5.0,
        );
        let slots = e.child_slots(GroupId(5));
        assert_eq!(slots[0].group, GroupId(4));
        assert_eq!(slots[0].requirement, Requirement::Order(order));
    }
}
