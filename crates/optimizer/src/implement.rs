//! Implementation rules and enforcers: turning logical alternatives into
//! costed physical operators.
//!
//! Mirrors the paper's rule classes (§2): "a physical operator in the
//! same group, e.g. join → hash join", plus property enforcers (the
//! `Sort` in group 1 of Figure 2 whose child is its own group). Every
//! physical expression is costed at creation; local costs depend only on
//! group-level cardinality estimates, so they are identical across child
//! choices — the invariant that makes a plan's cost the sum of its
//! operators' local costs.

use crate::CostModel;
use plansample_catalog::Catalog;
use plansample_memo::{
    GroupId, GroupKey, LogicalOp, Memo, OrderSatisfier, PhysicalExpr, PhysicalOp, SortOrder,
};
use plansample_query::{ColRef, QuerySpec, RelSet};

/// Applies implementation rules to every logical expression of every
/// group. Exploration must be complete beforehand, and no group may hold
/// a physical expression yet.
///
/// Each group's alternatives are appended as one batch with no
/// duplicate check, because they are distinct by construction.
/// Duplicates can arise only within one logical operator's output — a
/// join predicate written twice yields two equal merge joins, an index
/// declared twice two equal index scans — and are dropped there, the
/// later one going as [`Memo::add_physical`] would drop it. Alternatives
/// of different logical operators cannot coincide: each names its
/// operator's inputs, and [`Memo::add_logical`] keeps every
/// `(left, right)` unique within a group (a scan group holds one scan,
/// the aggregate group one aggregate).
pub fn implement_all(
    query: &QuerySpec,
    catalog: &Catalog,
    cost: &CostModel,
    enable_merge_joins: bool,
    enable_index_scans: bool,
    memo: &mut Memo,
) {
    debug_assert!(
        memo.groups().all(|g| g.physical.is_empty()),
        "implementation runs once, on a memo with no physical expressions"
    );
    // Cardinality is a property of the relation set, so of the group:
    // estimated once a group, read by every join over it.
    let cards: Vec<f64> = memo
        .groups()
        .map(|g| query.set_card(catalog, g.scope(query)))
        .collect();
    for gid in (0..memo.num_groups() as u32).map(GroupId) {
        let mut out = Vec::new();
        for op in &memo.group(gid).logical {
            let start = out.len();
            match *op {
                LogicalOp::Scan { rel } => {
                    implement_scan(query, catalog, cost, enable_index_scans, rel, &mut out)
                }
                LogicalOp::Join { left, right } => implement_join(
                    query,
                    cost,
                    enable_merge_joins,
                    memo,
                    &cards,
                    gid,
                    left,
                    right,
                    &mut out,
                ),
                LogicalOp::Agg { input } => {
                    implement_agg(query, catalog, cost, memo, &cards, input, &mut out)
                }
            }
            drop_repeats(&mut out, start);
        }
        memo.append_physical(gid, out);
    }
}

/// Drops each alternative past `start` whose operator an earlier one
/// past `start` already has: one logical operator's handful of
/// alternatives, compared pairwise.
fn drop_repeats(out: &mut Vec<PhysicalExpr>, start: usize) {
    let mut i = start + 1;
    while i < out.len() {
        if out[start..i].iter().any(|e| e.op == out[i].op) {
            out.remove(i);
        } else {
            i += 1;
        }
    }
}

fn rels_of(memo: &Memo, g: GroupId) -> RelSet {
    memo.group(g)
        .key
        .rels()
        .expect("join/scan inputs are relation-set groups")
}

fn implement_scan(
    query: &QuerySpec,
    catalog: &Catalog,
    cost: &CostModel,
    enable_index_scans: bool,
    rel: plansample_query::RelId,
    out: &mut Vec<PhysicalExpr>,
) {
    let table = catalog.table(query.relations[rel.idx()].table);
    let stored_rows = table.row_count as f64;
    let out_card = query.filtered_card(catalog, rel);

    out.push(PhysicalExpr::new(
        PhysicalOp::TableScan { rel },
        cost.table_scan(stored_rows),
        out_card,
    ));
    if enable_index_scans {
        for ix in &table.indexes {
            let col = ColRef {
                rel,
                col: ix.column as u32,
            };
            out.push(PhysicalExpr::new(
                PhysicalOp::SortedIdxScan { rel, col },
                cost.idx_scan(stored_rows),
                out_card,
            ));
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn implement_join(
    query: &QuerySpec,
    cost: &CostModel,
    enable_merge_joins: bool,
    memo: &Memo,
    cards: &[f64],
    gid: GroupId,
    left: GroupId,
    right: GroupId,
    out: &mut Vec<PhysicalExpr>,
) {
    let (lset, rset) = (rels_of(memo, left), rels_of(memo, right));
    debug_assert_eq!(lset.union(rset), rels_of(memo, gid));
    let card = |g: GroupId| cards[g.0 as usize];
    let (lcard, rcard, out_card) = (card(left), card(right), card(gid));
    let crossing = query.edges_crossing(lset, rset);

    // Nested loops handle any predicate set, including pure cross products.
    out.push(PhysicalExpr::new(
        PhysicalOp::NestedLoopJoin { left, right },
        cost.nested_loop_join(lcard, rcard),
        out_card,
    ));

    if !crossing.is_empty() {
        out.push(PhysicalExpr::new(
            PhysicalOp::HashJoin { left, right },
            cost.hash_join(lcard, rcard),
            out_card,
        ));
        if enable_merge_joins {
            // One merge-join alternative per crossing predicate: merge on
            // that key, remaining crossing predicates become residuals.
            for edge in crossing {
                let (lk, rk) = if lset.contains(edge.left.rel) {
                    (edge.left, edge.right)
                } else {
                    (edge.right, edge.left)
                };
                out.push(PhysicalExpr::new(
                    PhysicalOp::MergeJoin {
                        left,
                        right,
                        left_key: lk,
                        right_key: rk,
                    },
                    cost.merge_join(lcard, rcard),
                    out_card,
                ));
            }
        }
    }
}

fn implement_agg(
    query: &QuerySpec,
    catalog: &Catalog,
    cost: &CostModel,
    memo: &Memo,
    cards: &[f64],
    input: GroupId,
    out: &mut Vec<PhysicalExpr>,
) {
    let agg = query
        .aggregate
        .as_ref()
        .expect("Agg logical expression implies an aggregate in the query");
    let in_card = cards[input.0 as usize];
    let out_card = query.grouped_card(catalog, rels_of(memo, input), &agg.group_by);
    let group_order = SortOrder::on(agg.group_by.clone());

    out.push(PhysicalExpr::new(
        PhysicalOp::HashAgg { input },
        cost.hash_agg(in_card),
        out_card,
    ));
    out.push(PhysicalExpr::new(
        PhysicalOp::StreamAgg { input, group_order },
        cost.stream_agg(in_card),
        out_card,
    ));
}

/// Adds `Sort` enforcers for every *interesting order* of every
/// relation-set group: orders a parent might require, i.e. the local
/// endpoint of each join edge leaving the group's relation set, plus the
/// group-by order for the full set. Enforcers whose eligible child set
/// would be empty (everything already sorted) are skipped.
pub fn add_enforcers(query: &QuerySpec, catalog: &Catalog, cost: &CostModel, memo: &mut Memo) {
    let all = query.all_rels();
    for gid in (0..memo.num_groups() as u32).map(GroupId) {
        let GroupKey::Rels(set) = memo.group(gid).key else {
            continue; // nothing above the aggregate requires an order
        };

        let mut orders: Vec<SortOrder> = Vec::new();
        for edge in &query.join_edges {
            for col in [edge.left, edge.right] {
                let other = if col == edge.left {
                    edge.right
                } else {
                    edge.left
                };
                if set.contains(col.rel) && !set.contains(other.rel) {
                    let ord = SortOrder::on_col(col);
                    if !orders.contains(&ord) {
                        orders.push(ord);
                    }
                }
            }
        }
        if set == all {
            if let Some(agg) = &query.aggregate {
                if !agg.group_by.is_empty() {
                    let ord = SortOrder::on(agg.group_by.clone());
                    if !orders.contains(&ord) {
                        orders.push(ord);
                    }
                }
            }
        }

        let card = query.set_card(catalog, set);
        // One satisfier per group: the scope's equivalence classes are
        // built at most once, not per candidate expression.
        let mut sat = OrderSatisfier::new(query, set);
        for target in orders {
            let has_sortable_input =
                memo.group(gid).physical.iter().any(|e| {
                    !e.op.is_enforcer() && !sat.satisfies_cols(e.delivered_cols(), &target)
                });
            if has_sortable_input {
                memo.add_physical(
                    gid,
                    PhysicalExpr::new(
                        PhysicalOp::Sort {
                            target: target.clone(),
                        },
                        cost.sort(card),
                        card,
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore_bottom_up;
    use plansample_catalog::{table, ColType};
    use plansample_query::QueryBuilder;

    /// a(k indexed, v) ⋈ b(k indexed) on a.k = b.k.
    fn setup() -> (Catalog, QuerySpec, Memo) {
        let mut cat = Catalog::new();
        cat.add_table(
            table("a", 1000)
                .col("k", ColType::Int, 1000)
                .col("v", ColType::Int, 10)
                .index_on(0)
                .build(),
        )
        .unwrap();
        cat.add_table(
            table("b", 500)
                .col("k", ColType::Int, 500)
                .index_on(0)
                .build(),
        )
        .unwrap();
        let mut qb = QueryBuilder::new(&cat);
        qb.rel("a", None).unwrap();
        qb.rel("b", None).unwrap();
        qb.join(("a", "k"), ("b", "k")).unwrap();
        let q = qb.build().unwrap();

        let mut memo = Memo::new();
        explore_bottom_up(&q, false, &mut memo).unwrap();
        let cost = CostModel::default();
        implement_all(&q, &cat, &cost, true, true, &mut memo);
        add_enforcers(&q, &cat, &cost, &mut memo);
        (cat, q, memo)
    }

    fn ops_of(memo: &Memo, gid: u32) -> Vec<&'static str> {
        memo.group(GroupId(gid))
            .physical
            .iter()
            .map(|e| e.op.name())
            .collect()
    }

    #[test]
    fn scan_group_contents_match_figure2_shape() {
        let (_cat, _q, memo) = setup();
        // Group {a}: TableScan, SortedIdxScan(k), Sort(k targeting the
        // join order) — exactly the paper's group-1 shape.
        let names = ops_of(&memo, 0);
        assert_eq!(names, vec!["TableScan", "SortedIdxScan", "Sort"]);
    }

    #[test]
    fn join_group_has_all_implementations_in_both_orders() {
        let (_cat, _q, memo) = setup();
        let names = ops_of(&memo, 2);
        // Two logical orders × (NLJ, HashJoin, MergeJoin) = 6.
        assert_eq!(names.len(), 6);
        assert_eq!(names.iter().filter(|n| **n == "NestedLoopJoin").count(), 2);
        assert_eq!(names.iter().filter(|n| **n == "HashJoin").count(), 2);
        assert_eq!(names.iter().filter(|n| **n == "MergeJoin").count(), 2);
    }

    #[test]
    fn costs_are_finite_and_positive() {
        let (_cat, _q, memo) = setup();
        for g in memo.groups() {
            for e in &g.physical {
                assert!(e.local_cost.is_finite() && e.local_cost > 0.0);
                assert!(e.out_card >= 1.0);
            }
        }
    }

    #[test]
    fn no_enforcer_above_join_without_outward_edges() {
        let (_cat, _q, memo) = setup();
        // Group {a,b} covers all relations and the query has no
        // aggregate: no interesting orders, hence no Sort.
        assert!(ops_of(&memo, 2).iter().all(|n| *n != "Sort"));
    }

    #[test]
    fn cross_product_only_gets_nested_loops() {
        let mut cat = Catalog::new();
        cat.add_table(table("a", 10).col("x", ColType::Int, 10).build())
            .unwrap();
        cat.add_table(table("b", 10).col("y", ColType::Int, 10).build())
            .unwrap();
        let mut qb = QueryBuilder::new(&cat);
        qb.rel("a", None).unwrap();
        qb.rel("b", None).unwrap();
        let q = qb.build().unwrap(); // no join edge
        let mut memo = Memo::new();
        explore_bottom_up(&q, true, &mut memo).unwrap();
        let cost = CostModel::default();
        implement_all(&q, &cat, &cost, true, true, &mut memo);
        let names = ops_of(&memo, 2);
        assert!(names.iter().all(|n| *n == "NestedLoopJoin"), "{names:?}");
    }

    #[test]
    fn aggregate_group_gets_both_implementations() {
        let (cat, _) = plansample_catalog::tpch::catalog();
        let q = plansample_query::tpch::q5(&cat);
        let mut memo = Memo::new();
        explore_bottom_up(&q, false, &mut memo).unwrap();
        let cost = CostModel::default();
        implement_all(&q, &cat, &cost, true, true, &mut memo);
        let agg_group = memo.group(memo.root());
        let names: Vec<_> = agg_group.physical.iter().map(|e| e.op.name()).collect();
        assert_eq!(names, vec!["HashAgg", "StreamAgg"]);
    }

    #[test]
    fn merge_join_per_crossing_edge() {
        // Two predicates between a and b -> two merge-join alternatives
        // per logical order.
        let mut cat = Catalog::new();
        cat.add_table(
            table("a", 100)
                .col("x", ColType::Int, 100)
                .col("y", ColType::Int, 100)
                .build(),
        )
        .unwrap();
        cat.add_table(
            table("b", 100)
                .col("x", ColType::Int, 100)
                .col("y", ColType::Int, 100)
                .build(),
        )
        .unwrap();
        let mut qb = QueryBuilder::new(&cat);
        qb.rel("a", None).unwrap();
        qb.rel("b", None).unwrap();
        qb.join(("a", "x"), ("b", "x")).unwrap();
        qb.join(("a", "y"), ("b", "y")).unwrap();
        let q = qb.build().unwrap();
        let mut memo = Memo::new();
        explore_bottom_up(&q, false, &mut memo).unwrap();
        let cost = CostModel::default();
        implement_all(&q, &cat, &cost, true, true, &mut memo);
        let names = ops_of(&memo, 2);
        assert_eq!(names.iter().filter(|n| **n == "MergeJoin").count(), 4);
    }

    /// `implement_all` drops repeats per logical operator and appends
    /// the rest unchecked; the memo it builds must be the one feeding
    /// every generated alternative through `add_physical` would build.
    /// The input repeats a join predicate (once as written, once
    /// mirrored), which yields equal merge joins, and an index, which
    /// yields equal index scans.
    #[test]
    fn implementation_keeps_add_physicals_duplicate_semantics() {
        use crate::{populate, OptimizerConfig};
        use plansample_query::AggFunc;
        let mut cat = Catalog::new();
        let a = table("a", 1000)
            .col("k", ColType::Int, 1000)
            .col("v", ColType::Int, 10)
            .index_on(0)
            .index_on(0)
            .index_on(1);
        cat.add_table(a.build()).unwrap();
        let b = table("b", 500).col("k", ColType::Int, 500).index_on(0);
        cat.add_table(b.build()).unwrap();
        let c = table("c", 50).col("v", ColType::Int, 10);
        cat.add_table(c.build()).unwrap();
        let mut qb = QueryBuilder::new(&cat);
        for rel in ["a", "b", "c"] {
            qb.rel(rel, None).unwrap();
        }
        qb.join(("a", "k"), ("b", "k")).unwrap();
        qb.join(("a", "k"), ("b", "k")).unwrap();
        qb.join(("b", "k"), ("a", "k")).unwrap();
        qb.join(("a", "v"), ("c", "v")).unwrap();
        qb.aggregate(&[("c", "v")], &[(AggFunc::CountStar, None)])
            .unwrap();
        let q = qb.build().unwrap();

        for config in [
            OptimizerConfig::default(),
            OptimizerConfig::with_cross_products(),
        ] {
            let mut reference = Memo::new();
            explore_bottom_up(&q, config.allow_cross_products, &mut reference).unwrap();
            let cost = &config.cost_model;
            let cards: Vec<f64> = reference
                .groups()
                .map(|g| q.set_card(&cat, g.scope(&q)))
                .collect();
            let mut generated = 0;
            for gid in (0..reference.num_groups() as u32).map(GroupId) {
                let mut out = Vec::new();
                for op in &reference.group(gid).logical {
                    match *op {
                        LogicalOp::Scan { rel } => {
                            implement_scan(&q, &cat, cost, config.enable_index_scans, rel, &mut out)
                        }
                        LogicalOp::Join { left, right } => implement_join(
                            &q,
                            cost,
                            config.enable_merge_joins,
                            &reference,
                            &cards,
                            gid,
                            left,
                            right,
                            &mut out,
                        ),
                        LogicalOp::Agg { input } => {
                            implement_agg(&q, &cat, cost, &reference, &cards, input, &mut out)
                        }
                    }
                }
                generated += out.len();
                for expr in out {
                    reference.add_physical(gid, expr);
                }
            }
            let implemented = reference.num_physical();
            add_enforcers(&q, &cat, cost, &mut reference);
            assert!(generated > implemented, "the input must yield repeats");

            let memo = populate(&cat, &q, &config).unwrap();
            assert_eq!(memo.num_groups(), reference.num_groups());
            let key =
                |e: &PhysicalExpr| (e.op.clone(), e.local_cost.to_bits(), e.out_card.to_bits());
            for (got, want) in memo.groups().zip(reference.groups()) {
                assert_eq!(got.key, want.key);
                let ops =
                    |g: &plansample_memo::Group| g.physical.iter().map(key).collect::<Vec<_>>();
                assert_eq!(ops(got), ops(want), "group {}", want.id.0);
            }
        }
    }

    #[test]
    fn index_scans_can_be_disabled() {
        let (cat, q, _) = setup();
        let mut memo = Memo::new();
        explore_bottom_up(&q, false, &mut memo).unwrap();
        let cost = CostModel::default();
        implement_all(&q, &cat, &cost, true, false, &mut memo);
        assert!(memo
            .groups()
            .flat_map(|g| g.physical.iter())
            .all(|e| !matches!(e.op, PhysicalOp::SortedIdxScan { .. })));
    }
}
