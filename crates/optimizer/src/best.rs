//! Best-plan extraction and cost-bound pruning.
//!
//! Every physical expression's *total* cost is its local cost plus, for
//! each child slot, the minimum total cost among the slot's eligible
//! children — a dynamic program over the (acyclic) plan graph. The best
//! plan of the memo is the cheapest expression of the root group with its
//! argmin children expanded recursively; this is "the most cost effective
//! operator in the root group" the paper extracts (§2) and the optimum
//! all sampled costs are normalized to (§5).
//!
//! The program is one loop over the memo's [`Links`] — §3.1's plan
//! graph — in its children-before-parents order, the loop §3.2's count
//! makes over the same table in the same order. Each expression and
//! each interned child *list* is evaluated once: sibling joins over the
//! same inputs ask the same `(group, requirement)` question, and
//! different questions often filter to the same children, so the minimum
//! of a list — and the child that attains it — is found once, and the
//! pass is linear in the memo like everything else downstream of it
//! (paper §3). The totals keep their links, and `optimize` hands them
//! on (`optimize_with_links`), so a prepare scans its memo once.

use plansample_memo::{DenseId, GroupId, Links, Memo, PhysId, PlanNode};
use plansample_query::QuerySpec;

/// Total costs for every physical expression, and the cheapest
/// member of every interned child list.
#[derive(Debug)]
pub struct Totals {
    /// The links the totals were computed over.
    pub(crate) links: Links,
    /// Total cost by dense id.
    totals: Vec<f64>,
    /// By list of the links: the cheapest member's total, and that member
    /// — the first to attain the minimum, `None` when no member
    /// completes.
    list_best: Vec<Option<(f64, Option<DenseId>)>>,
}

impl Totals {
    /// Total cost of the sub-plan space rooted in `id` (infinite when
    /// some child slot has no eligible provider).
    pub fn total(&self, id: PhysId) -> f64 {
        self.totals[self.links.ids().dense(id).idx()]
    }

    /// Cheapest total in `group`, infinite for empty/unsatisfiable groups.
    pub fn group_best(&self, group: GroupId) -> f64 {
        let range = self.links.ids().group_range(group);
        self.totals[range.start as usize..range.end as usize]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }
}

/// Builds the memo's links and computes total costs for all
/// expressions, in one pass over their topological order: an
/// expression's total is its local cost plus, in slot order, each slot
/// list's minimum — found the first time a slot reads the list, over its
/// members in group order, the first to attain it winning (what
/// `min_by(total_cmp)` returns).
///
/// # Panics
/// Panics with [`Links::build`]'s error — for a cyclic plan graph, one
/// naming an expression on the cycle — when the scan refuses the memo:
/// only a hand-built memo can be refused.
pub fn compute_totals(memo: &Memo, query: &QuerySpec) -> Totals {
    let links = Links::build(memo, query).unwrap_or_else(|e| panic!("{e}"));
    // Local costs by dense id (group order, then expression order), so
    // the level-ordered loop below indexes one table.
    let mut local = Vec::with_capacity(links.num_exprs());
    for group in memo.groups() {
        local.extend(group.physical.iter().map(|e| e.local_cost));
    }
    let mut totals = vec![f64::INFINITY; links.num_exprs()];
    let mut list_best: Vec<Option<(f64, Option<DenseId>)>> = vec![None; links.num_lists()];
    for &d in links.topo() {
        let mut total = local[d.idx()];
        for &list in links.slot_lists(d) {
            let (best, _) = *list_best[list.idx()].get_or_insert_with(|| {
                let (mut best, mut child) = (f64::INFINITY, None);
                for &member in links.list(list) {
                    if totals[member.idx()] < best {
                        (best, child) = (totals[member.idx()], Some(member));
                    }
                }
                (best, child)
            });
            total += best; // INFINITY when the slot is unsatisfiable
        }
        totals[d.idx()] = total;
    }
    Totals {
        links,
        totals,
        list_best,
    }
}

/// Extracts the cheapest complete plan rooted in the memo's root group.
/// Returns `None` when no finite-cost plan exists (cannot happen for
/// memos produced by the optimizer pipeline).
pub fn best_plan(memo: &Memo, totals: &Totals) -> Option<(PlanNode, f64)> {
    let root = memo.group(memo.root());
    let (best_id, cost) = root
        .phys_iter()
        .map(|(id, _)| (id, totals.total(id)))
        .filter(|(_, c)| c.is_finite())
        .min_by(|a, b| a.1.total_cmp(&b.1))?;
    Some((expand(totals, totals.links.ids().dense(best_id)), cost))
}

/// The plan under `d`, every slot filled with the cheapest member
/// [`compute_totals`] found for its list.
fn expand(totals: &Totals, d: DenseId) -> PlanNode {
    let children = totals
        .links
        .slot_lists(d)
        .iter()
        .map(|&list| {
            let child = totals.list_best[list.idx()]
                .and_then(|(_, child)| child)
                .expect("finite-cost parent implies satisfiable slots");
            expand(totals, child)
        })
        .collect();
    PlanNode {
        id: totals.links.ids().phys(d),
        children,
    }
}

/// Cost-bound pruning (the `ablation_pruning` experiment): returns a copy of
/// the memo where each group keeps only expressions whose total cost is
/// within `keep_factor` of the group's best. `keep_factor = 1.0` keeps
/// only cost-optimal expressions; larger factors keep near-optimal ones.
///
/// This emulates the search-time "cost based pruning heuristic" the
/// paper describes (§2) — and motivates its advice that, for testing,
/// "it is useful to have the optimizer keep each alternative generated".
///
/// # Panics
/// Panics when `keep_factor` is below 1.0, and — as [`compute_totals`]
/// does — on a memo whose plan graph is cyclic.
pub fn prune(memo: &Memo, query: &QuerySpec, keep_factor: f64) -> Memo {
    assert!(
        keep_factor >= 1.0,
        "keep_factor below 1.0 would drop the best plan"
    );
    let totals = compute_totals(memo, query);
    let mut pruned = Memo::new();
    for group in memo.groups() {
        let gid = pruned.add_group(group.key);
        debug_assert_eq!(gid, group.id);
        for op in &group.logical {
            pruned.add_logical(gid, op.clone());
        }
        let best = totals.group_best(group.id);
        for (id, expr) in group.phys_iter() {
            let t = totals.total(id);
            if t.is_finite() && t <= best * keep_factor {
                pruned.add_physical(gid, expr.clone());
            }
        }
    }
    pruned.set_root(memo.root());
    pruned
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore_bottom_up;
    use crate::implement::{add_enforcers, implement_all};
    use crate::CostModel;
    use plansample_catalog::{table, Catalog, ColType};
    use plansample_memo::validate_plan;
    use plansample_query::QueryBuilder;

    fn pipeline(cat: &Catalog, q: &QuerySpec) -> Memo {
        let mut memo = Memo::new();
        explore_bottom_up(q, false, &mut memo).unwrap();
        let cost = CostModel::default();
        implement_all(q, cat, &cost, true, true, &mut memo);
        add_enforcers(q, cat, &cost, &mut memo);
        memo
    }

    use plansample_query::QuerySpec;

    fn two_rel() -> (Catalog, QuerySpec) {
        let mut cat = Catalog::new();
        cat.add_table(
            table("a", 1000)
                .col("k", ColType::Int, 1000)
                .index_on(0)
                .build(),
        )
        .unwrap();
        cat.add_table(table("b", 10).col("k", ColType::Int, 10).build())
            .unwrap();
        let mut qb = QueryBuilder::new(&cat);
        qb.rel("a", None).unwrap();
        qb.rel("b", None).unwrap();
        qb.join(("a", "k"), ("b", "k")).unwrap();
        let q = qb.build().unwrap();
        (cat, q)
    }

    #[test]
    fn totals_are_finite_for_all_expressions() {
        let (cat, q) = two_rel();
        let memo = pipeline(&cat, &q);
        let totals = compute_totals(&memo, &q);
        for group in memo.groups() {
            for (id, _) in group.phys_iter() {
                assert!(totals.total(id).is_finite(), "{id} should be completable");
            }
        }
    }

    #[test]
    fn best_plan_is_valid_and_cheapest() {
        let (cat, q) = two_rel();
        let memo = pipeline(&cat, &q);
        let totals = compute_totals(&memo, &q);
        let (plan, cost) = best_plan(&memo, &totals).unwrap();
        assert!(validate_plan(&memo, &q, &plan).is_empty());
        assert!((plan.total_cost(&memo) - cost).abs() < 1e-9);
        // no expression in the root group beats it
        for (id, _) in memo.group(memo.root()).phys_iter() {
            assert!(totals.total(id) >= cost - 1e-9);
        }
    }

    #[test]
    fn totals_compose_over_slots() {
        let (cat, q) = two_rel();
        let memo = pipeline(&cat, &q);
        let totals = compute_totals(&memo, &q);
        // For every expression: total == local + sum of min over slots.
        for group in memo.groups() {
            for (id, expr) in group.phys_iter() {
                let expected: f64 = expr.local_cost
                    + expr
                        .child_slots(id.group)
                        .iter()
                        .map(|s| {
                            plansample_memo::eligible_children(&memo, &q, s)
                                .into_iter()
                                .map(|c| totals.total(c))
                                .fold(f64::INFINITY, f64::min)
                        })
                        .sum::<f64>();
                assert!((totals.total(id) - expected).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn pruning_keeps_best_and_shrinks() {
        let (cat, q) = two_rel();
        let memo = pipeline(&cat, &q);
        let totals = compute_totals(&memo, &q);
        let (_, best_cost) = best_plan(&memo, &totals).unwrap();

        let pruned = prune(&memo, &q, 1.0);
        assert!(pruned.num_physical() < memo.num_physical());
        assert_eq!(pruned.num_groups(), memo.num_groups());
        let ptotals = compute_totals(&pruned, &q);
        let (pplan, pcost) = best_plan(&pruned, &ptotals).unwrap();
        assert!(
            (pcost - best_cost).abs() < 1e-9,
            "pruning preserves the optimum"
        );
        assert!(validate_plan(&pruned, &q, &pplan).is_empty());
    }

    #[test]
    fn looser_factor_keeps_more() {
        let (cat, q) = two_rel();
        let memo = pipeline(&cat, &q);
        let tight = prune(&memo, &q, 1.0);
        let loose = prune(&memo, &q, 100.0);
        assert!(loose.num_physical() >= tight.num_physical());
        assert!(loose.num_physical() <= memo.num_physical());
    }

    #[test]
    #[should_panic(expected = "keep_factor")]
    fn pruning_factor_below_one_rejected() {
        let (cat, q) = two_rel();
        let memo = pipeline(&cat, &q);
        prune(&memo, &q, 0.5);
    }

    #[test]
    fn best_plan_prefers_cheap_join_order() {
        // b has 10 rows, a has 1000: hash join should build on the small
        // side or NLJ with tiny inner; either way cost well below the
        // reverse NLJ.
        let (cat, q) = two_rel();
        let memo = pipeline(&cat, &q);
        let totals = compute_totals(&memo, &q);
        let (plan, cost) = best_plan(&memo, &totals).unwrap();
        let worst = memo
            .group(memo.root())
            .phys_iter()
            .map(|(id, _)| totals.total(id))
            .fold(0.0f64, f64::max);
        assert!(cost < worst, "best {cost} vs worst {worst}");
        assert!(plan.size() >= 3);
    }
}
