//! The worked example of the paper's Figures 2/3 and appendix, as a
//! hand-built MEMO fixture.
//!
//! Three relations A, B, C with an index on each key column. The memo
//! reproduces the link structure the paper draws:
//!
//! ```text
//! group A   : TableScan_A, SortedIdxScan_A, Sort_A        (paper 1.2/1.3/1.4)
//! group B   : TableScan_B, SortedIdxScan_B                (paper 2.2/2.3)
//! group C   : TableScan_C, SortedIdxScan_C                (paper 4.2/4.3)
//! group A⋈B : HashJoin(A,B)  N=3·2=6                      (paper 3.3)
//!             MergeJoin(A,B) N=2·1=2                      (paper 3.4)
//! root      : HashJoin(C, A⋈B)  N=2·8=16                  (paper 7.7)
//!             HashJoin(A⋈B, C)  N=8·2=16                  (paper 7.8)
//! total: 32 plans
//! ```
//!
//! The appendix unranks the pair `(13, root)` and obtains the operators
//! `7.7, 4.3, 3.4, 2.3, 1.3`; in this fixture that corresponds to the
//! root `HashJoin(C, A⋈B)` with `SortedIdxScan_C`, `MergeJoin(A,B)`,
//! `SortedIdxScan_A`, `SortedIdxScan_B` — asserted by the crate tests.

use plansample_catalog::{table, Catalog, ColType};
use plansample_memo::{GroupId, GroupKey, Memo, PhysId, PhysicalExpr, PhysicalOp, SortOrder};
use plansample_query::{ColRef, QueryBuilder, QuerySpec, RelId, RelSet};

/// The fixture: catalog, query, memo, and named expression ids.
#[derive(Debug)]
pub struct PaperExample {
    /// Catalog with tables A, B, C.
    pub catalog: Catalog,
    /// The three-relation query (edges `A.k = B.k`, `B.m = C.k`).
    pub query: QuerySpec,
    /// The hand-built memo.
    pub memo: Memo,
    /// Group of relation A.
    pub group_a: GroupId,
    /// Group of relation B.
    pub group_b: GroupId,
    /// Group of relation C.
    pub group_c: GroupId,
    /// Group of A⋈B.
    pub group_ab: GroupId,
    /// Root group (A⋈B⋈C).
    pub group_root: GroupId,
    /// Heap scan of A (paper 1.2).
    pub table_scan_a: PhysId,
    /// Index scan of A (paper 1.3).
    pub idx_scan_a: PhysId,
    /// Sort enforcer in group A (paper 1.4).
    pub sort_a: PhysId,
    /// Heap scan of B (paper 2.2).
    pub table_scan_b: PhysId,
    /// Index scan of B (paper 2.3).
    pub idx_scan_b: PhysId,
    /// Heap scan of C (paper 4.2).
    pub table_scan_c: PhysId,
    /// Index scan of C (paper 4.3).
    pub idx_scan_c: PhysId,
    /// Hash join A⋈B (paper 3.3).
    pub hash_join_ab: PhysId,
    /// Merge join A⋈B (paper 3.4).
    pub merge_join_ab: PhysId,
    /// Root hash join C ⋈ (A⋈B) (paper 7.7).
    pub root_c_ab: PhysId,
    /// Root hash join (A⋈B) ⋈ C (paper 7.8).
    pub root_ab_c: PhysId,
}

/// Builds the fixture.
pub fn build() -> PaperExample {
    let mut catalog = Catalog::new();
    catalog
        .add_table(
            table("a", 100)
                .col("k", ColType::Int, 100)
                .index_on(0)
                .build(),
        )
        .expect("fresh catalog");
    catalog
        .add_table(
            table("b", 200)
                .col("k", ColType::Int, 100)
                .col("m", ColType::Int, 50)
                .index_on(0)
                .build(),
        )
        .expect("fresh catalog");
    catalog
        .add_table(
            table("c", 50)
                .col("k", ColType::Int, 50)
                .index_on(0)
                .build(),
        )
        .expect("fresh catalog");

    let mut qb = QueryBuilder::new(&catalog);
    qb.rel("a", None).expect("table exists");
    qb.rel("b", None).expect("table exists");
    qb.rel("c", None).expect("table exists");
    qb.join(("a", "k"), ("b", "k")).expect("columns exist");
    qb.join(("b", "m"), ("c", "k")).expect("columns exist");
    let query = qb.build().expect("valid query");

    let (ra, rb, rc) = (RelId(0), RelId(1), RelId(2));
    let a_k = ColRef { rel: ra, col: 0 };
    let b_k = ColRef { rel: rb, col: 0 };
    let c_k = ColRef { rel: rc, col: 0 };

    let mut memo = Memo::new();
    let group_a = memo.add_group(GroupKey::Rels(RelSet::singleton(ra)));
    let group_b = memo.add_group(GroupKey::Rels(RelSet::singleton(rb)));
    let group_c = memo.add_group(GroupKey::Rels(RelSet::singleton(rc)));
    let group_ab = memo.add_group(GroupKey::Rels(RelSet::from_iter([ra, rb])));
    let group_root = memo.add_group(GroupKey::Rels(RelSet::all(3)));

    let phys = |op: PhysicalOp, cost: f64, card: f64| PhysicalExpr::new(op, cost, card);

    let table_scan_a = memo
        .add_physical(
            group_a,
            phys(PhysicalOp::TableScan { rel: ra }, 100.0, 100.0),
        )
        .expect("new expression");
    let idx_scan_a = memo
        .add_physical(
            group_a,
            phys(
                PhysicalOp::SortedIdxScan { rel: ra, col: a_k },
                120.0,
                100.0,
            ),
        )
        .expect("new expression");
    let sort_a = memo
        .add_physical(
            group_a,
            phys(
                PhysicalOp::Sort {
                    target: SortOrder::on_col(a_k),
                },
                80.0,
                100.0,
            ),
        )
        .expect("new expression");

    let table_scan_b = memo
        .add_physical(
            group_b,
            phys(PhysicalOp::TableScan { rel: rb }, 200.0, 200.0),
        )
        .expect("new expression");
    let idx_scan_b = memo
        .add_physical(
            group_b,
            phys(
                PhysicalOp::SortedIdxScan { rel: rb, col: b_k },
                240.0,
                200.0,
            ),
        )
        .expect("new expression");

    let table_scan_c = memo
        .add_physical(group_c, phys(PhysicalOp::TableScan { rel: rc }, 50.0, 50.0))
        .expect("new expression");
    let idx_scan_c = memo
        .add_physical(
            group_c,
            phys(PhysicalOp::SortedIdxScan { rel: rc, col: c_k }, 60.0, 50.0),
        )
        .expect("new expression");

    let hash_join_ab = memo
        .add_physical(
            group_ab,
            phys(
                PhysicalOp::HashJoin {
                    left: group_a,
                    right: group_b,
                },
                350.0,
                200.0,
            ),
        )
        .expect("new expression");
    let merge_join_ab = memo
        .add_physical(
            group_ab,
            phys(
                PhysicalOp::MergeJoin {
                    left: group_a,
                    right: group_b,
                    left_key: a_k,
                    right_key: b_k,
                },
                300.0,
                200.0,
            ),
        )
        .expect("new expression");

    let root_c_ab = memo
        .add_physical(
            group_root,
            phys(
                PhysicalOp::HashJoin {
                    left: group_c,
                    right: group_ab,
                },
                275.0,
                200.0,
            ),
        )
        .expect("new expression");
    let root_ab_c = memo
        .add_physical(
            group_root,
            phys(
                PhysicalOp::HashJoin {
                    left: group_ab,
                    right: group_c,
                },
                350.0,
                200.0,
            ),
        )
        .expect("new expression");

    memo.set_root(group_root);

    PaperExample {
        catalog,
        query,
        memo,
        group_a,
        group_b,
        group_c,
        group_ab,
        group_root,
        table_scan_a,
        idx_scan_a,
        sort_a,
        table_scan_b,
        idx_scan_b,
        table_scan_c,
        idx_scan_c,
        hash_join_ab,
        merge_join_ab,
        root_c_ab,
        root_ab_c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Links, LinksError, ListId, PlanSpace, SpaceError};

    #[test]
    fn fixture_shape() {
        let ex = build();
        assert_eq!(ex.memo.num_groups(), 5);
        assert_eq!(ex.memo.num_physical(), 11);
        assert_eq!(ex.memo.root(), ex.group_root);
        assert_eq!(ex.memo.group(ex.group_a).physical.len(), 3);
        assert_eq!(ex.memo.group(ex.group_ab).physical.len(), 2);
    }

    #[test]
    fn ids_point_at_expected_operators() {
        let ex = build();
        assert_eq!(ex.memo.phys(ex.sort_a).op.name(), "Sort");
        assert_eq!(ex.memo.phys(ex.merge_join_ab).op.name(), "MergeJoin");
        assert_eq!(ex.memo.phys(ex.root_c_ab).op.name(), "HashJoin");
        assert!(ex.memo.phys(ex.idx_scan_b).op.is_leaf());
    }

    // Figure 3's links (§3.1).

    #[test]
    fn paper_example_links_match_figure3() {
        let ex = build();
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

    /// The links `Links::build` and the optimizer share, on Figure 3:
    /// seven distinct slots for nine expression slots, filtering to seven
    /// lists numbered as they are first met, each slot's list what the
    /// rule lists, and the root list after them.
    #[test]
    fn paper_example_gathers_seven_distinct_slots_in_first_encounter_order() {
        let ex = build();
        let links = Links::build(&ex.memo, &ex.query).unwrap();
        let slots = |id: PhysId| -> Vec<u32> {
            let lists = links.slot_lists(links.ids().dense(id));
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
        // No slot takes the root group whole: its list is new, and last.
        assert_eq!(links.num_lists(), 8);
        assert_eq!(links.root_list(), ListId(7));
        let records = links.ids().iter().map(|(d, _)| links.arity(d));
        assert_eq!(records.sum::<usize>(), 9);
        for (d, id) in links.ids().iter() {
            let expected = ex.memo.phys(id).child_slots(id.group);
            assert_eq!(links.slot_lists(d).len(), expected.len(), "{id}");
            for (&l, slot) in links.slot_lists(d).iter().zip(&expected) {
                let rule = plansample_memo::eligible_children(&ex.memo, &ex.query, slot);
                let listed: Vec<PhysId> =
                    links.list(l).iter().map(|&c| links.ids().phys(c)).collect();
                assert_eq!(listed, rule, "{id}: {slot:?}");
            }
        }
    }

    #[test]
    fn leaves_have_no_slots() {
        let ex = build();
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
        let ex = build();
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
        let ex = build();
        let full = Links::build(&ex.memo, &ex.query).unwrap();
        let mut rooted_in_a = ex.memo.clone();
        rooted_in_a.set_root(ex.table_scan_a.group);
        let links = Links::build(&rooted_in_a, &ex.query).unwrap();
        let join_ab = links.ids().dense(ex.hash_join_ab);
        assert_eq!(links.root_list(), links.slot_lists(join_ab)[0]);
        assert_eq!(links.list(links.root_list()).len(), 3);
        assert_eq!(links.num_lists() + 1, full.num_lists());

        let scan = PhysicalOp::TableScan { rel: RelId(0) };
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
        let ex = build();
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
        let ex = build();
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

    /// The table view of the links is the CSR pair, whatever the
    /// resident layout: nine slots over ten expressions on Figure 3, no
    /// sentinel in sight.
    #[test]
    fn parts_are_the_csr_view() {
        let ex = build();
        let links = Links::build(&ex.memo, &ex.query).unwrap();
        let parts = links.to_parts();
        assert_eq!(parts.slot_bounds.len(), links.num_exprs() + 1);
        assert_eq!(parts.slot_lists.len(), 9);
        assert_eq!(*parts.slot_bounds.last().unwrap(), 9);
        assert!(parts
            .slot_lists
            .iter()
            .all(|&l| (l as usize) < links.num_lists()));
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
            PhysicalExpr::new(PhysicalOp::TableScan { rel: RelId(0) }, 1.0, 1.0),
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
        let ex = build();
        let Err(LinksError::Cyclic(at)) = Links::build(&cyclic_memo(), &ex.query) else {
            panic!("a cyclic memo is refused as cyclic");
        };
        assert_eq!(
            PlanSpace::build(&cyclic_memo(), &ex.query).unwrap_err(),
            SpaceError::CyclicMemo { at }
        );
    }

    /// The optimizer's cost fold reads the same table and cannot return
    /// an error: it stops at the cycle with a panic naming the join, not
    /// a stack overflow that aborts the process.
    #[test]
    #[should_panic(expected = "cyclic memo: expression 1.1")]
    fn cyclic_hand_built_memo_panics_in_compute_totals() {
        let ex = build();
        plansample_optimizer::compute_totals(&cyclic_memo(), &ex.query);
    }

    #[test]
    #[should_panic(expected = "cyclic memo: expression 1.1")]
    fn cyclic_hand_built_memo_panics_in_prune() {
        let ex = build();
        plansample_optimizer::prune(&cyclic_memo(), &ex.query, 1.0);
    }
}
