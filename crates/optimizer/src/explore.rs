//! Logical exploration: populating the MEMO with every logical join
//! alternative.
//!
//! Two strategies, mirroring the paper's §2 remark that the counting
//! technique "could be transferred easily to the Starburst enumerator"
//! because bottom-up enumeration "implicitly uses a similar data
//! structure":
//!
//! - [`explore_bottom_up`]: Starburst-style enumeration over relation
//!   subsets (size-ascending). Guaranteed complete: every connected
//!   subset (or every subset when cross products are allowed) becomes a
//!   group holding every commutative split. With cross products it walks
//!   every subset and split; without, it grows the connected subsets,
//!   and each one's connected left halves, through the join graph (the
//!   connected-subgraph enumeration of DPccp), so it never visits a
//!   disconnected mask. Both emit groups and splits in the same order.
//!   This is the one [`optimize`](crate::optimize) runs.
//! - [`explore_transform`]: Volcano/Cascades-style — copy the initial
//!   left-deep plan into the memo (Figure 1) and apply join commutativity
//!   and associativity transformation rules to a fixpoint (Figure 2).
//!   Kept as the oracle of Figure 2: tests run the pipeline's steps over
//!   it themselves.
//!
//! For acyclic queries both strategies provably produce the same closure;
//! the integration tests assert memo equality on such queries.

use crate::OptError;
use plansample_memo::{GroupId, GroupKey, LogicalOp, Memo};
use plansample_query::{QuerySpec, RelId, RelSet};

/// Creates singleton groups (with `Scan` logical expressions) for every
/// relation of a fresh memo; returns their group ids indexed by
/// relation.
fn add_scan_groups(query: &QuerySpec, memo: &mut Memo) -> Vec<GroupId> {
    (0..query.relations.len())
        .map(|i| {
            let rel = RelId(i as u32);
            let g = memo.add_group(GroupKey::Rels(RelSet::singleton(rel)));
            memo.append_logical(g, LogicalOp::Scan { rel });
            g
        })
        .collect()
}

/// Installs the aggregate group (if the query has one) above `join_root`
/// and marks the memo root.
fn finish_root(query: &QuerySpec, memo: &mut Memo, join_root: GroupId) {
    if query.aggregate.is_some() {
        let agg = memo.add_group(GroupKey::Agg);
        memo.add_logical(agg, LogicalOp::Agg { input: join_root });
        memo.set_root(agg);
    } else {
        memo.set_root(join_root);
    }
}

/// Is a join of `left` and `right` admissible under the cross-product
/// policy? Without cross products both halves must be `connected` (the
/// caller's test of the join graph) and at least one predicate must
/// cross the cut (guaranteed by connectivity of the union). The test
/// [`explore_transform`]'s associativity rules put to each new split;
/// [`explore_bottom_up`] generates only admissible splits.
fn split_admissible(
    query: &QuerySpec,
    allow_cp: bool,
    connected: impl Fn(RelSet) -> bool,
    left: RelSet,
    right: RelSet,
) -> bool {
    allow_cp
        || (connected(left)
            && connected(right)
            && query.join_edges.iter().any(|e| e.crosses(left, right)))
}

/// Bottom-up (Starburst-style) exhaustive exploration.
///
/// Groups are created in (size, mask) order of their relation sets, and
/// each group lists its splits in [`RelSet::splits`] order — left half
/// ascending, each as `Join(L, R)` then `Join(R, L)` — whichever branch
/// builds them, so every group id and logical list is the same as the
/// subset walk's.
pub fn explore_bottom_up(
    query: &QuerySpec,
    allow_cp: bool,
    memo: &mut Memo,
) -> Result<(), OptError> {
    let n = query.relations.len();
    let scans = add_scan_groups(query, memo);
    if n == 1 {
        finish_root(query, memo, scans[0]);
        return Ok(());
    }

    if allow_cp {
        // Every subset is a group and every split admissible: the walk
        // over subsets in size order, each half's group made before its
        // parent's.
        let full: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        for size in 2..=n as u32 {
            for mask in (1..=full).filter(|m| m.count_ones() == size) {
                let set = rel_set(mask);
                let g = memo.add_group(GroupKey::Rels(set));
                for (l, r) in set.splits() {
                    add_join_pair(memo, g, l, r);
                }
            }
        }
    } else {
        explore_connected_pairs(query, memo);
    }

    let root = memo
        .find_group(GroupKey::Rels(RelSet::all(n)))
        .expect("connected query produces a full-set group");
    finish_root(query, memo, root);
    Ok(())
}

/// Appends `Join(l, r)` and `Join(r, l)` to group `g`, unchecked:
/// both branches of [`explore_bottom_up`] offer each split once. Both
/// halves already have groups.
fn add_join_pair(memo: &mut Memo, g: GroupId, l: RelSet, r: RelSet) {
    let gl = memo
        .find_group(GroupKey::Rels(l))
        .expect("size-ordered enumeration creates halves first");
    let gr = memo
        .find_group(GroupKey::Rels(r))
        .expect("size-ordered enumeration creates halves first");
    // Both commutative orders, as in the paper's Figure 2 where
    // join(1,2) and join(2,1) are distinct expressions 3.1/3.2.
    memo.append_logical(
        g,
        LogicalOp::Join {
            left: gl,
            right: gr,
        },
    );
    memo.append_logical(
        g,
        LogicalOp::Join {
            left: gr,
            right: gl,
        },
    );
}

/// The no-cross-product exploration, by connected pairs: the connected
/// sets are grown through the join graph's adjacency masks (DPccp's
/// EnumerateCsg, after Moerkotte and Neumann), and so is each set's
/// left half inside it, so no disconnected mask and no disconnected
/// left half is ever visited. On a chain every half grown is kept; on
/// cycle-16, 3 845 halves are grown for 1 800 splits, where the subset
/// walk tested 556 799. A set holding a hub and k of its leaves, the
/// hub its lowest relation, still grows 2^k left halves and keeps k, as
/// the subset walk tested them.
fn explore_connected_pairs(query: &QuerySpec, memo: &mut Memo) {
    let n = query.relations.len();
    let mut adj = vec![0u64; n];
    for edge in &query.join_edges {
        let (a, b) = edge.rels();
        adj[a.idx()] |= 1 << b.0;
        adj[b.idx()] |= 1 << a.0;
    }

    // Every connected set of two or more relations, once each: grown
    // from its lowest member through higher ones only.
    let mut sets = Vec::new();
    for v in 0..n {
        let seed = 1u64 << v;
        grow(&adj, seed, seed | (seed - 1), &mut |set| sets.push(set));
    }
    sets.sort_unstable_by_key(|&set| (set.count_ones(), set));

    // A set's left halves hold its lowest member and are connected; the
    // right half left over must be connected and non-empty, and then an
    // edge crosses the cut because the set is connected.
    let mut lefts = Vec::new();
    for &set in &sets {
        let low = set & set.wrapping_neg();
        lefts.clear();
        let mut consider = |left: u64| {
            if left != set && connected(&adj, set ^ left) {
                lefts.push(left);
            }
        };
        consider(low);
        grow(&adj, low, !set, &mut consider);
        lefts.sort_unstable();
        let g = memo.add_group(GroupKey::Rels(rel_set(set)));
        for &left in &lefts {
            add_join_pair(memo, g, rel_set(left), rel_set(set ^ left));
        }
    }
}

/// Calls `emit` once on every connected set that strictly contains
/// `set` and adds only relations outside `excluded`, each reached
/// through the adjacency masks `adj` (EnumerateCsgRec). `set` must be
/// connected.
fn grow(adj: &[u64], set: u64, excluded: u64, emit: &mut impl FnMut(u64)) {
    let mut neighbours = 0;
    let mut members = set;
    while members != 0 {
        neighbours |= adj[members.trailing_zeros() as usize];
        members &= members - 1;
    }
    neighbours &= !(set | excluded);
    // Every non-empty subset of the neighbours, each grown further with
    // all of them excluded, so no set is reached twice.
    let mut extra = 0u64;
    loop {
        extra = extra.wrapping_sub(neighbours) & neighbours;
        if extra == 0 {
            break;
        }
        emit(set | extra);
        grow(adj, set | extra, excluded | neighbours, emit);
    }
}

/// Is the relation set `mask` non-empty and connected? A flood fill
/// over the adjacency masks, a few bit operations per member.
fn connected(adj: &[u64], mask: u64) -> bool {
    let mut seen = mask & mask.wrapping_neg();
    let mut frontier = seen;
    while frontier != 0 {
        let grown = adj[frontier.trailing_zeros() as usize] & mask & !seen;
        frontier &= frontier - 1;
        seen |= grown;
        frontier |= grown;
    }
    mask != 0 && seen == mask
}

/// The relation set whose bit `i` is relation `i`.
fn rel_set(mask: u64) -> RelSet {
    let mut rest = mask;
    RelSet::from_iter(std::iter::from_fn(|| {
        (rest != 0).then(|| {
            let rel = RelId(rest.trailing_zeros());
            rest &= rest - 1;
            rel
        })
    }))
}

/// Builds the initial left-deep logical plan greedily along join edges
/// (so that, without cross products, every prefix is connected) and
/// copies it into the memo — the paper's Figure 1 step. Returns the group
/// of the full relation set.
fn copy_in_initial_plan(query: &QuerySpec, memo: &mut Memo) -> GroupId {
    let n = query.relations.len();
    let scans = add_scan_groups(query, memo);
    // Greedy connected order (falls back to index order for disconnected
    // remainders, which only happens when cross products are allowed).
    let mut order: Vec<RelId> = vec![RelId(0)];
    let mut covered = RelSet::singleton(RelId(0));
    while order.len() < n {
        let next = (0..n)
            .map(|i| RelId(i as u32))
            .find(|&r| {
                !covered.contains(r)
                    && !query
                        .edges_crossing(covered, RelSet::singleton(r))
                        .is_empty()
            })
            .or_else(|| {
                (0..n)
                    .map(|i| RelId(i as u32))
                    .find(|&r| !covered.contains(r))
            })
            .expect("n relations to place");
        order.push(next);
        covered.insert(next);
    }

    let mut cur_set = RelSet::singleton(order[0]);
    let mut cur_group = scans[order[0].idx()];
    for &rel in &order[1..] {
        let next_set = cur_set.union(RelSet::singleton(rel));
        let g = memo.add_group(GroupKey::Rels(next_set));
        memo.add_logical(
            g,
            LogicalOp::Join {
                left: cur_group,
                right: scans[rel.idx()],
            },
        );
        cur_set = next_set;
        cur_group = g;
    }
    cur_group
}

/// Transformation-based (Volcano/Cascades-style) exploration: initial
/// plan copy-in followed by rule application to a fixpoint.
///
/// Rules:
/// - **Commutativity** `join(A,B) → join(B,A)` (same group);
/// - **Right associativity** `join(join(A,B),C) → join(A, join(B,C))`,
///   creating the inner group as needed;
/// - **Left associativity** `join(A, join(B,C)) → join(join(A,B), C)`.
pub fn explore_transform(
    query: &QuerySpec,
    allow_cp: bool,
    memo: &mut Memo,
) -> Result<(), OptError> {
    let n = query.relations.len();
    let join_root = copy_in_initial_plan(query, memo);
    if n > 1 {
        apply_rules_to_fixpoint(query, allow_cp, memo);
    }
    finish_root(query, memo, join_root);
    Ok(())
}

fn rels_of(memo: &Memo, g: GroupId) -> RelSet {
    match memo.group(g).key {
        GroupKey::Rels(s) => s,
        GroupKey::Agg => unreachable!("joins never reference the aggregate group"),
    }
}

fn apply_rules_to_fixpoint(query: &QuerySpec, allow_cp: bool, memo: &mut Memo) {
    loop {
        let mut new_exprs: Vec<(GroupId, LogicalOp)> = Vec::new();
        let snapshot: Vec<(GroupId, LogicalOp)> = memo
            .groups()
            .flat_map(|g| g.logical.iter().cloned().map(move |op| (g.id, op)))
            .collect();

        for (gid, op) in &snapshot {
            let LogicalOp::Join { left, right } = op else {
                continue;
            };
            // Commutativity.
            new_exprs.push((
                *gid,
                LogicalOp::Join {
                    left: *right,
                    right: *left,
                },
            ));
            // Right associativity: join(join(A,B), C) → join(A, join(B,C)).
            for inner in memo.group(*left).logical.clone() {
                let LogicalOp::Join { left: a, right: b } = inner else {
                    continue;
                };
                let (b_set, c_set) = (rels_of(memo, b), rels_of(memo, *right));
                if split_admissible(query, allow_cp, |s| query.connected(s), b_set, c_set) {
                    let bc = memo.add_group(GroupKey::Rels(b_set.union(c_set)));
                    memo.add_logical(
                        bc,
                        LogicalOp::Join {
                            left: b,
                            right: *right,
                        },
                    );
                    new_exprs.push((*gid, LogicalOp::Join { left: a, right: bc }));
                }
            }
            // Left associativity: join(A, join(B,C)) → join(join(A,B), C).
            for inner in memo.group(*right).logical.clone() {
                let LogicalOp::Join { left: b, right: c } = inner else {
                    continue;
                };
                let (a_set, b_set) = (rels_of(memo, *left), rels_of(memo, b));
                if split_admissible(query, allow_cp, |s| query.connected(s), a_set, b_set) {
                    let ab = memo.add_group(GroupKey::Rels(a_set.union(b_set)));
                    memo.add_logical(
                        ab,
                        LogicalOp::Join {
                            left: *left,
                            right: b,
                        },
                    );
                    new_exprs.push((*gid, LogicalOp::Join { left: ab, right: c }));
                }
            }
        }

        let mut changed = false;
        for (gid, op) in new_exprs {
            changed |= memo.add_logical(gid, op);
        }
        if !changed {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plansample_catalog::{table, Catalog, ColType};
    use plansample_query::QueryBuilder;

    /// Chain query a—b—c—… with `n` relations.
    fn chain(n: usize) -> (Catalog, QuerySpec) {
        let mut cat = Catalog::new();
        for i in 0..n {
            cat.add_table(
                table(&format!("t{i}"), 100 * (i as u64 + 1))
                    .col("k", ColType::Int, 100)
                    .col("fk", ColType::Int, 100)
                    .build(),
            )
            .unwrap();
        }
        let mut qb = QueryBuilder::new(&cat);
        for i in 0..n {
            qb.rel(&format!("t{i}"), None).unwrap();
        }
        for i in 0..n - 1 {
            qb.join((&format!("t{i}"), "fk"), (&format!("t{}", i + 1), "k"))
                .unwrap();
        }
        let q = qb.build().unwrap();
        (cat, q)
    }

    fn logical_join_count(memo: &Memo) -> usize {
        memo.groups()
            .flat_map(|g| g.logical.iter())
            .filter(|op| matches!(op, LogicalOp::Join { .. }))
            .count()
    }

    #[test]
    fn chain3_bottom_up_groups() {
        let (_cat, q) = chain(3);
        let mut memo = Memo::new();
        explore_bottom_up(&q, false, &mut memo).unwrap();
        // Connected subsets of a 3-chain: {0},{1},{2},{01},{12},{012}: 6.
        assert_eq!(memo.num_groups(), 6);
        // {01}: 2 joins, {12}: 2, {012}: splits {0|12},{01|2} ×2 orders = 4.
        assert_eq!(logical_join_count(&memo), 8);
    }

    #[test]
    fn chain3_with_cross_products_has_more_groups() {
        let (_cat, q) = chain(3);
        let mut no_cp = Memo::new();
        explore_bottom_up(&q, false, &mut no_cp).unwrap();
        let mut cp = Memo::new();
        explore_bottom_up(&q, true, &mut cp).unwrap();
        // All 7 non-empty subsets get groups with CP.
        assert_eq!(cp.num_groups(), 7);
        assert!(logical_join_count(&cp) > logical_join_count(&no_cp));
        // {012} with CP: all 3 splits × 2 orders = 6 joins in that group.
    }

    #[test]
    fn transform_matches_bottom_up_on_chains() {
        for n in 2..=5 {
            let (_cat, q) = chain(n);
            let mut bu = Memo::new();
            explore_bottom_up(&q, false, &mut bu).unwrap();
            let mut tr = Memo::new();
            explore_transform(&q, false, &mut tr).unwrap();
            assert_eq!(
                bu.num_groups(),
                tr.num_groups(),
                "group count for chain({n})"
            );
            assert_eq!(
                logical_join_count(&bu),
                logical_join_count(&tr),
                "join expression count for chain({n})"
            );
        }
    }

    #[test]
    fn transform_matches_bottom_up_on_star() {
        // star: t0 joined to t1, t2, t3.
        let mut cat = Catalog::new();
        for i in 0..4 {
            cat.add_table(
                table(&format!("t{i}"), 100)
                    .col("k", ColType::Int, 100)
                    .build(),
            )
            .unwrap();
        }
        let mut qb = QueryBuilder::new(&cat);
        for i in 0..4 {
            qb.rel(&format!("t{i}"), None).unwrap();
        }
        for i in 1..4 {
            qb.join(("t0", "k"), (&format!("t{i}"), "k")).unwrap();
        }
        let q = qb.build().unwrap();

        let mut bu = Memo::new();
        explore_bottom_up(&q, false, &mut bu).unwrap();
        let mut tr = Memo::new();
        explore_transform(&q, false, &mut tr).unwrap();
        assert_eq!(bu.num_groups(), tr.num_groups());
        assert_eq!(logical_join_count(&bu), logical_join_count(&tr));
    }

    #[test]
    fn single_relation_query() {
        let (_cat, q) = chain(1);
        let mut memo = Memo::new();
        explore_bottom_up(&q, false, &mut memo).unwrap();
        assert_eq!(memo.num_groups(), 1);
        assert_eq!(memo.root(), GroupId(0));
    }

    #[test]
    fn initial_plan_is_connected_prefix() {
        let (_cat, q) = chain(4);
        let mut memo = Memo::new();
        let root = copy_in_initial_plan(&q, &mut memo);
        assert_eq!(rels_of(&memo, root), RelSet::all(4));
        // Initial plan: 4 scans + 3 join groups = 7 groups, 3 joins.
        assert_eq!(memo.num_groups(), 7);
        assert_eq!(logical_join_count(&memo), 3);
    }

    #[test]
    fn agg_group_becomes_root() {
        let (cat, _) = plansample_catalog::tpch::catalog();
        let q = plansample_query::tpch::q5(&cat);
        let mut memo = Memo::new();
        explore_bottom_up(&q, false, &mut memo).unwrap();
        assert_eq!(memo.group(memo.root()).key, GroupKey::Agg);
    }
}
