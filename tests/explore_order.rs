//! The optimizer's exploration against the subset walk it replaced,
//! in order. Group ids, dense ids, ranks, `USEPLAN n` and every
//! artifact byte follow from the order in which exploration creates
//! groups and lists each group's joins, so this suite compares memos
//! group by group (id and key) and each logical list element by
//! element, against `common::explore_by_subsets` — every mask of every
//! size, every split of each kept set.
//!
//! Every topology at 2–12 relations (a cycle from 3; a clique to 10),
//! the TPC-H queries with and without cross products and random
//! connected graphs of 2–14 relations run in every build. Cliques of
//! 11–12 relations and chains and cycles of 13–16 need an optimized
//! build (the subset walk is 2ⁿ masks and up to 3ⁿ halves, and a
//! debug-built clique-12 takes seconds a side) and are skipped with a
//! notice in a debug one:
//!
//! ```text
//! cargo test --release -p plansample --test explore_order -- --nocapture
//! ```
//!
//! The closed-form counts at the end explore chain-30 and cycle-24,
//! which the subset walk would take minutes over, in every build.

mod common;

use common::{explore_by_subsets, random_connected_query, release_only};
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_memo::{LogicalOp, Memo};
use plansample_optimizer::explore_bottom_up;
use plansample_query::QuerySpec;
use proptest::prelude::*;

/// The explored memo equals the subset walk's: same root, the same
/// groups in the same order, and each group's logical expressions in
/// the same order.
fn check_order(label: &str, query: &QuerySpec, allow_cp: bool) -> Result<(), String> {
    let mut got = Memo::new();
    explore_bottom_up(query, allow_cp, &mut got).map_err(|e| format!("{label}: {e}"))?;
    let mut want = Memo::new();
    explore_by_subsets(query, allow_cp, &mut want);
    if got.num_groups() != want.num_groups() {
        return Err(format!(
            "{label}: {} groups, the subset walk's {}",
            got.num_groups(),
            want.num_groups()
        ));
    }
    for (g, w) in got.groups().zip(want.groups()) {
        if (g.id, g.key) != (w.id, w.key) {
            return Err(format!(
                "{label}: group {:?} is {:?}, the subset walk's {:?} {:?}",
                g.id, g.key, w.id, w.key
            ));
        }
        if g.logical != w.logical {
            return Err(format!(
                "{label}: group {:?} {:?} lists {:?}, the subset walk {:?}",
                g.id, g.key, g.logical, w.logical
            ));
        }
    }
    if got.root() != want.root() {
        return Err(format!(
            "{label}: root {:?}, the subset walk's {:?}",
            got.root(),
            want.root()
        ));
    }
    Ok(())
}

/// Every topology at `sizes` relations (a cycle from 3) and each seed.
fn check_topologies(topologies: &[Topology], sizes: std::ops::RangeInclusive<usize>) {
    for &topology in topologies {
        let smallest = if topology == Topology::Cycle { 3 } else { 2 };
        for n in *sizes.start().max(&smallest)..=*sizes.end() {
            for seed in [1, 42, 20000] {
                let spec = JoinGraphSpec::new(topology, n, seed);
                let (_, query) = spec.build();
                check_order(&spec.label(), &query, false).unwrap();
            }
        }
    }
}

#[test]
fn every_topology_explores_in_the_subset_walks_order() {
    check_topologies(&[Topology::Chain, Topology::Star, Topology::Cycle], 2..=12);
    check_topologies(&[Topology::Clique], 2..=10);
}

#[test]
fn tpch_queries_explore_in_the_subset_walks_order() {
    use plansample_query::tpch::{q10, q3, q5, q6, q7, q8, q9};
    let (catalog, _) = plansample_catalog::tpch::catalog();
    for (label, query) in [
        ("Q3", q3(&catalog)),
        ("Q5", q5(&catalog)),
        ("Q6", q6(&catalog)),
        ("Q7", q7(&catalog)),
        ("Q8", q8(&catalog)),
        ("Q9", q9(&catalog)),
        ("Q10", q10(&catalog)),
    ] {
        for allow_cp in [false, true] {
            check_order(
                &format!("{label} (cross products: {allow_cp})"),
                &query,
                allow_cp,
            )
            .unwrap();
        }
    }
}

#[test]
fn large_graphs_explore_in_the_subset_walks_order() {
    if !release_only("large_graphs_explore_in_the_subset_walks_order") {
        return;
    }
    check_topologies(&[Topology::Clique], 11..=12);
    check_topologies(&[Topology::Chain, Topology::Cycle], 13..=16);
}

/// A random connected join graph over 2–14 relations: a random spanning
/// tree plus extra edges, as `joingraph_props`' graphs, the density of
/// the extra edges scaled by `3/n` so a graph has at most 1.5 per
/// relation on average: at twice that density a debug-built subset
/// walk over a 14-relation graph took up to 19 s.
fn arb_sparse_connected_query() -> impl Strategy<Value = QuerySpec> {
    (2usize..=14, any::<u64>())
        .prop_map(|(n, seed)| random_connected_query(n, seed, (3.0 / n as f64).min(1.0)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_connected_graphs_explore_in_the_subset_walks_order(
        query in arb_sparse_connected_query()
    ) {
        let label = format!("{} relations, {} edges", query.relations.len(), query.join_edges.len());
        let checked = check_order(&label, &query, false);
        prop_assert!(checked.is_ok(), "{checked:?}");
    }
}

/// `(groups, join expressions)` of the explored memo without cross
/// products.
fn explored_counts(topology: Topology, n: usize) -> (usize, usize) {
    let (_, query) = JoinGraphSpec::new(topology, n, 20000).build();
    let mut memo = Memo::new();
    explore_bottom_up(&query, false, &mut memo).unwrap();
    let joins = memo
        .groups()
        .flat_map(|g| &g.logical)
        .filter(|op| matches!(op, LogicalOp::Join { .. }))
        .count();
    (memo.num_groups(), joins)
}

/// No mask walk, checked without a clock: a chain of 30 and a cycle of
/// 24 relations explore to their closed-form counts in milliseconds,
/// where the subset walk over their 2³⁰ and 2²⁴ masks would take
/// minutes.
/// A chain's connected sets are its n(n+1)/2 runs, a run of s splits
/// s−1 ways; a cycle's are its n arcs of each size below n plus the
/// whole, an arc of s splits s−1 ways and the whole n(n−1)/2 ways.
#[test]
fn chain_30_and_cycle_24_explore_to_their_closed_forms() {
    let n = 30;
    let joins = (2..=n).map(|s| 2 * (n - s + 1) * (s - 1)).sum();
    assert_eq!(
        explored_counts(Topology::Chain, n),
        (n * (n + 1) / 2, joins)
    );

    let n = 24;
    let joins = n * (2..n).map(|s| 2 * (s - 1)).sum::<usize>() + n * (n - 1);
    assert_eq!(
        explored_counts(Topology::Cycle, n),
        (n * (n - 1) + 1, joins)
    );
    let n = 16;
    let joins = n * (2..n).map(|s| 2 * (s - 1)).sum::<usize>() + n * (n - 1);
    assert_eq!((n * (n - 1) + 1, joins), (241, 3_600));
}
