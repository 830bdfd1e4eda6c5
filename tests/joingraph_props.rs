//! Property tests over the synthetic join-graph generator: for random
//! topologies, sizes, and statistics seeds, the optimizer must produce a
//! space where `rank ∘ unrank` is the identity on sampled ranks, and —
//! on spaces small enough to enumerate — the exact count `N` must equal
//! the brute-force enumeration via the independent recursive oracle.
//! Underneath both, the per-class eligibility scan must list, for every
//! child slot of every expression, exactly what the per-expression rule
//! lists.

mod common;

use common::{random_connected_query, SynthSpace};
use plansample_bignum::Nat;
use plansample_core::PreparedQuery;
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_memo::{
    eligible_children, validate_plan, DenseId, DenseIdMap, GroupKey, Links, LogicalOp, Memo,
    SlotRecord,
};
use plansample_optimizer::{explore_bottom_up, optimize, OptimizerConfig};
use plansample_query::{QuerySpec, RelSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::mem::size_of;

/// Cap for brute-force enumeration: spaces at or below this size are
/// exhaustively cross-checked against the recursive oracle.
const ENUM_CAP: u64 = 30_000;

fn arb_spec() -> impl Strategy<Value = JoinGraphSpec> {
    (0usize..4, 3usize..=5, 0u64..1_000_000).prop_map(|(t, n, seed)| {
        let topology = Topology::ALL[t];
        // Clique spaces explode fastest; cap their size so debug-mode
        // optimization stays quick.
        let n = if topology == Topology::Clique {
            n.min(4)
        } else {
            n
        };
        JoinGraphSpec::new(topology, n, seed)
    })
}

/// The class scan production code runs against the rule it replaced:
/// every expression slot's list must be `eligible_children` — one test
/// per expression — mapped to dense ids, and the flat tables exact.
/// `Err` names the first slot that differs.
fn check_child_lists(memo: &Memo, query: &QuerySpec) -> Result<(), String> {
    let scan = Links::build(memo, query).unwrap();
    let parts = scan.to_parts();
    if parts.slot_bounds.len() != memo.num_physical() + 1 {
        return Err("one slot record per expression".into());
    }
    for (d, id) in scan.ids().iter() {
        let slots = memo.phys(id).child_slots(id.group);
        if scan.slot_lists(d).len() != slots.len() {
            return Err(format!("{id}: one list per child slot"));
        }
        for (&l, slot) in scan.slot_lists(d).iter().zip(&slots) {
            let rule: Vec<DenseId> = eligible_children(memo, query, slot)
                .into_iter()
                .map(|id| scan.ids().dense(id))
                .collect();
            let listed = scan.list(l);
            if listed != rule {
                return Err(format!("{id}'s slot {slot:?} lists {listed:?}"));
            }
        }
    }
    // Every flat table allocated at its length: the links' bytes are
    // the id table's plus each table's length times its element size.
    let exact_bytes = size_of::<Links>() - size_of::<DenseIdMap>()
        + scan.ids().size_bytes()
        + size_of::<u32>() * (parts.pool.len() + parts.list_bounds.len() + parts.topo.len())
        + size_of::<SlotRecord>() * memo.num_physical();
    let bounds = &parts.list_bounds;
    let exact = bounds.first() == Some(&0)
        && bounds.is_sorted()
        && bounds.last() == Some(&(parts.pool.len() as u32))
        && scan.size_bytes() == exact_bytes;
    exact.then_some(()).ok_or("bounds or pool inexact".into())
}

/// Every topology at 2–7 relations (a cycle needs three), the memo
/// either optimizer-built or synthesised by `build_memo`.
fn arb_memo_spec() -> impl Strategy<Value = (JoinGraphSpec, bool)> {
    (0usize..4, 2usize..=7, 0u64..1_000_000, 0u8..2).prop_map(|(t, n, seed, synthesised)| {
        let topology = Topology::ALL[t];
        let n = n.max(if topology == Topology::Cycle { 3 } else { 2 });
        (JoinGraphSpec::new(topology, n, seed), synthesised == 1)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn class_scan_lists_what_the_rule_lists_on_random_memos(
        (spec, synthesised) in arb_memo_spec()
    ) {
        let (query, memo) = if synthesised {
            let (_, query, memo) = spec.build_memo();
            (query, memo)
        } else {
            let (catalog, query) = spec.build();
            let optimized = optimize(&catalog, &query, &OptimizerConfig::default());
            (query, optimized.expect("synthetic queries optimize").memo)
        };
        let checked = check_child_lists(&memo, &query);
        prop_assert!(checked.is_ok(), "{} (synthesised: {synthesised}): {checked:?}", spec.label());
    }

    /// The root list is the answer to the unconstrained question on the
    /// root group, interned like a slot's: the group's full dense range,
    /// some slot's list exactly when some slot lists that range, and
    /// otherwise the last list, at the tail of the pool.
    #[test]
    fn root_list_is_the_root_range_interned_like_a_slots_list(
        (spec, synthesised) in arb_memo_spec()
    ) {
        let (query, memo) = if synthesised {
            let (_, query, memo) = spec.build_memo();
            (query, memo)
        } else {
            let (catalog, query) = spec.build();
            let optimized = optimize(&catalog, &query, &OptimizerConfig::default());
            (query, optimized.expect("synthetic queries optimize").memo)
        };
        let label = format!("{} (synthesised: {synthesised})", spec.label());
        let links = Links::build(&memo, &query).unwrap();
        let root = links.root_list();
        let range: Vec<DenseId> = links.ids().group_range(memo.root()).map(DenseId).collect();
        prop_assert_eq!(links.list(root), &range[..], "{}", &label);

        let slot_lists: Vec<_> = (links.ids().iter())
            .flat_map(|(d, _)| links.slot_lists(d).iter().copied())
            .collect();
        let shared = slot_lists.iter().any(|&l| links.list(l) == &range[..]);
        prop_assert_eq!(slot_lists.contains(&root), shared, "{}", &label);
        if !shared {
            prop_assert_eq!(root.idx(), links.num_lists() - 1, "{}", &label);
            prop_assert_eq!(links.list_range(root).end, links.num_pooled_links(), "{}", &label);
        }
    }
}

/// `build_memo` is the optimizer's memo: the same groups in the same
/// order, and in each the same operators with bit-identical costs and
/// cardinalities — minus the logical lists, which it drops.
#[test]
fn synthetic_memo_is_the_optimizers_memo() {
    for topology in Topology::ALL {
        let min = if topology == Topology::Cycle { 3 } else { 2 };
        for (n, seed) in (min..=7).flat_map(|n| [1, 42, 20000].map(|seed| (n, seed))) {
            let spec = JoinGraphSpec::new(topology, n, seed);
            let (_, _, synthetic) = spec.build_memo();
            let (catalog, query) = spec.build();
            let optimized = optimize(&catalog, &query, &OptimizerConfig::default())
                .expect("synthetic queries optimize")
                .memo;
            let label = spec.label();
            assert_eq!(synthetic.num_logical(), 0, "{label}");
            assert_eq!(synthetic.num_groups(), optimized.num_groups(), "{label}");
            assert_eq!(synthetic.root(), optimized.root(), "{label}");
            for (s, o) in synthetic.groups().zip(optimized.groups()) {
                assert_eq!(s.key, o.key, "{label}");
                assert_eq!(s.physical.len(), o.physical.len(), "{label}: {:?}", s.key);
                for (a, b) in s.physical.iter().zip(&o.physical) {
                    assert_eq!(a.op, b.op, "{label}");
                    assert_eq!(a.local_cost.to_bits(), b.local_cost.to_bits(), "{label}");
                    assert_eq!(a.out_card.to_bits(), b.out_card.to_bits(), "{label}");
                }
            }
        }
    }
}

/// A random connected join graph over 2–8 relations: a random spanning
/// tree over shuffled labels, plus each remaining pair with a random
/// density.
fn arb_connected_query() -> impl Strategy<Value = QuerySpec> {
    (2usize..=8, any::<u64>()).prop_map(|(n, seed)| random_connected_query(n, seed, 1.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exploration's connectivity on adjacency masks against the join
    /// graph's own `QuerySpec::connected`: the groups are exactly the
    /// connected subsets, and each group's logical joins exactly the
    /// ordered splits into two connected halves an edge crosses.
    #[test]
    fn exploration_keeps_exactly_the_connected_splits(query in arb_connected_query()) {
        let mut memo = Memo::new();
        explore_bottom_up(&query, false, &mut memo).unwrap();
        let all = query.all_rels().mask();
        let connected: Vec<RelSet> = (1..=all)
            .map(|m| RelSet::from_iter(query.all_rels().iter().filter(|r| m >> r.0 & 1 == 1)))
            .filter(|&set| query.connected(set))
            .collect();
        let mut groups: Vec<RelSet> = memo.groups().filter_map(|g| g.key.rels()).collect();
        groups.sort();
        prop_assert_eq!(&groups, &connected);

        let group = |set| memo.find_group(GroupKey::Rels(set)).unwrap();
        for &set in connected.iter().filter(|s| s.len() >= 2) {
            let mut expected: Vec<_> = connected
                .iter()
                .filter(|&&l| set.is_superset(l) && l != set)
                .map(|&l| (l, set.difference(l)))
                .filter(|&(l, r)| query.connected(r) && !query.edges_crossing(l, r).is_empty())
                .map(|(l, r)| (group(l), group(r)))
                .collect();
            let mut joins: Vec<_> = memo
                .group(group(set))
                .logical
                .iter()
                .map(|op| match *op {
                    LogicalOp::Join { left, right } => (left, right),
                    ref other => panic!("{other:?} in join group {set:?}"),
                })
                .collect();
            expected.sort();
            joins.sort();
            prop_assert_eq!(joins, expected, "{:?}", set);
        }
    }
}

#[test]
fn class_scan_lists_what_the_rule_lists_on_tpch() {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    use plansample_query::tpch::{q10, q5, q8};
    let plain = OptimizerConfig::default();
    for (label, query, config) in [
        ("Q5", q5(&catalog), &plain),
        ("Q8", q8(&catalog), &plain),
        (
            "Q8+CP",
            q8(&catalog),
            &OptimizerConfig::with_cross_products(),
        ),
        ("Q10", q10(&catalog), &plain),
    ] {
        let memo = optimize(&catalog, &query, config).expect(label).memo;
        check_child_lists(&memo, &query).unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

/// A third count witness, sharing nothing with §3.2's recurrence: with
/// merge joins, index scans and enforcers off, a relation has one scan
/// and a join two algorithms, so a space is its bushy join trees without
/// cross products — commuted joins counted apart — times 2ⁿ⁻¹ algorithm
/// choices. Those trees have closed forms (C is the Catalan number):
/// chain 2ⁿ⁻¹·C(n−1), star 2ⁿ⁻¹·(n−1)!, clique n!·C(n−1).
#[test]
fn totals_match_the_closed_forms_for_bushy_trees() {
    let config = OptimizerConfig {
        enable_merge_joins: false,
        enable_index_scans: false,
        enable_enforcers: false,
        ..OptimizerConfig::default()
    };
    let catalan = |n: u64| (0..n).fold(1, |c, k| c * 2 * (2 * k + 1) / (k + 2));
    let factorial = |n: u64| (1..=n).product::<u64>();
    for n in 2..=8u64 {
        let algorithms = 1 << (n - 1);
        for (topology, trees) in [
            (Topology::Chain, (1 << (n - 1)) * catalan(n - 1)),
            (Topology::Star, (1 << (n - 1)) * factorial(n - 1)),
            (Topology::Clique, factorial(n) * catalan(n - 1)),
        ] {
            let spec = JoinGraphSpec::new(topology, n as usize, 7);
            let (catalog, query) = spec.build();
            let prepared = PreparedQuery::prepare(&catalog, &query, &config).expect("optimizes");
            let total = prepared.total().to_u64();
            assert_eq!(total, Some(trees * algorithms), "{}", spec.label());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn rank_unrank_is_the_identity_on_random_spaces(spec in arb_spec()) {
        let synth = SynthSpace::build(spec);
        let space = synth.space();
        prop_assert!(!space.total().is_zero(), "{}: empty space", synth.label);

        let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xABCD);
        for _ in 0..8 {
            let r = Nat::random_below(&mut rng, space.total());
            let plan = space.unrank(&r).expect("rank below total");
            prop_assert!(
                validate_plan(synth.memo(), &synth.query, &plan).is_empty(),
                "{}: unranked plan invalid", synth.label
            );
            let back = space.rank(&plan).expect("member plan ranks");
            prop_assert_eq!(&back, &r, "{}: rank(unrank(r)) != r", &synth.label);
        }
    }

    #[test]
    fn total_matches_brute_force_enumeration_on_small_spaces(spec in arb_spec()) {
        let synth = SynthSpace::build(spec);
        let space = synth.space();
        let total = space.total().clone();
        if let Some(n) = total.to_u64().filter(|&n| n <= ENUM_CAP) {
            // Walk one past the count: every rank in [0, N) must unrank
            // (no gaps) and rank N must not (no excess), and the plans
            // must be pairwise distinct — together with rank∘unrank = id
            // above this pins the bijection onto exactly N plans.
            let all: Vec<_> = space.enumerate().take(n as usize + 1).collect();
            prop_assert_eq!(
                all.len() as u64, n,
                "{}: enumeration disagrees with count", &synth.label
            );
            let distinct: std::collections::HashSet<String> =
                all.iter().map(|p| format!("{:?}", p.preorder_ids())).collect();
            prop_assert_eq!(distinct.len() as u64, n, "{}: duplicate plans", &synth.label);
        } else {
            // Too large to enumerate: spot-check that the first and last
            // ranks unrank (the bijection's boundary cases).
            let mut last = total.clone();
            last.decr();
            prop_assert!(space.unrank(&Nat::zero()).is_ok());
            prop_assert!(space.unrank(&last).is_ok());
            prop_assert!(space.unrank(&total).is_err());
        }
    }
}
