//! Property tests over the synthetic join-graph generator: for random
//! topologies, sizes, and statistics seeds, the optimizer must produce a
//! space where `rank ∘ unrank` is the identity on sampled ranks, and —
//! on spaces small enough to enumerate — the exact count `N` must equal
//! the brute-force enumeration via the independent recursive oracle.
//! Underneath both, the per-class eligibility scan must list, for every
//! distinct child slot, exactly what the per-expression rule lists.

mod common;

use common::SynthSpace;
use plansample_bignum::Nat;
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_memo::{eligible_children, validate_plan, DenseId, Memo, MemoScan};
use plansample_optimizer::{optimize, OptimizerConfig};
use plansample_query::QuerySpec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
/// every distinct slot's list must be `eligible_children` — one test per
/// expression — mapped to dense ids, and the flat tables exact. `Err`
/// names the first slot that differs.
fn check_child_lists(memo: &Memo, query: &QuerySpec) -> Result<(), String> {
    let MemoScan { ids, gather, lists } = MemoScan::build(memo, query);
    if lists.list_of.len() != gather.distinct.len() {
        return Err("one list per distinct slot".into());
    }
    for (i, slot) in gather.distinct.iter().enumerate() {
        let rule: Vec<DenseId> = eligible_children(memo, query, slot)
            .into_iter()
            .map(|id| ids.dense(id))
            .collect();
        let listed = lists.list(lists.list_of[i] as usize);
        if listed != rule {
            return Err(format!("slot {i} ({slot:?}) lists {listed:?}"));
        }
    }
    let exact = lists.bounds.first() == Some(&0)
        && lists.bounds.is_sorted()
        && lists.bounds.last() == Some(&(lists.pool.len() as u32))
        && lists.pool.capacity() == lists.pool.len();
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
