//! The flat plan-space layout against a naive nested-Vec reference.
//!
//! The CSR links (interned alternative lists, dense ids, precomputed
//! slot totals) and the iterative topological count replaced a
//! straightforward nested-`Vec` materialization with a recursive
//! memoized count. These tests keep the old shape alive as an
//! *executable specification*: on random join-graph topologies — both
//! optimizer-built and directly synthesized memos — every alternative
//! list, every per-expression count, every slot total, and the space
//! total must agree exactly with the naive reference.
//!
//! The second half covers sampling on *pruned* memos (a ROADMAP gap):
//! `sample_naive_walk` may dead-end where pruning emptied a slot, but it
//! must fail cleanly, succeed only with valid member plans, and never
//! fail on spaces without dead expressions — while the rank-based
//! uniform sampler never fails at all.

mod common;

use common::SynthSpace;
use plansample::PlanSpace;
use plansample_bignum::Nat;
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_memo::{eligible_children, validate_plan, Memo, PhysId};
use plansample_query::QuerySpec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The pre-refactor data layout, reconstructed: `[group][expr][slot] →
/// alternatives` as nested `Vec`s and a recursive memoized count.
struct NaiveReference {
    slots: Vec<Vec<Vec<Vec<PhysId>>>>,
    counts: Vec<Vec<Nat>>,
    total: Nat,
}

impl NaiveReference {
    fn build(memo: &Memo, query: &QuerySpec) -> NaiveReference {
        let slots: Vec<Vec<Vec<Vec<PhysId>>>> = memo
            .groups()
            .map(|group| {
                group
                    .phys_iter()
                    .map(|(id, expr)| {
                        expr.child_slots(id.group)
                            .iter()
                            .map(|slot| eligible_children(memo, query, slot))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let mut cache: Vec<Vec<Option<Nat>>> = memo
            .groups()
            .map(|g| vec![None; g.physical.len()])
            .collect();
        for group in memo.groups() {
            for (id, _) in group.phys_iter() {
                count_rec(&slots, id, &mut cache);
            }
        }
        let counts: Vec<Vec<Nat>> = cache
            .into_iter()
            .map(|g| g.into_iter().map(|c| c.expect("all visited")).collect())
            .collect();
        let total = counts[memo.root().0 as usize].iter().sum();
        NaiveReference {
            slots,
            counts,
            total,
        }
    }

    fn count(&self, id: PhysId) -> &Nat {
        &self.counts[id.group.0 as usize][id.index]
    }

    fn slots(&self, id: PhysId) -> &[Vec<PhysId>] {
        &self.slots[id.group.0 as usize][id.index]
    }
}

fn count_rec(slots: &[Vec<Vec<Vec<PhysId>>>], id: PhysId, cache: &mut [Vec<Option<Nat>>]) -> Nat {
    if let Some(n) = &cache[id.group.0 as usize][id.index] {
        return n.clone();
    }
    let own = &slots[id.group.0 as usize][id.index];
    let n = if own.is_empty() {
        Nat::one()
    } else {
        let mut product = Nat::one();
        for alternatives in own {
            let b: Nat = alternatives
                .iter()
                .map(|&w| count_rec(slots, w, cache))
                .sum();
            product = product * b;
        }
        product
    };
    cache[id.group.0 as usize][id.index] = Some(n.clone());
    n
}

/// Every observable of the flat layout must match the reference.
fn assert_layouts_agree(label: &str, memo: &Memo, query: &QuerySpec, space: &PlanSpace) {
    let reference = NaiveReference::build(memo, query);
    assert_eq!(space.total(), &reference.total, "{label}: total");
    for group in memo.groups() {
        for (id, _) in group.phys_iter() {
            assert_eq!(
                &space.count_rooted(id),
                reference.count(id),
                "{label}: count of {id}"
            );
            let flat = space.links().children_of(id);
            assert_eq!(flat, reference.slots(id), "{label}: links of {id}");
            // Precomputed slot totals equal fresh sums over the naive
            // lists.
            let dense = space.links().ids().dense(id);
            for (l, alternatives) in space
                .links()
                .slot_lists(dense)
                .iter()
                .zip(reference.slots(id))
            {
                let fresh: Nat = alternatives.iter().map(|&w| reference.count(w)).sum();
                assert_eq!(
                    space.counts().list_total(*l),
                    fresh,
                    "{label}: slot total under {id}"
                );
            }
        }
    }
}

/// Small spec space for debug-mode optimizer runs.
fn arb_spec() -> impl Strategy<Value = JoinGraphSpec> {
    (0usize..4, 3usize..=5, 0u64..1_000_000).prop_map(|(t, n, seed)| {
        let topology = Topology::ALL[t];
        let n = if topology == Topology::Clique {
            n.min(4)
        } else {
            n
        };
        JoinGraphSpec::new(topology, n, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Optimizer-built memos: flat layout == naive reference.
    #[test]
    fn flat_layout_matches_naive_reference_on_optimized_spaces(spec in arb_spec()) {
        let synth = SynthSpace::build(spec);
        assert_layouts_agree(&synth.label, synth.memo(), &synth.query, synth.space());
    }

    /// Directly synthesized memos (no optimizer): same agreement, and
    /// these reach denser link structures than the optimizer's.
    #[test]
    fn flat_layout_matches_naive_reference_on_synthetic_memos(spec in arb_spec()) {
        let (_, query, memo) = spec.build_memo();
        let space = PlanSpace::build_shared(Arc::new(memo), Arc::new(query.clone()))
            .expect("synthetic memos are acyclic");
        assert_layouts_agree(&spec.label(), space.memo(), &query, &space);
    }
}

#[test]
fn twelve_relation_synthetic_space_round_trips() {
    // 10+-relation regime, debug-friendly topology: a 12-cycle has only
    // 133 connected subsets, so the direct memo builds instantly while
    // still exercising a space far past anything TPC-H reaches. (The
    // multi-limb clique-10 variant runs in release mode in
    // `tests/perf_contracts.rs`.)
    let (_, query, memo) = JoinGraphSpec::new(Topology::Cycle, 12, 20000).build_memo();
    let space = PlanSpace::build_shared(Arc::new(memo), Arc::new(query)).unwrap();
    assert!(
        space.total().bits() > 32,
        "cycle-12 spaces are large, got {}",
        space.total()
    );
    // The bijection holds at the boundaries of the huge space.
    let mut last = space.total().clone();
    last.decr();
    for rank in [Nat::zero(), Nat::one(), last] {
        let plan = space.unrank(&rank).unwrap();
        assert_eq!(space.rank(&plan).unwrap(), rank);
        assert!(validate_plan(space.memo(), space.query(), &plan).is_empty());
    }
}

// ---------------------------------------------------------------------
// Pruned-memo sampling behavior.
// ---------------------------------------------------------------------

/// On a pruned memo the naive walk may dead-end; when it does not, the
/// result must be a valid member plan, and the rank-based sampler must
/// never fail regardless.
#[test]
fn naive_walk_on_pruned_memos_fails_cleanly_or_yields_members() {
    use plansample_optimizer::{optimize, prune, OptimizerConfig};
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let query = plansample_query::tpch::q5(&catalog);
    let optimized = optimize(&catalog, &query, &OptimizerConfig::default()).unwrap();

    for factor in [2.0, 1.2, 1.0] {
        let pruned = prune(&optimized.memo, &query, factor);
        let space = PlanSpace::build_shared(Arc::new(pruned), Arc::new(query.clone())).unwrap();
        assert!(!space.total().is_zero(), "pruning keeps the best plan");
        let has_dead = space
            .links()
            .all_ids()
            .any(|id| space.count_rooted(id).is_zero());

        let mut rng = StdRng::seed_from_u64(7_000 + factor as u64);
        let mut failures = 0usize;
        for _ in 0..200 {
            match space.sample_naive_walk(&mut rng) {
                Some(plan) => {
                    assert!(
                        validate_plan(space.memo(), space.query(), &plan).is_empty(),
                        "factor {factor}: walk produced an invalid plan"
                    );
                    let r = space.rank(&plan).expect("walked plans are members");
                    assert!(&r < space.total());
                }
                None => failures += 1,
            }
            // The uniform sampler never dead-ends on a non-empty space.
            let plan = space.sample(&mut rng);
            assert!(space.rank(&plan).is_ok());
        }
        assert!(
            has_dead || failures == 0,
            "factor {factor}: walk failed {failures} times with no dead expression"
        );
    }
}

/// Deterministic dead-end fixture: a root group holding one live hash
/// join and one dead merge join (no sorted providers). The naive walk
/// picks the dead root with probability 1/2 and must return `None`
/// exactly then; the uniform sampler must never pick it.
#[test]
fn naive_walk_failure_rate_matches_the_dead_alternative_share() {
    use plansample_catalog::{table, ColType};
    use plansample_memo::{GroupKey, PhysicalExpr, PhysicalOp};
    use plansample_query::{ColRef, QueryBuilder, RelId, RelSet};

    let mut catalog = plansample_catalog::Catalog::new();
    for name in ["a", "b"] {
        catalog
            .add_table(table(name, 10).col("k", ColType::Int, 10).build())
            .unwrap();
    }
    let mut qb = QueryBuilder::new(&catalog);
    qb.rel("a", None).unwrap();
    qb.rel("b", None).unwrap();
    qb.join(("a", "k"), ("b", "k")).unwrap();
    let query = qb.build().unwrap();

    let (ra, rb) = (RelId(0), RelId(1));
    let mut memo = Memo::new();
    let ga = memo.add_group(GroupKey::Rels(RelSet::singleton(ra)));
    let gb = memo.add_group(GroupKey::Rels(RelSet::singleton(rb)));
    let gab = memo.add_group(GroupKey::Rels(RelSet::all(2)));
    for (g, rel) in [(ga, ra), (gb, rb)] {
        memo.add_physical(
            g,
            PhysicalExpr::new(PhysicalOp::TableScan { rel }, 10.0, 10.0),
        )
        .unwrap();
    }
    let live = memo
        .add_physical(
            gab,
            PhysicalExpr::new(
                PhysicalOp::HashJoin {
                    left: ga,
                    right: gb,
                },
                25.0,
                10.0,
            ),
        )
        .unwrap();
    memo.add_physical(
        gab,
        PhysicalExpr::new(
            PhysicalOp::MergeJoin {
                left: ga,
                right: gb,
                left_key: ColRef { rel: ra, col: 0 },
                right_key: ColRef { rel: rb, col: 0 },
            },
            20.0,
            10.0,
        ),
    )
    .unwrap();
    memo.set_root(gab);

    let space = PlanSpace::build(&memo, &query).unwrap();
    assert_eq!(space.total().to_u64(), Some(1));

    let draws = 4000;
    let mut rng = StdRng::seed_from_u64(99);
    let mut failures = 0usize;
    for _ in 0..draws {
        match space.sample_naive_walk(&mut rng) {
            Some(plan) => assert_eq!(plan.id, live, "only the live root completes"),
            None => failures += 1,
        }
    }
    // Binomial(4000, 1/2): ±5σ ≈ ±158.
    let expected = draws / 2;
    assert!(
        (failures as i64 - expected as i64).unsigned_abs() < 160,
        "failure rate {failures}/{draws} far from the dead share 1/2"
    );
    // The uniform sampler always returns the single member plan.
    for _ in 0..50 {
        assert_eq!(space.sample(&mut rng).id, live);
    }
}
