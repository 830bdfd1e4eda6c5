//! The pruning ablation (`ablation_pruning` binary) as invariants: cost-bound
//! pruning shrinks the testable space monotonically, preserves the
//! optimum, and the pruned space remains a *subset* — every plan of the
//! pruned memo appears (with identical results) in the full space.

use plansample::PlanSpace;
use plansample_datagen::MicroScale;
use plansample_optimizer::{optimize, prune, OptimizerConfig};
use std::sync::Arc;

/// Zero-copy space construction: the pruned memo is owned and unused
/// afterwards, so hand it straight to the space instead of letting
/// `PlanSpace::build` clone it.
fn shared_space(memo: plansample_memo::Memo, query: &plansample_query::QuerySpec) -> PlanSpace {
    PlanSpace::build_shared(Arc::new(memo), Arc::new(query.clone())).unwrap()
}

#[test]
fn pruning_is_monotone_and_preserves_the_optimum() {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let query = plansample_query::tpch::q5(&catalog);
    let optimized = optimize(&catalog, &query, &OptimizerConfig::default()).unwrap();
    let full = PlanSpace::build(&optimized.memo, &query).unwrap();
    let full_total = full.total().clone();

    let mut previous = full_total.clone();
    for factor in [100.0, 10.0, 2.0, 1.0] {
        let pruned = prune(&optimized.memo, &query, factor);
        let space = shared_space(pruned, &query);
        assert!(
            space.total() <= &previous,
            "factor {factor}: {} > previous {previous}",
            space.total()
        );
        previous = space.total().clone();

        // The optimum survives every factor.
        let totals = plansample_optimizer::compute_totals(space.memo(), &query);
        let (_, best) = plansample_optimizer::best_plan(space.memo(), &totals).unwrap();
        assert!(
            (best - optimized.best_cost).abs() < 1e-9 * optimized.best_cost,
            "factor {factor} lost the optimum"
        );
    }
    // Keep-only-best leaves a drastically smaller space.
    let tight_space = shared_space(prune(&optimized.memo, &query, 1.0), &query);
    assert!(tight_space.total().to_f64() < full_total.to_f64() * 1e-6);
}

#[test]
fn pruned_plans_still_execute_identically() {
    let (catalog, tables) = plansample_catalog::tpch::catalog();
    let db = plansample_datagen::generate(&catalog, &tables, &MicroScale::tiny(), 5);
    let query = plansample_query::tpch::q9(&catalog);
    let optimized = optimize(&catalog, &query, &OptimizerConfig::default()).unwrap();
    let space = shared_space(prune(&optimized.memo, &query, 2.0), &query);

    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let report = space.validate_sampled(&catalog, &db, 40, &mut rng).unwrap();
    assert!(report.all_passed(), "{report}");
}

#[test]
fn pruning_keeps_group_count_but_drops_expressions() {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let query = plansample_query::tpch::q7(&catalog);
    let optimized = optimize(&catalog, &query, &OptimizerConfig::default()).unwrap();
    let pruned = prune(&optimized.memo, &query, 1.5);
    assert_eq!(pruned.num_groups(), optimized.memo.num_groups());
    assert!(pruned.num_physical() < optimized.memo.num_physical());
    assert_eq!(pruned.root(), optimized.memo.root());
}

/// Transformation-rule exploration makes groups out of subset-size
/// order, so some of Q5's expressions read a group made after their own
/// group, and pruning must make every group before any expression. The
/// pruned memo is the bottom-up one's, renumbered: the same best cost
/// and as many expressions kept, at every factor.
#[test]
fn pruning_a_transform_explored_memo_matches_pruning_the_bottom_up_one() {
    use plansample_optimizer::{
        add_enforcers, best_plan, compute_totals, explore_transform, implement_all, CostModel,
    };
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let query = plansample_query::tpch::q5(&catalog);
    let bottom_up = optimize(&catalog, &query, &OptimizerConfig::default())
        .unwrap()
        .memo;
    let mut transformed = plansample_memo::Memo::new();
    explore_transform(&query, false, &mut transformed).unwrap();
    let cost = CostModel::default();
    implement_all(&query, &catalog, &cost, true, true, &mut transformed);
    add_enforcers(&query, &catalog, &cost, &mut transformed);
    let reads_a_later_group = transformed.groups().any(|group| {
        let slots = group.physical.iter().flat_map(|e| e.child_slots(group.id));
        slots.into_iter().any(|slot| slot.group > group.id)
    });
    assert!(reads_a_later_group);

    let best =
        |memo: &plansample_memo::Memo| best_plan(memo, &compute_totals(memo, &query)).unwrap().1;
    for factor in [1.0, 2.0, 100.0] {
        let [expected, pruned] = [&bottom_up, &transformed].map(|m| prune(m, &query, factor));
        assert_eq!(pruned.num_groups(), transformed.num_groups());
        assert_eq!(
            pruned.num_physical(),
            expected.num_physical(),
            "factor {factor}"
        );
        assert_eq!(best(&pruned), best(&expected), "factor {factor}");
    }
}
