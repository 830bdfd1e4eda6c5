//! Experiment E7 (ablation) — why the paper wants pruning off.
//!
//! §2: "Some optimizers by default discard suboptimal expressions. For
//! our technique to be most effective, it is useful to have the
//! optimizer keep each alternative generated." This example quantifies
//! that advice: it applies cost-bound pruning at several keep-factors to
//! the Q5 memo and reports how the countable (= testable) plan space
//! collapses.
//!
//! ```text
//! cargo run --release --example ablation_pruning
//! ```

mod common;

use plansample::PlanSpace;
use plansample_optimizer::prune;
use std::sync::Arc;

fn main() {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let query = Arc::new(plansample_query::tpch::q5(&catalog));
    let prepared = common::prepare(&catalog, &query, false);
    let full_total = prepared.total().clone();
    let full_exprs = prepared.memo().num_physical();

    println!("Ablation: cost-bound pruning vs the testable plan space (TPC-H Q5)");
    println!();
    println!(
        "{:>12} {:>12} {:>26} {:>16}",
        "keep-factor", "phys exprs", "#Plans", "% of full space"
    );
    println!(
        "{:>12} {:>12} {:>26} {:>16}",
        "keep all",
        full_exprs,
        full_total.to_string(),
        "100%"
    );

    for factor in [100.0, 10.0, 2.0, 1.5, 1.0] {
        let pruned = prune(prepared.memo(), &query, factor);
        let n_exprs = pruned.num_physical();
        let space = PlanSpace::build_shared(Arc::new(pruned), Arc::clone(&query))
            .expect("pruned memo stays well-formed");
        let total = space.total();
        let pct = 100.0 * total.to_f64() / full_total.to_f64();
        println!(
            "{:>12} {:>12} {:>26} {:>15.10}%",
            factor,
            n_exprs,
            total.to_string(),
            pct
        );
    }

    println!();
    println!(
        "keep-factor f keeps expressions whose best completion is within f× of their \
         group's best; f = 1.0 emulates an optimizer that discards every suboptimal \
         alternative — the testable space collapses by many orders of magnitude."
    );
}
