//! Experiment E1 — regenerates **Table 1** of the paper:
//! "Parameters of search spaces of TPC-H join queries".
//!
//! For each of Q5, Q7, Q8, Q9 — first without cross products, then with
//! — this example optimizes the query against SF-1 TPC-H statistics,
//! counts the exact plan space, draws 10 000 uniform plans, and reports
//! min/mean/max scaled cost plus the fractions within 2× and 10× of the
//! optimum. A second table attaches seeded-bootstrap 95% confidence
//! intervals to the q01/q50/q99 scaled-cost quantiles — the sampling
//! noise the headline numbers carry (999 resamples per row,
//! deterministic in `EXPERIMENT_SEED`, recorded in
//! `docs/EXPERIMENTS.md` §E1).
//!
//! ```text
//! cargo run --release --example table1
//! ```

mod common;

use common::{join_queries, prepare, sample_scaled_costs, EXPERIMENT_SEED};
use plansample_stats::{bootstrap_quantile_cis, Summary};
use std::time::Instant;

const SAMPLES: usize = 10_000;
const CI_LEVELS: [f64; 3] = [0.01, 0.5, 0.99];
const CI_REPLICATES: usize = 999;

/// Formats a scaled-cost value the way Table 1 prints them (two decimal
/// places below 100, scientific above).
fn fmt_cost(v: f64) -> String {
    if v < 100.0 {
        format!("{v:.2}")
    } else if v < 1e6 {
        format!("{v:.0}")
    } else {
        format!("{v:.3e}")
    }
}

fn main() {
    let (catalog, _) = plansample_catalog::tpch::catalog();

    println!("Table 1: Parameters of search spaces of TPC-H join queries");
    println!("({SAMPLES} uniform samples per row; costs scaled to the optimizer's plan = 1.0)");
    println!();
    println!(
        "{:<6} {:>22} {:>8} {:>12} {:>12} {:>9} {:>9}",
        "Query", "#Plans", "Min", "Mean", "Max", "costs<=2", "costs<=10"
    );

    let mut ci_rows: Vec<String> = Vec::new();
    for cross_products in [false, true] {
        for (name, query) in join_queries(&catalog) {
            let t0 = Instant::now();
            let prepared = prepare(&catalog, &query, cross_products);
            let total = prepared.total().clone();
            let costs = sample_scaled_costs(&prepared, SAMPLES, EXPERIMENT_SEED);
            let s = Summary::of(&costs);
            println!(
                "{:<6} {:>22} {:>8} {:>12} {:>12} {:>8.2}% {:>8.2}%   [{:.1?}]",
                name,
                total.to_string(),
                fmt_cost(s.min()),
                fmt_cost(s.mean()),
                fmt_cost(s.max()),
                100.0 * s.fraction_below(2.0),
                100.0 * s.fraction_below(10.0),
                t0.elapsed(),
            );
            let cis =
                bootstrap_quantile_cis(&costs, &CI_LEVELS, CI_REPLICATES, 0.95, EXPERIMENT_SEED)
                    .expect("cost sample is non-empty");
            let label = if cross_products {
                format!("{name}+CP")
            } else {
                name.to_string()
            };
            ci_rows.push(format!(
                "{label:<6} {}",
                cis.iter()
                    .map(|ci| format!(
                        "{:>8} [{:>8}, {:>8}]",
                        fmt_cost(ci.point),
                        fmt_cost(ci.lo),
                        fmt_cost(ci.hi)
                    ))
                    .collect::<Vec<_>>()
                    .join("  ")
            ));
        }
        if !cross_products {
            println!("{:-<90}", "");
        }
    }
    println!();
    println!("rows 1-4: no Cartesian products; rows 5-8: including Cartesian products");
    println!();
    println!(
        "Scaled-cost quantiles with seeded-bootstrap 95% CIs \
         ({CI_REPLICATES} resamples, percentile method):"
    );
    println!(
        "{:<6} {:>28} {:>30} {:>30}",
        "Query", "q01 [95% CI]", "q50 [95% CI]", "q99 [95% CI]"
    );
    for row in &ci_rows {
        println!("{row}");
    }
}
