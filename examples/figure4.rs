//! Experiment E2/E6 — regenerates **Figure 4** of the paper: cost
//! distributions for TPC-H Q5, Q7, Q8, Q9 (10 000 uniform samples,
//! lower 50% of sampled costs, frequency histograms), each query's
//! expected operator mix (computed from the sub-space counts, not
//! sampled), plus the §5 distribution-shape analysis (exponential
//! resemblance, Gamma shape parameter ≈ 1) behind `--fit`.
//!
//! ```text
//! cargo run --release --example figure4 [-- --fit] [-- --csv DIR]
//! ```

mod common;

use common::{join_queries, prepare, sample_scaled_costs, EXPERIMENT_SEED};
use plansample_stats::{fit_exponential, fit_gamma, Histogram, Summary};
use std::io::Write as _;

const SAMPLES: usize = 10_000;
const BUCKETS: usize = 25;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fit = args.iter().any(|a| a == "--fit");
    let csv_dir = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let (catalog, _) = plansample_catalog::tpch::catalog();

    println!("Figure 4: cost distributions (lower 50% of {SAMPLES} sampled scaled costs)");
    println!("search spaces without Cartesian products, as in Table 1 rows 1-4");

    for (name, query) in join_queries(&catalog) {
        let prepared = prepare(&catalog, &query, false);
        let costs = sample_scaled_costs(&prepared, SAMPLES, EXPERIMENT_SEED);
        let hist = Histogram::lower_fraction(&costs, 0.5, BUCKETS);
        let kept: usize = hist.counts().iter().sum();

        println!();
        println!(
            "TPC-H {name}  (space size {}, lower-50% range [{:.2}, {:.2}], {kept} samples shown)",
            prepared.total(),
            hist.lo(),
            hist.hi()
        );
        print!("{}", hist.render(50));

        println!("  expected operator mix of one uniformly drawn plan (computed, not sampled):");
        let space = prepared.space();
        for (op, freq) in space.operator_mix() {
            println!("    {op:<15} {freq:>6.3}");
        }
        println!(
            "    total {:>17.3} operators per plan on average",
            space.expected_plan_size()
        );

        if fit {
            let s = Summary::of(&costs);
            let gamma = fit_gamma(&costs);
            let expo = fit_exponential(&costs);
            let gof_g = gamma.goodness_of_fit(&costs).expect("non-empty sample");
            let gof_e = expo.goodness_of_fit(&costs).expect("non-empty sample");
            println!(
                "  full-sample stats: min {:.2}  mean {:.1}  max {:.1}",
                s.min(),
                s.mean(),
                s.max()
            );
            println!(
                "  gamma fit: shape k = {:.3} (paper: \"shape parameter close to 1\"), scale = {:.2}, KS D = {:.3}",
                gamma.shape, gamma.scale, gof_g.statistic
            );
            println!(
                "  exponential fit: rate = {:.4}, KS D = {:.3}",
                expo.rate, gof_e.statistic
            );
        }

        if let Some(dir) = &csv_dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = format!("{dir}/figure4_{}.csv", name.to_lowercase());
            let mut f = std::fs::File::create(&path).expect("create csv");
            writeln!(f, "scaled_cost_bucket_mid,frequency").unwrap();
            for (mid, count) in hist.series() {
                writeln!(f, "{mid},{count}").unwrap();
            }
            println!("  wrote {path}");
        }
    }

    // §5 control: small queries have no particular shape.
    let q6 = plansample_query::tpch::q6(&catalog);
    let prepared = prepare(&catalog, &q6, false);
    println!();
    println!(
        "control TPC-H Q6: only {} plans (\"distributions of queries that contained few \
         tables were of no particular shape\")",
        prepared.total()
    );
}
