//! Experiment E8 (ablation) — uniform unranking-based sampling vs the
//! naive random walk.
//!
//! The obvious way to "sample a plan" without the paper's counting
//! machinery is a top-down walk picking uniformly among alternatives at
//! every step. This example makes the bias measurable: on a small query
//! whose space can be enumerated, it draws 100 000 plans with both
//! samplers and reports each one's chi-square uniformity test plus the
//! most over/under-sampled plans under the naive walk.
//!
//! ```text
//! cargo run --release --example ablation_naive
//! ```

mod common;

use common::{prepare, EXPERIMENT_SEED};
use plansample_query::QueryBuilder;
use plansample_stats::chi_square_uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DRAWS: usize = 100_000;

fn main() {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    // nation ⋈ region ⋈ supplier: small enough to enumerate exactly.
    let mut qb = QueryBuilder::new(&catalog);
    qb.rel("nation", Some("n")).unwrap();
    qb.rel("region", Some("r")).unwrap();
    qb.rel("supplier", Some("s")).unwrap();
    qb.join(("n", "n_regionkey"), ("r", "r_regionkey")).unwrap();
    qb.join(("s", "s_nationkey"), ("n", "n_nationkey")).unwrap();
    let query = qb.build().unwrap();

    let prepared = prepare(&catalog, &query, false);
    let space = prepared.space();
    let n = space
        .total()
        .to_u64()
        .expect("3-way space fits comfortably in u64") as usize;
    println!("3-way join space: {n} plans; drawing {DRAWS} samples per sampler");

    let mut uniform_freq = vec![0usize; n];
    let mut naive_freq = vec![0usize; n];
    let mut rng = StdRng::seed_from_u64(EXPERIMENT_SEED);
    for _ in 0..DRAWS {
        let plan = space.sample(&mut rng);
        let rank = space.rank(&plan).unwrap().to_u64().unwrap() as usize;
        uniform_freq[rank] += 1;

        let plan = space.sample_naive_walk(&mut rng).expect("complete space");
        let rank = space.rank(&plan).unwrap().to_u64().unwrap() as usize;
        naive_freq[rank] += 1;
    }

    let t_uniform = chi_square_uniform(&uniform_freq).expect("non-degenerate table");
    let t_naive = chi_square_uniform(&naive_freq).expect("non-degenerate table");
    println!();
    println!(
        "unranking sampler: chi2 = {:>10.1} (dof {}), p = {:.4}, w = {:.3}  -> {}",
        t_uniform.statistic,
        t_uniform.dof().unwrap(),
        t_uniform.p_value,
        t_uniform.effect_size(),
        verdict(t_uniform.p_value)
    );
    println!(
        "naive random walk: chi2 = {:>10.1} (dof {}), p = {:.4}, w = {:.3}  -> {}",
        t_naive.statistic,
        t_naive.dof().unwrap(),
        t_naive.p_value,
        t_naive.effect_size(),
        verdict(t_naive.p_value)
    );
    println!(
        "  (w is Cohen's effect size √(χ²/n); the 0.1%-level rejection threshold is χ² > {:.0})",
        t_naive.critical_value(0.001)
    );

    // Most distorted plans under the naive walk.
    let expected = DRAWS as f64 / n as f64;
    let mut ratios: Vec<(usize, f64)> = naive_freq
        .iter()
        .enumerate()
        .map(|(rank, &c)| (rank, c as f64 / expected))
        .collect();
    ratios.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!();
    println!("naive walk sampling ratio (1.0 = fair):");
    for &(rank, ratio) in ratios.iter().take(3) {
        println!("  plan {rank:>4}: {ratio:>6.2}x over-sampled");
    }
    for &(rank, ratio) in ratios.iter().rev().take(3).rev() {
        println!(
            "  plan {rank:>4}: {ratio:>6.2}x ({}under-sampled)",
            if ratio < 1.0 { "" } else { "not " }
        );
    }
    println!();
    println!(
        "unbiased testing needs the counting machinery: per-step uniform choices weight \
         a plan by the product of its local branching factors, not by 1/N."
    );
}

fn verdict(p: f64) -> &'static str {
    if p < 0.001 {
        "REJECTS uniformity"
    } else {
        "consistent with uniform"
    }
}
