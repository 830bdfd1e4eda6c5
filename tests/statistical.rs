//! The slow statistical validation sweeps, gated behind
//! `PLANSAMPLE_STATISTICAL=1` so tier-1 `cargo test` stays fast. The CI
//! `statistical-tests` job runs this file in release mode with a pinned
//! `PLANSAMPLE_STATS_SEED`; every test is deterministic in that seed.
//!
//! Coverage beyond the fast suites:
//! - uniformity accept/reject on 6-relation chain/star/cycle spaces
//!   (10⁸–10⁹ plans, bucketed rank spectra);
//! - a 9-relation clique whose exact count needs multiple `u64` limbs —
//!   sampling there exercises multi-limb `random_below`, unranking, and
//!   ranking end-to-end;
//! - sub-space uniformity inside a large space;
//! - Figure-4-style gamma/exponential fits on sampled cost
//!   distributions, with Lilliefors-corrected (seeded
//!   parametric-bootstrap) KS goodness-of-fit p-values;
//! - sampled-vs-enumerated cost KS on a 74k-plan space.

mod common;

use common::{
    bucket_spectrum, gate, sampled_scaled_costs, seeded_rng, stats_seed, Sampler, SynthSpace,
};
use plansample_bignum::Nat;
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_stats::{
    chi_square_uniform, fit_gamma, ks_exponential_fit, ks_gamma_fit, ks_test_two_sample, Summary,
};

const BUCKETS: usize = 128;
const DRAWS: usize = 25_600; // 200 expected per bucket

#[test]
fn six_relation_topologies_accept_unranking_and_reject_naive_walk() {
    if !gate("six_relation_topologies") {
        return;
    }
    for topology in [Topology::Chain, Topology::Star, Topology::Cycle] {
        let synth = SynthSpace::build(JoinGraphSpec::new(topology, 6, 42));
        let space = synth.space();
        let mut rng = seeded_rng(11);

        let freq = bucket_spectrum(space, Sampler::Unranking, BUCKETS, DRAWS, &mut rng);
        let accept = chi_square_uniform(&freq).unwrap();
        assert!(
            !accept.rejects_at(0.001),
            "{}: uniformity rejected: {accept}",
            synth.label
        );
        assert!(
            accept.effect_size() < 0.1,
            "{}: residual effect w = {}",
            synth.label,
            accept.effect_size()
        );

        let freq = bucket_spectrum(space, Sampler::NaiveWalk, BUCKETS, DRAWS, &mut rng);
        let reject = chi_square_uniform(&freq).unwrap();
        assert!(
            reject.rejects_at(1e-6),
            "{}: naive walk passed: {reject}",
            synth.label
        );
        assert!(
            reject.effect_size() > 0.3,
            "{}: naive-walk bias w = {} below medium effect",
            synth.label,
            reject.effect_size()
        );
        eprintln!(
            "{}: N = {}, accept w = {:.3}, naive w = {:.3}",
            synth.label,
            space.total(),
            accept.effect_size(),
            reject.effect_size()
        );
    }
}

#[test]
fn multi_limb_clique_space_is_sampled_uniformly() {
    if !gate("multi_limb_clique_space") {
        return;
    }
    let synth = SynthSpace::build(JoinGraphSpec::new(Topology::Clique, 9, 42));
    let space = synth.space();
    assert!(
        space.total().limbs().len() >= 2,
        "space {} fits one limb — not a multi-limb stress",
        space.total()
    );

    let mut rng = seeded_rng(12);
    let freq = bucket_spectrum(space, Sampler::Unranking, BUCKETS, DRAWS, &mut rng);
    let accept = chi_square_uniform(&freq).unwrap();
    assert!(
        !accept.rejects_at(0.001),
        "clique-9 ({} plans): uniformity rejected: {accept}",
        space.total()
    );

    let freq = bucket_spectrum(space, Sampler::NaiveWalk, BUCKETS, DRAWS, &mut rng);
    let reject = chi_square_uniform(&freq).unwrap();
    assert!(
        reject.rejects_at(1e-6),
        "clique-9: naive walk passed: {reject}"
    );
    assert!(
        reject.effect_size() > 0.3,
        "clique-9: naive-walk bias w = {}",
        reject.effect_size()
    );
    eprintln!(
        "clique-9: N = {} ({} limbs), naive w = {:.3}",
        space.total(),
        space.total().limbs().len(),
        reject.effect_size()
    );
}

#[test]
fn subspace_sampling_is_uniform_inside_a_large_space() {
    if !gate("subspace_in_large_space") {
        return;
    }
    let synth = SynthSpace::build(JoinGraphSpec::new(Topology::Star, 6, 42));
    let space = synth.space();

    // Two sub-space roots from the root group of a ~1.6e9-plan space:
    // bucket the *local* ranks of rooted samples. Rooted counts must
    // dwarf the bucket count, or integer bucket boundaries would skew
    // expectations and falsely reject a uniform sampler.
    let floor = Nat::from((BUCKETS * BUCKETS) as u64);
    let roots: Vec<_> = synth
        .memo()
        .group(synth.memo().root())
        .phys_iter()
        .map(|(id, _)| id)
        .filter(|&id| space.count_rooted(id) >= floor)
        .take(2)
        .collect();
    assert_eq!(roots.len(), 2, "root group lacks two large sub-spaces");

    for v in roots {
        let count = space.count_rooted(v);
        let b = Nat::from(BUCKETS);
        let mut freq = vec![0usize; BUCKETS];
        let mut rng = seeded_rng(13 + v.index as u64);
        for _ in 0..DRAWS {
            let plan = space.sample_rooted(&mut rng, v);
            assert_eq!(plan.id, v);
            let local = space.rank_rooted(&plan).unwrap();
            let (bucket, _) = (&local * &b).div_rem(&count);
            freq[bucket.to_u64().unwrap() as usize] += 1;
        }
        let test = chi_square_uniform(&freq).unwrap();
        assert!(
            !test.rejects_at(0.001),
            "sub-space at {v} ({count} plans) not uniform: {test}"
        );
    }
}

#[test]
fn sampled_costs_ks_match_enumeration_on_74k_plan_space() {
    if !gate("costs_vs_enumeration_74k") {
        return;
    }
    let synth = SynthSpace::build(JoinGraphSpec::new(Topology::Chain, 4, 42));
    let space = synth.space();
    let n = space.total().to_u64().unwrap();
    assert!(n > 50_000, "chain-4 space unexpectedly small: {n}");

    let exhaustive: Vec<f64> = space
        .enumerate()
        .map(|p| p.total_cost(synth.memo()) / synth.best_cost)
        .collect();
    let mut rng = seeded_rng(14);
    let sampled = sampled_scaled_costs(&synth, space, 10_000, &mut rng);
    let test = ks_test_two_sample(&sampled, &exhaustive).unwrap();
    assert!(
        !test.rejects_at(0.001),
        "sampled cost distribution diverges from exhaustive: {test}"
    );
    eprintln!(
        "chain-4: D = {:.4} over {} sampled vs {} enumerated costs",
        test.statistic,
        sampled.len(),
        exhaustive.len()
    );
}

/// §5 of the paper: sampled cost distributions of join-heavy queries
/// resemble "exponential distributions … Gamma-distributions with shape
/// parameter close to 1". Checked here on synthetic spaces (the TPC-H
/// versions are recorded in docs/EXPERIMENTS.md via the figure4 binary).
#[test]
fn cost_distributions_fit_gamma_with_small_shape() {
    if !gate("gamma_fits") {
        return;
    }
    for topology in [Topology::Chain, Topology::Star, Topology::Cycle] {
        let synth = SynthSpace::build(JoinGraphSpec::new(topology, 6, 42));
        let space = synth.space();
        let mut rng = seeded_rng(15);
        let costs = sampled_scaled_costs(&synth, space, 10_000, &mut rng);
        let s = Summary::of(&costs);
        assert!(s.min() >= 1.0 - 1e-9, "scaled costs start at the optimum");

        // Heavy-tailed cost spaces: fit the Figure-4 view (lower half),
        // as the paper plots, not the outlier-dominated full range.
        let cut = s.quantile(0.5);
        let lower: Vec<f64> = costs.iter().copied().filter(|&c| c <= cut).collect();
        let gamma = fit_gamma(&lower);
        // Synthetic spaces need not reproduce TPC-H's "shape ≈ 1" —
        // only a plausible, finite MLE (observed range here: ~1.9–6.2).
        assert!(
            gamma.shape > 0.05 && gamma.shape < 25.0,
            "{}: implausible gamma shape {}",
            synth.label,
            gamma.shape
        );
        // Lilliefors-corrected (parametric-bootstrap) goodness-of-fit:
        // the honest p-values replacing the optimistic Kolmogorov
        // bound the fixed-CDF KS test would report for these
        // estimated-parameter fits.
        let gamma_gof = ks_gamma_fit(&lower, 99, stats_seed()).unwrap();
        let expo_gof = ks_exponential_fit(&lower, 99, stats_seed()).unwrap();
        eprintln!(
            "{}: gamma shape = {:.3}, gamma D = {:.3} (bootstrap p = {:.3}), \
             expo D = {:.3} (bootstrap p = {:.3})",
            synth.label,
            gamma.shape,
            gamma_gof.statistic,
            gamma_gof.p_value,
            expo_gof.statistic,
            expo_gof.p_value
        );
        // The correction is a one-way ratchet: estimating parameters
        // from the sample can only make the test *harder* to pass, so
        // the bootstrap p can exceed the optimistic fixed-CDF bound by
        // at most Monte-Carlo noise.
        let optimistic = gamma.goodness_of_fit(&lower).unwrap();
        assert!(
            gamma_gof.p_value <= optimistic.p_value + 0.1,
            "{}: bootstrap p {} more lenient than the optimistic bound {}",
            synth.label,
            gamma_gof.p_value,
            optimistic.p_value
        );
        // Pinned seed ⇒ bit-identical p-values run-to-run (the property
        // the CI statistical job relies on).
        let rerun = ks_gamma_fit(&lower, 99, stats_seed()).unwrap();
        assert_eq!(
            rerun.p_value, gamma_gof.p_value,
            "{}: bootstrap must be deterministic in the seed",
            synth.label
        );
        // The MLE gamma can never fit worse than a fixed-shape-1 gamma
        // family member fitted by the same moments — sanity bound only,
        // exact distances are recorded in EXPERIMENTS.md.
        assert!(
            gamma_gof.statistic <= expo_gof.statistic + 0.05,
            "{}: gamma (D={}) much worse than its shape-1 special case (D={})",
            synth.label,
            gamma_gof.statistic,
            expo_gof.statistic
        );
    }
}
