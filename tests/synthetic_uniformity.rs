//! Statistical validation of the samplers on *synthetic* join-graph
//! spaces — chain, star, and cycle topologies the TPC-H workload never
//! exercises. For each space the chi-square uniformity test must accept
//! the rank-based sampler and reject the naive random walk, the walk's
//! bias must be *large* as an effect size (not merely detectable), and
//! sub-space sampling must be uniform within its slice.
//!
//! These run in tier-1 `cargo test`; the slower, larger-space sweeps
//! (including multi-limb counts) live in `tests/statistical.rs` behind
//! `PLANSAMPLE_STATISTICAL=1`.

mod common;

use common::{
    pick_subspace_roots, rank_spectrum, reference_unrank_rooted, rooted_spectrum, seeded_rng,
    Sampler, SynthSpace,
};
use plansample_bignum::Nat;
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_stats::{chi_square_uniform, ks_test, ks_test_two_sample};

/// The three fast fixtures: every topology shape at 3 relations, whose
/// spaces (≈1k–4k plans) allow an exact per-rank spectrum.
fn fixtures() -> Vec<SynthSpace> {
    [Topology::Chain, Topology::Star, Topology::Cycle]
        .into_iter()
        .map(|t| SynthSpace::build(JoinGraphSpec::new(t, 3, 42)))
        .collect()
}

#[test]
fn unranking_sampler_is_uniform_on_every_topology() {
    for synth in fixtures() {
        let space = synth.space();
        let n = space.total().to_u64().unwrap() as usize;
        let mut rng = seeded_rng(1);
        let freq = rank_spectrum(space, Sampler::Unranking, 8 * n, &mut rng);
        let test = chi_square_uniform(&freq).unwrap();
        assert!(
            !test.rejects_at(0.001),
            "{}: uniformity rejected: {test}",
            synth.label
        );
    }
}

#[test]
fn naive_walk_is_rejected_with_a_large_effect_size_on_every_topology() {
    for synth in fixtures() {
        let space = synth.space();
        let n = space.total().to_u64().unwrap() as usize;
        let mut rng = seeded_rng(2);
        let naive =
            chi_square_uniform(&rank_spectrum(space, Sampler::NaiveWalk, 8 * n, &mut rng)).unwrap();
        assert!(
            naive.rejects_at(1e-6),
            "{}: naive walk passed uniformity: {naive}",
            synth.label
        );
        // Rejection alone could be a powerful test detecting a trivial
        // bias; Cohen's w ≥ 0.5 certifies the bias is *large*.
        assert!(
            naive.effect_size() > 0.5,
            "{}: naive-walk bias w = {} is not a large effect",
            synth.label,
            naive.effect_size()
        );
        // The statistic must clear the rejection threshold by orders of
        // magnitude, not scrape past it.
        let crit = naive.critical_value(0.001);
        assert!(
            naive.statistic > 5.0 * crit,
            "{}: chi2 {} barely exceeds critical {crit}",
            synth.label,
            naive.statistic
        );
    }
}

/// Satellite: sub-space uniformity via `sample_rooted`/`rank_rooted`,
/// covering physical roots in the memo's root group *and* an interior
/// (non-root) join group.
#[test]
fn rooted_subspace_sampling_is_uniform_at_root_and_interior_roots() {
    for synth in fixtures() {
        let space = synth.space();

        // 2 roots from the root group + 1 from an interior join group.
        let roots =
            pick_subspace_roots(synth.memo(), space, synth.query.relations.len(), 6..=20_000);
        assert!(
            roots.len() >= 3,
            "{}: expected 2 root-group + 1 interior sub-space roots, got {}",
            synth.label,
            roots.len()
        );

        for v in roots {
            let count = space.count_rooted(v).to_u64().unwrap() as usize;
            let mut rng = seeded_rng(3 + v.index as u64);
            let freq = rooted_spectrum(space, v, 8 * count, &mut rng);
            let test = chi_square_uniform(&freq).unwrap();
            assert!(
                !test.rejects_at(0.001),
                "{}: sub-space at {v} ({count} plans) not uniform: {test}",
                synth.label
            );
        }
    }
}

#[test]
fn rooted_unranking_covers_exactly_the_subspace() {
    let synth = SynthSpace::build(JoinGraphSpec::new(Topology::Star, 3, 42));
    let space = synth.space();
    let (v, _) = synth
        .memo()
        .group(synth.memo().root())
        .phys_iter()
        .find(|(id, _)| {
            space
                .count_rooted(*id)
                .to_u64()
                .is_some_and(|c| (2..=2_000).contains(&c))
        })
        .expect("a modest sub-space exists");
    let count = space.count_rooted(v).to_u64().unwrap();
    let mut seen = std::collections::HashSet::new();
    for r in 0..count {
        let plan = space.unrank_rooted(v, &Nat::from(r)).unwrap();
        assert_eq!(plan, reference_unrank_rooted(space, v, &Nat::from(r)));
        assert_eq!(plan.id, v, "sub-space root is pinned");
        assert_eq!(space.rank_rooted(&plan).unwrap(), Nat::from(r));
        assert!(seen.insert(format!("{:?}", plan.preorder_ids())));
    }
    assert!(space.unrank_rooted(v, &Nat::from(count)).is_err());
}

/// The sampled cost distribution must match the exhaustive one — the
/// end-to-end guarantee behind Figure 4 (a sampler can be rank-uniform
/// yet feed a broken cost pipeline; KS closes that gap).
#[test]
fn sampled_costs_ks_match_exhaustive_enumeration() {
    let synth = SynthSpace::build(JoinGraphSpec::new(Topology::Chain, 3, 42));
    let space = synth.space();
    let exhaustive: Vec<f64> = space
        .enumerate()
        .map(|p| p.total_cost(synth.memo()) / synth.best_cost)
        .collect();
    assert_eq!(exhaustive.len() as u64, space.total().to_u64().unwrap());

    let mut rng = seeded_rng(4);
    let sampled = common::sampled_scaled_costs(&synth, space, 4_000, &mut rng);
    let test = ks_test_two_sample(&sampled, &exhaustive).unwrap();
    assert!(
        !test.rejects_at(0.001),
        "sampled costs diverge from exhaustive enumeration: {test}"
    );
}

/// KS view of the same bias the chi-square tests measure: uniform ranks
/// have a uniform CDF on [0, 1); the naive walk's do not.
#[test]
fn ks_on_scaled_ranks_separates_the_samplers() {
    let synth = SynthSpace::build(JoinGraphSpec::new(Topology::Cycle, 3, 42));
    let space = synth.space();
    let total = space.total().to_f64();
    let mut rng = seeded_rng(5);
    let draws = 10_000usize;

    let uniform_ranks: Vec<f64> = (0..draws)
        .map(|_| Nat::random_below(&mut rng, space.total()).to_f64() / total)
        .collect();
    let naive_ranks: Vec<f64> = (0..draws)
        .map(|_| {
            let plan = space.sample_naive_walk(&mut rng).expect("complete space");
            space.rank(&plan).unwrap().to_f64() / total
        })
        .collect();

    let uniform_cdf = |x: f64| x.clamp(0.0, 1.0);
    let accept = ks_test(&uniform_ranks, uniform_cdf).unwrap();
    let reject = ks_test(&naive_ranks, uniform_cdf).unwrap();
    assert!(
        !accept.rejects_at(0.001),
        "uniform ranks rejected: {accept}"
    );
    assert!(reject.rejects_at(1e-6), "naive ranks accepted: {reject}");
    assert!(
        reject.statistic > 2.0 * accept.statistic,
        "bias D {} vs null D {}",
        reject.statistic,
        accept.statistic
    );
}
