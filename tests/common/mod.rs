//! Shared helpers for the statistical validation suites: building
//! synthetic spaces and collecting sampling frequency spectra — plus
//! the independent oracles the differential suites compare the product
//! against: the recursive count, the recursive unranker and the
//! per-expression best-plan recursion.

#![allow(dead_code)] // each test binary uses a different subset

use plansample::PlanSpace;
use plansample_bignum::Nat;
use plansample_catalog::Catalog;
use plansample_datagen::joingraph::JoinGraphSpec;
use plansample_memo::{
    eligible_children, DenseId, GroupKey, Memo, PhysId, PhysicalExpr, PhysicalOp, PlanNode,
};
use plansample_optimizer::{optimize, OptimizerConfig};
use plansample_query::{QueryBuilder, QuerySpec, RelId, RelSet};
use rand::rngs::StdRng;

// ---------------------------------------------------------------------
// The reference count
// ---------------------------------------------------------------------
//
// §3.2 transcribed literally — one memoised recursion per expression,
// one `eligible_children` scan per expression slot, exact `Nat`
// arithmetic throughout — against nothing but the memo. It shares no
// code with the scan that interns the link lists or the word-generic
// fold that counts over them, so "product equals reference" checks the
// counts, and the tier they chose, independently.

/// `N(v)` of every expression, `[group][index]`, and every alternative
/// total the count reads: each expression slot's `b` (the sum over its
/// eligible children) and the root group's `N`.
pub fn reference_count_rooted(memo: &Memo, query: &QuerySpec) -> (Vec<Vec<Nat>>, Vec<Nat>) {
    let mut cache: Vec<Vec<Option<Nat>>> = memo
        .groups()
        .map(|g| vec![None; g.physical.len()])
        .collect();
    let mut totals = Vec::new();
    for group in memo.groups() {
        for (id, _) in group.phys_iter() {
            reference_count_rec(memo, query, id, &mut cache, &mut totals);
        }
    }
    let rooted: Vec<Vec<Nat>> = cache
        .into_iter()
        .map(|g| g.into_iter().map(|n| n.expect("all visited")).collect())
        .collect();
    totals.push(rooted[memo.root().0 as usize].iter().cloned().sum());
    (rooted, totals)
}

fn reference_count_rec(
    memo: &Memo,
    query: &QuerySpec,
    id: PhysId,
    cache: &mut [Vec<Option<Nat>>],
    totals: &mut Vec<Nat>,
) -> Nat {
    if let Some(n) = &cache[id.group.0 as usize][id.index] {
        return n.clone();
    }
    let mut n = Nat::one(); // |v| = 0 ⇒ N(v) = 1
    for slot in memo.phys(id).child_slots(id.group) {
        let b: Nat = eligible_children(memo, query, &slot)
            .into_iter()
            .map(|child| reference_count_rec(memo, query, child, cache, totals))
            .sum();
        n = &n * &b;
        totals.push(b);
    }
    cache[id.group.0 as usize][id.index] = Some(n.clone());
    n
}

// ---------------------------------------------------------------------
// The reference unranker
// ---------------------------------------------------------------------
//
// The paper's §3.3 procedure transcribed literally — recursive, exact
// `Nat` arithmetic, one `PlanNode` per call — against nothing but the
// public `Links` lists and the `Counts` `Nat` views. It shares no code
// with `plansample`'s iterative word-generic unranker, so "product
// equals reference" is a real differential check on every tier.

/// Plan number `rank` of the whole space.
pub fn reference_unrank(space: &PlanSpace, rank: &Nat) -> PlanNode {
    assert!(rank < space.total(), "reference rank out of range");
    let root = space.links().root_list();
    reference_unrank_in(space, space.links().list(root), rank.clone())
}

/// Plan number `rank` of the sub-space rooted at `v`.
pub fn reference_unrank_rooted(space: &PlanSpace, v: PhysId, rank: &Nat) -> PlanNode {
    assert!(rank < &space.count_rooted(v), "reference rank out of range");
    reference_unrank_expr(space, space.links().ids().dense(v), rank.clone())
}

/// Step 1: operator selection by prefix sums over the alternatives.
fn reference_unrank_in(space: &PlanSpace, alternatives: &[DenseId], mut rank: Nat) -> PlanNode {
    for &v in alternatives {
        let n = space.counts().rooted(v);
        if rank < n {
            return reference_unrank_expr(space, v, rank);
        }
        rank -= &n;
    }
    unreachable!("rank below the alternative total by construction")
}

/// Steps 2–3: mixed-radix sub-ranks, one recursive call per slot.
fn reference_unrank_expr(space: &PlanSpace, v: DenseId, local_rank: Nat) -> PlanNode {
    let mut rest = local_rank;
    let children = space
        .links()
        .slot_lists(v)
        .iter()
        .map(|&l| {
            let (q, s) = rest.div_rem(&space.counts().list_total(l));
            rest = q;
            reference_unrank_in(space, space.links().list(l), s)
        })
        .collect();
    assert!(rest.is_zero(), "local rank exceeded B_v(|v|)");
    PlanNode {
        id: space.links().ids().phys(v),
        children,
    }
}

/// `k` reference plans at the ranks `Nat::random_below` draws from
/// `seed` — what every sampler of the product must reproduce from the
/// same seed, on every tier and at every thread count.
pub fn reference_sample_batch(space: &PlanSpace, seed: u64, k: usize) -> Vec<PlanNode> {
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..k)
        .map(|_| reference_unrank(space, &Nat::random_below(&mut rng, space.total())))
        .collect()
}

// ---------------------------------------------------------------------
// The reference best-plan extraction
// ---------------------------------------------------------------------
//
// The optimizer's dynamic program as it ran before it was memoised per
// distinct child slot: one recursion per *expression*, one
// `eligible_children` scan per expression *slot* (43 651 on Q8+CP, where
// the product decides 2 049 distinct slots, a class at a time). Same
// operand order — `local + Σ slots`, each slot folded in group order —
// so "product equals reference" is asserted on the bits.

/// Total cost of every expression, `[group][index]`.
pub fn reference_totals(memo: &Memo, query: &QuerySpec) -> Vec<Vec<f64>> {
    let mut cache: Vec<Vec<Option<f64>>> = memo
        .groups()
        .map(|g| vec![None; g.physical.len()])
        .collect();
    for group in memo.groups() {
        for (id, _) in group.phys_iter() {
            reference_total_rec(memo, query, id, &mut cache);
        }
    }
    cache
        .into_iter()
        .map(|g| g.into_iter().map(|c| c.expect("all visited")).collect())
        .collect()
}

fn reference_total_rec(
    memo: &Memo,
    query: &QuerySpec,
    id: PhysId,
    cache: &mut [Vec<Option<f64>>],
) -> f64 {
    if let Some(c) = cache[id.group.0 as usize][id.index] {
        return c;
    }
    let expr = memo.phys(id);
    let mut total = expr.local_cost;
    for slot in expr.child_slots(id.group) {
        total += eligible_children(memo, query, &slot)
            .into_iter()
            .map(|child| reference_total_rec(memo, query, child, cache))
            .fold(f64::INFINITY, f64::min);
    }
    cache[id.group.0 as usize][id.index] = Some(total);
    total
}

/// The cheapest root expression with its argmin children expanded, the
/// first minimum winning at every step, and its total.
pub fn reference_best_plan(
    memo: &Memo,
    query: &QuerySpec,
    totals: &[Vec<f64>],
) -> Option<(PlanNode, f64)> {
    let total = |id: PhysId| totals[id.group.0 as usize][id.index];
    fn expand(
        memo: &Memo,
        query: &QuerySpec,
        total: &dyn Fn(PhysId) -> f64,
        id: PhysId,
    ) -> PlanNode {
        let children = memo
            .phys(id)
            .child_slots(id.group)
            .iter()
            .map(|slot| {
                let child = eligible_children(memo, query, slot)
                    .into_iter()
                    .min_by(|a, b| total(*a).total_cmp(&total(*b)))
                    .expect("finite-cost parent implies satisfiable slots");
                expand(memo, query, total, child)
            })
            .collect();
        PlanNode { id, children }
    }
    let best = memo
        .group(memo.root())
        .phys_iter()
        .map(|(id, _)| id)
        .filter(|&id| total(id).is_finite())
        .min_by(|a, b| total(*a).total_cmp(&total(*b)))?;
    Some((expand(memo, query, &total, best), total(best)))
}

/// A hand-built space whose root list total is exactly `2^levels − 1`:
/// group `G_1` holds one scan, and `G_{k+1}` holds a hash join of `G_k`
/// with a two-scan group (`2·n_k` plans) plus one scan, so
/// `n_{k+1} = 2·n_k + 1`. At 64 levels the largest count in the space
/// is exactly `u64::MAX`, at 128 exactly `u128::MAX` — the last spaces
/// of their tiers. The root list has two members; the join is first.
pub fn all_ones_ladder(levels: usize) -> PlanSpace {
    ladder(levels, false).0
}

/// [`all_ones_ladder`] demoted to a non-root group: the root group
/// holds a hash join of the ladder's top group with an *empty* group —
/// a dead sibling slot, which zeroes the product — plus one scan, so
/// the space total is 1 while the returned interior expression (the
/// ladder's top join) roots `2^levels − 2` plans. "The total fits"
/// says nothing about the tier; the rooted sub-space API reaches it.
pub fn dead_sibling_ladder(levels: usize) -> (PlanSpace, PhysId) {
    ladder(levels, true)
}

fn ladder(levels: usize, dead_sibling_root: bool) -> (PlanSpace, PhysId) {
    assert!(levels >= 2, "a ladder needs at least one join");
    let mut catalog = Catalog::new();
    catalog
        .add_table(
            plansample_catalog::table("t", 1)
                .col("k", plansample_catalog::ColType::Int, 1)
                .build(),
        )
        .unwrap();
    let mut qb = QueryBuilder::new(&catalog);
    qb.rel("t", None).unwrap();
    let query = qb.build().unwrap();

    // Group keys only need to be distinct; scans only need distinct
    // `rel`s within a group. Hash joins and scans demand no order, so
    // nothing here consults the query.
    let mut memo = Memo::new();
    let mut next_key = 0u64;
    let mut group = |memo: &mut Memo| {
        next_key += 1;
        let mut set = RelSet::singleton(RelId(63));
        (0..63)
            .filter(|bit| next_key >> bit & 1 == 1)
            .for_each(|bit| set.insert(RelId(bit)));
        memo.add_group(GroupKey::Rels(set))
    };
    let scan = |rel| PhysicalExpr::new(PhysicalOp::TableScan { rel: RelId(rel) }, 1.0, 1.0);
    let join = |left, right| PhysicalExpr::new(PhysicalOp::HashJoin { left, right }, 1.0, 1.0);
    let two = group(&mut memo);
    memo.add_physical(two, scan(0)).unwrap();
    memo.add_physical(two, scan(1)).unwrap();
    let mut top = group(&mut memo);
    memo.add_physical(top, scan(0)).unwrap();
    let mut top_join = None;
    for _ in 1..levels {
        let next = group(&mut memo);
        top_join = memo.add_physical(next, join(top, two));
        memo.add_physical(next, scan(0)).unwrap();
        top = next;
    }
    if dead_sibling_root {
        let empty = group(&mut memo);
        let root = group(&mut memo);
        memo.add_physical(root, join(top, empty)).unwrap();
        memo.add_physical(root, scan(0)).unwrap();
        top = root;
    }
    memo.set_root(top);
    let space = PlanSpace::build(&memo, &query).expect("ladder is acyclic");
    (space, top_join.expect("levels >= 2"))
}

/// A synthetic join-graph query optimized into a memo, with the plan
/// space built exactly once (the expensive counting pass is shared by
/// every measurement on the fixture). The memo lives solely inside the
/// space's `Arc` — no second copy.
pub struct SynthSpace {
    pub catalog: Catalog,
    pub query: QuerySpec,
    pub best_cost: f64,
    pub label: String,
    space: PlanSpace,
}

impl SynthSpace {
    /// Generates, optimizes, and wraps the spec's query.
    pub fn build(spec: JoinGraphSpec) -> SynthSpace {
        let (catalog, query) = spec.build();
        let optimized = optimize(&catalog, &query, &OptimizerConfig::default())
            .expect("synthetic queries optimize");
        let space = PlanSpace::build_shared(
            std::sync::Arc::new(optimized.memo),
            std::sync::Arc::new(query.clone()),
        )
        .expect("optimizer memos are acyclic");
        SynthSpace {
            catalog,
            query,
            best_cost: optimized.best_cost,
            label: spec.label(),
            space,
        }
    }

    /// The optimized memo (owned by the shared plan space).
    pub fn memo(&self) -> &Memo {
        self.space.memo()
    }

    /// The plan space over this memo, built once at fixture
    /// construction.
    pub fn space(&self) -> &PlanSpace {
        &self.space
    }
}

/// Which sampler to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sampler {
    /// The paper's rank-based uniform sampler.
    Unranking,
    /// The biased uniform-per-step random walk baseline.
    NaiveWalk,
}

/// Draws `draws` plans and tallies them per exact rank. Only for spaces
/// whose total fits comfortably in memory as one bucket per plan.
pub fn rank_spectrum(
    space: &PlanSpace,
    sampler: Sampler,
    draws: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    let n = space
        .total()
        .to_u64()
        .expect("per-rank spectrum needs a u64-sized space") as usize;
    let mut freq = vec![0usize; n];
    for _ in 0..draws {
        let rank = sample_rank(space, sampler, rng);
        freq[rank.to_u64().unwrap() as usize] += 1;
    }
    freq
}

/// One draw through the full sampler pipeline: both arms materialize a
/// plan and rank it back, so `random_below`, `unrank`, and `rank` are
/// all exercised (not just the RNG).
fn sample_rank(space: &PlanSpace, sampler: Sampler, rng: &mut StdRng) -> Nat {
    let plan = match sampler {
        Sampler::Unranking => space.sample(rng),
        Sampler::NaiveWalk => space.sample_naive_walk(rng).expect("complete space"),
    };
    space.rank(&plan).expect("sampled plans are members")
}

/// Draws `draws` plans and tallies them into `buckets` equal rank
/// intervals — the scalable spectrum for spaces too large to tally per
/// plan (uniform ranks stay uniform over equal rank intervals).
pub fn bucket_spectrum(
    space: &PlanSpace,
    sampler: Sampler,
    buckets: usize,
    draws: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    let mut freq = vec![0usize; buckets];
    let b = Nat::from(buckets);
    for _ in 0..draws {
        let rank = sample_rank(space, sampler, rng);
        let (bucket, _) = (&rank * &b).div_rem(space.total());
        freq[bucket.to_u64().expect("bucket < buckets") as usize] += 1;
    }
    freq
}

/// Picks sub-space roots for uniformity tests: up to two physical
/// expressions from the memo's root group plus one from an interior
/// (non-root) join group, all with rooted counts inside `range`.
pub fn pick_subspace_roots(
    memo: &Memo,
    space: &PlanSpace,
    n_rels: usize,
    range: std::ops::RangeInclusive<u64>,
) -> Vec<plansample_memo::PhysId> {
    use plansample_memo::GroupId;
    let in_range = |id: plansample_memo::PhysId| {
        space
            .count_rooted(id)
            .to_u64()
            .is_some_and(|c| range.contains(&c))
    };
    let mut roots: Vec<_> = memo
        .group(memo.root())
        .phys_iter()
        .map(|(id, _)| id)
        .filter(|&id| in_range(id))
        .take(2)
        .collect();
    let interior = (0..memo.num_groups() as u32)
        .map(GroupId)
        .filter(|&g| g != memo.root())
        .filter(|&g| {
            memo.group(g)
                .key
                .rels()
                .is_some_and(|s| s.len() >= 2 && s.len() < n_rels)
        })
        .flat_map(|g| memo.group(g).phys_iter().map(|(id, _)| id))
        .find(|&id| in_range(id));
    roots.extend(interior);
    roots
}

/// Per-local-rank spectrum of the sub-space rooted at `v` under
/// `sample_rooted`.
pub fn rooted_spectrum(
    space: &PlanSpace,
    v: plansample_memo::PhysId,
    draws: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    let n = space
        .count_rooted(v)
        .to_u64()
        .expect("per-rank spectrum needs a u64-sized sub-space") as usize;
    let mut freq = vec![0usize; n];
    for _ in 0..draws {
        let plan = space.sample_rooted(rng, v);
        assert_eq!(plan.id, v, "sub-space root is pinned");
        let r = space.rank_rooted(&plan).expect("rooted plans rank");
        freq[r.to_u64().unwrap() as usize] += 1;
    }
    freq
}

/// Scaled plan costs (optimum = 1.0) for `draws` uniform samples.
/// Takes the caller's already-built `space` — `PlanSpace::build` is the
/// expensive step on large memos, so it must not be repeated per call.
pub fn sampled_scaled_costs(
    synth: &SynthSpace,
    space: &PlanSpace,
    draws: usize,
    rng: &mut StdRng,
) -> Vec<f64> {
    (0..draws)
        .map(|_| space.sample(rng).total_cost(synth.memo()) / synth.best_cost)
        .collect()
}

/// The fixed seed for the statistical suites, overridable via
/// `PLANSAMPLE_STATS_SEED` (the CI statistical-tests job pins it).
pub fn stats_seed() -> u64 {
    std::env::var("PLANSAMPLE_STATS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20000)
}

/// Derives a per-test rng so suites stay independent of test ordering.
pub fn seeded_rng(salt: u64) -> StdRng {
    use rand::SeedableRng;
    StdRng::seed_from_u64(stats_seed() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `true` when the slow statistical suites should run: the
/// `PLANSAMPLE_STATISTICAL` environment variable is set non-empty and
/// not `"0"` (the dedicated CI job sets it; tier-1 `cargo test` skips).
pub fn statistical_enabled() -> bool {
    std::env::var("PLANSAMPLE_STATISTICAL").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Standard skip preamble for gated tests; returns `true` to proceed.
pub fn gate(test: &str) -> bool {
    if statistical_enabled() {
        true
    } else {
        eprintln!("{test}: skipped (set PLANSAMPLE_STATISTICAL=1 to run)");
        false
    }
}
