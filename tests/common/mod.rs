//! Shared helpers for the statistical validation suites: building
//! synthetic spaces and collecting sampling frequency spectra — plus
//! the independent oracles the differential suites compare the product
//! against: the recursive count, the recursive unranker, the
//! per-expression best-plan recursion and the subset walk's exploration.

#![allow(dead_code)] // each test binary uses a different subset

use plansample::PlanSpace;
use plansample_bignum::Nat;
use plansample_catalog::Catalog;
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_memo::{
    eligible_children, DenseId, GroupId, GroupKey, LogicalOp, Memo, PhysId, PhysicalExpr,
    PhysicalOp, PlanNode,
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

// ---------------------------------------------------------------------
// The join-graph witness
// ---------------------------------------------------------------------
//
// A count taken from the join graph alone — no memo, links or counts:
// the ordered bushy join trees without cross products, by a dynamic
// program over connected relation subsets (the spanning-tree view of
// join enumeration). Commuted joins are counted apart, as the memo
// keeps both.

/// The ordered bushy join trees without cross products over relations
/// `0..n` joined by `edges`: a single relation is one tree, and a larger
/// connected set the sum, over its ordered splits into two connected
/// halves some edge joins, of the product of the halves' trees.
pub fn bushy_join_trees(n: usize, edges: &[(usize, usize)]) -> u128 {
    assert!((1..32).contains(&n), "one bit per relation");
    let mut adjacent = vec![0u32; n];
    for &(a, b) in edges {
        adjacent[a] |= 1 << b;
        adjacent[b] |= 1 << a;
    }
    let connected = |set: u32| {
        let mut reached = set & set.wrapping_neg();
        loop {
            let grown = reached | reached_from(&adjacent, reached) & set;
            if grown == reached {
                return reached == set;
            }
            reached = grown;
        }
    };
    let full = (1u32 << n) - 1;
    let mut trees = vec![0u128; full as usize + 1];
    for set in 1..=full {
        if set.count_ones() == 1 {
            trees[set as usize] = 1;
            continue;
        }
        if !connected(set) {
            continue;
        }
        // Every proper non-empty subset as the left half, ascending
        // below `set`; halves that are not connected have no trees.
        let mut left = (set - 1) & set;
        while left != 0 {
            let right = set & !left;
            if reached_from(&adjacent, left) & right != 0 {
                trees[set as usize] += trees[left as usize] * trees[right as usize];
            }
            left = (left - 1) & set;
        }
    }
    trees[full as usize]
}

/// The relations adjacent to some member of `set`.
fn reached_from(adjacent: &[u32], set: u32) -> u32 {
    (0..adjacent.len())
        .filter(|&r| set >> r & 1 == 1)
        .fold(0, |reached, r| reached | adjacent[r])
}

// ---------------------------------------------------------------------
// The reference exploration
// ---------------------------------------------------------------------
//
// The optimizer's bottom-up exploration as it ran before it enumerated
// connected pairs: every mask of every size, and every split of each
// kept set, each half tested for connectivity and the cut for a
// crossing edge. It fixes the order the product must emit — groups in
// (size, mask) order, each group's joins in `RelSet::splits` order,
// `Join(L, R)` then `Join(R, L)` — and visits 2ⁿ masks and up to 3ⁿ
// halves to do it.

/// The subset walk's memo of `query`: scan groups, then every
/// admissible split of every subset in size order, then the aggregate
/// group if the query has one.
pub fn explore_by_subsets(query: &QuerySpec, allow_cp: bool, memo: &mut Memo) {
    let n = query.relations.len();
    let scans: Vec<GroupId> = (0..n)
        .map(|i| {
            let rel = RelId(i as u32);
            let g = memo.add_group(GroupKey::Rels(RelSet::singleton(rel)));
            memo.add_logical(g, LogicalOp::Scan { rel });
            g
        })
        .collect();
    let finish_root = |memo: &mut Memo, join_root: GroupId| {
        if query.aggregate.is_some() {
            let agg = memo.add_group(GroupKey::Agg);
            memo.add_logical(agg, LogicalOp::Agg { input: join_root });
            memo.set_root(agg);
        } else {
            memo.set_root(join_root);
        }
    };
    if n == 1 {
        finish_root(memo, scans[0]);
        return;
    }

    let mut adj = vec![0u64; n];
    for edge in &query.join_edges {
        let (a, b) = edge.rels();
        adj[a.idx()] |= 1 << b.0;
        adj[b.idx()] |= 1 << a.0;
    }
    let connected = |set: RelSet| {
        let mask = set.mask();
        let mut seen = mask & mask.wrapping_neg();
        let mut frontier = seen;
        while frontier != 0 {
            let grown = adj[frontier.trailing_zeros() as usize] & mask & !seen;
            frontier &= frontier - 1;
            seen |= grown;
            frontier |= grown;
        }
        mask != 0 && seen == mask
    };
    let split_admissible = |left: RelSet, right: RelSet| {
        allow_cp
            || (connected(left)
                && connected(right)
                && query.join_edges.iter().any(|e| e.crosses(left, right)))
    };

    let full: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    for size in 2..=n as u32 {
        for mask in (1..=full).filter(|m| m.count_ones() == size) {
            let set = RelSet::from_iter(
                (0..n)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| RelId(i as u32)),
            );
            if !allow_cp && !connected(set) {
                continue;
            }
            for (l, r) in set.splits() {
                if !split_admissible(l, r) {
                    continue;
                }
                let gl = memo.find_group(GroupKey::Rels(l)).unwrap();
                let gr = memo.find_group(GroupKey::Rels(r)).unwrap();
                let g = memo.add_group(GroupKey::Rels(set));
                memo.add_logical(
                    g,
                    LogicalOp::Join {
                        left: gl,
                        right: gr,
                    },
                );
                memo.add_logical(
                    g,
                    LogicalOp::Join {
                        left: gr,
                        right: gl,
                    },
                );
            }
        }
    }

    let root = memo
        .find_group(GroupKey::Rels(RelSet::all(n)))
        .expect("connected query produces a full-set group");
    finish_root(memo, root);
}

/// A random connected join graph over `n` relations: a random spanning
/// tree over shuffled labels, plus each remaining pair with a density
/// drawn from {0, 0.1, …, 1} and scaled by `max_density`. The catalog
/// is the `n`-chain's of the same seed.
pub fn random_connected_query(n: usize, seed: u64, max_density: f64) -> QuerySpec {
    use rand::{Rng, SeedableRng};
    let (catalog, _) = JoinGraphSpec::new(Topology::Chain, n, seed).build();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut label: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        label.swap(i, rng.gen_range(0..=i));
    }
    let mut pairs: Vec<(usize, usize)> = (1..n)
        .map(|i| (label[rng.gen_range(0..i)], label[i]))
        .collect();
    let density = f64::from(rng.gen_range(0u32..=10)) / 10.0 * max_density;
    for a in 0..n {
        for b in a + 1..n {
            let known = pairs.contains(&(a, b)) || pairs.contains(&(b, a));
            if !known && rng.gen_bool(density) {
                pairs.push((a, b));
            }
        }
    }
    let mut qb = QueryBuilder::new(&catalog);
    for i in 0..n {
        qb.rel(&format!("r{i}"), None).unwrap();
    }
    for (a, b) in pairs {
        qb.join((&format!("r{a}"), "k"), (&format!("r{b}"), "k"))
            .unwrap();
    }
    qb.build().unwrap()
}

/// A hand-built space whose root list total is exactly `2^bits − 1`,
/// for `bits` from 6 to 129 (see [`ladder`]). At 64 bits the largest
/// count in the space is exactly `u64::MAX`, at 128 exactly
/// `u128::MAX` — the last spaces of their tiers.
pub fn all_ones_ladder(bits: usize) -> PlanSpace {
    ladder(bits, false).0
}

/// [`all_ones_ladder`]'s aggregate group cut off from the root, a dead
/// sibling of the root group: the root is the one-scan group `{1}`, so
/// the space total is 1, while the returned expression — a Sort in the
/// aggregate group, over aggregates summing to `2^bits − 2` — roots
/// `2^bits − 2` plans. "The total fits" says nothing about the tier;
/// the rooted sub-space API reaches it.
pub fn dead_sibling_ladder(bits: usize) -> (PlanSpace, PhysId) {
    ladder(bits, true)
}

/// Aggregates summing to `2^bits − 1`, or `2^bits − 2` beside a Sort
/// over them, in a memo of an optimizer's shape. Relation `k`'s group
/// `{k}` holds one scan, but `{0}` holds `c` — its table scan and
/// `c − 1` index scans — and the chain group `{0, …, k}` holds the four
/// joins of `{0, …, k − 1}` and `{k}` (hash and nested loop, each way
/// round), so it roots `c·4^k` plans. The aggregate group holds a hash
/// aggregate over each of the chain groups `{0, …, k}`, `k < K =
/// bits / 2`, which sum to `c·(4^K − 1)/3`: `2^bits − 1` for `c = 3`
/// and even `bits`, `2^bits − 2` for `c = 6` and odd `bits`. What is
/// missing is made up by one more aggregate over `{1, 2}`, holding one
/// or two joins of `{1}` and `{2}`; for `2^bits − 2` and even `bits`
/// the aggregate over `{0}` is dropped and two are added.
fn ladder(bits: usize, dead_sibling_root: bool) -> (PlanSpace, PhysId) {
    assert!((6..=129).contains(&bits), "{bits} bits");
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

    let (chain, c) = (bits / 2, if bits % 2 == 0 { 3 } else { 6 });
    let below = if dead_sibling_root { 2 } else { 1 };
    // 2^bits minus what the chain groups' aggregates leave out of it.
    let (first, extra) = match (1 + bits % 2) as i32 - below {
        -1 => (1, 2), // even bits, 2^bits − 2: drop the 3 of `{0}`
        extra => (0, extra as usize),
    };

    // Hash and nested-loop joins and scans demand no order, so only
    // `{0}`'s index scans and the Sort consult the query.
    let expr = |op| PhysicalExpr::new(op, 1.0, 1.0);
    let joins = |left, right| {
        [
            PhysicalOp::HashJoin { left, right },
            PhysicalOp::HashJoin {
                left: right,
                right: left,
            },
            PhysicalOp::NestedLoopJoin { left, right },
            PhysicalOp::NestedLoopJoin {
                left: right,
                right: left,
            },
        ]
    };
    let mut memo = Memo::new();
    let rels: Vec<GroupId> = (0..chain as u32)
        .map(|rel| memo.add_group(GroupKey::Rels(RelSet::singleton(RelId(rel)))))
        .collect();
    let mut tops = vec![rels[0]];
    for k in 1..chain {
        tops.push(memo.add_group(GroupKey::Rels(RelSet::all(k + 1))));
    }
    let pair = memo.add_group(GroupKey::Rels(RelSet::from_iter([RelId(1), RelId(2)])));
    let aggregate = memo.add_group(GroupKey::Agg);
    for (rel, &group) in rels.iter().enumerate() {
        let rel = RelId(rel as u32);
        let indexes = (1..if rel.0 == 0 { c } else { 1 }).map(|col| PhysicalOp::SortedIdxScan {
            rel,
            col: plansample_query::ColRef {
                rel,
                col: col as u32,
            },
        });
        let scans = std::iter::once(PhysicalOp::TableScan { rel }).chain(indexes);
        memo.append_physical(group, scans.map(expr).collect());
    }
    for k in 1..chain {
        memo.append_physical(tops[k], joins(tops[k - 1], rels[k]).map(expr).into());
    }
    memo.append_physical(
        pair,
        joins(rels[1], rels[2])[..extra]
            .iter()
            .cloned()
            .map(expr)
            .collect(),
    );
    let over = |input| expr(PhysicalOp::HashAgg { input });
    let mut aggregates: Vec<PhysicalExpr> = tops[first..].iter().map(|&top| over(top)).collect();
    if extra > 0 {
        aggregates.push(over(pair));
    }
    memo.append_physical(aggregate, aggregates);
    let mut big = None;
    if dead_sibling_root {
        let target = plansample_memo::SortOrder::on_col(plansample_query::ColRef {
            rel: RelId(0),
            col: 0,
        });
        big = memo.add_physical(aggregate, expr(PhysicalOp::Sort { target }));
        memo.set_root(rels[1]);
    } else {
        memo.set_root(aggregate);
    }
    let space = PlanSpace::build(&memo, &query).expect("the ladder's lists are small");
    (
        space,
        big.unwrap_or(PhysId {
            group: aggregate,
            index: 0,
        }),
    )
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

/// Skips a release-only case with a notice in a debug build; returns
/// `true` to proceed.
pub fn release_only(name: &str) -> bool {
    if cfg!(debug_assertions) {
        eprintln!("{name}: skipped in a debug build");
        return false;
    }
    true
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
