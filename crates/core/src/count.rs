//! §3.2 — Counting query plans.
//!
//! Bottom-up over the materialized links:
//!
//! ```text
//!   b_v(i) = Σ_j N(w_ij)            alternatives for child slot i
//!   B_v(k) = Π_{i≤k} b_v(i)         combined choices of the first k slots
//!   N(v)   = 1 if |v| = 0,  else B_v(|v|)
//!   N      = Σ_{v ∈ G_root} N(v)
//! ```
//!
//! Counts are exact: Table 1 of the paper reports spaces above
//! 4·10^12, and counts overflow any fixed-width integer as queries grow.
//! But exact integers are needed only once a space outgrows a machine
//! word, so the pass runs in the narrowest [`Word`] that can hold it —
//! `u64`, then `u128`, then [`Nat`] — and moves up a rung only when a
//! checked add or multiply overflows, resuming there with what it has
//! folded so far widened.
//!
//! The pass is an iterative walk over the topological order the links
//! keep (children before parents; the scan's, which the optimizer's cost
//! fold walks too), filling one flat table indexed by [`DenseId`] — no
//! recursion, no memo-cache clones, and no threads: the pass is a few
//! percent of a build (DESIGN §5), less than forking it costs. The
//! per-slot totals `b_v(i)` are computed once per *interned* alternative
//! list and kept ([`Counts::list_total`]), so unranking, ranking, and
//! sampling read them instead of re-summing alternatives on every
//! mixed-radix step. Each expression and each list entry is counted
//! exactly once, on whichever rung reaches it, and widened at most twice
//! — the paper's linear-time claim, measured by the tracked benchmark's
//! `core.count.compute_ms` row.
//!
//! Counts are never persisted. A plan-space artifact keeps the memo, and
//! a load scans it for its links and runs this same fold over them: the
//! fold is of the order of what reading and checking stored counts cost,
//! the file is smaller, and loaded counts are right by construction. A
//! stored memo needs no bound of its own: `Memo::from_parts` holds it to
//! an optimizer's shape, so a plan has at most `4r ≤ 256` operators, each
//! one of fewer than 2³² alternatives, and no count reaches 2⁸¹⁹².
//!
//! # One store, chosen once
//!
//! What a [`Counts`] keeps is a single store in the narrowest width that
//! holds every count — the tier ladder `u64` → `u128` → [`Nat`]
//! ([`CountTier`]) — and the whole rank machinery runs in that width.
//! The fold that found the width *is* the store: a fixed-width space
//! never builds a `Vec<Nat>`, and [`Counts::rooted`] /
//! [`Counts::list_total`] synthesise a [`Nat`] by value at the API edge.
//! Beside `N(v)` and `b` the store keeps, per interned list, the
//! inclusive running sums of its members' counts — §3.3's prefix sums,
//! written in one pass over the pool once the fold has found the width —
//! so choosing an operator is a binary search and not a scan
//! ([`TierCounts`]).

use crate::word::Word;
use crate::{Links, ListId};
use plansample_bignum::Nat;
use plansample_memo::{DenseId, MAX_SLOTS};

// `TierCounts::fold` picks the narrowest tier only while an expression
// has at most two slots (see there): a third slot must revisit it.
const _: () = assert!(MAX_SLOTS <= 2, "TierCounts::fold assumes at most two slots");

/// Exact plan counts for every expression plus the precomputed per-list
/// slot totals, held once, in the narrowest width that fits them all
/// (see the module docs), plus the space total as an exact [`Nat`].
#[derive(Debug, Clone)]
pub struct Counts {
    pub(crate) store: Store,
    /// `N`: the whole-space total (the root list's total, kept exact so
    /// [`Counts::total`] is a borrow on every tier).
    total: Nat,
}

/// The count tables of one tier.
#[derive(Debug, Clone)]
pub(crate) enum Store {
    U64(TierCounts<u64>),
    U128(TierCounts<u128>),
    Nat(TierCounts<Nat>),
}

/// Evaluates `$body` with `$c` bound to the `&TierCounts<W>` of
/// whichever tier `$counts` is stored in — the one place the rank
/// machinery goes from the tier tag to a concrete [`Word`].
macro_rules! with_tier {
    ($counts:expr, $c:ident => $body:expr) => {
        match &$counts.store {
            $crate::count::Store::U64($c) => $body,
            $crate::count::Store::U128($c) => $body,
            $crate::count::Store::Nat($c) => $body,
        }
    };
}
pub(crate) use with_tier;

/// Which width a space's counts are stored — and its rank arithmetic
/// runs — in: the tier ladder `u64` → `u128` → exact [`Nat`].
///
/// The tier is a property of the counts alone: [`CountTier::U64`] iff
/// every count fits one limb, [`CountTier::U128`] iff some count needs
/// two limbs but none needs three, [`CountTier::Nat`] otherwise. In
/// the synthetic suite: everything through Q8+CP is `U64`, clique-9
/// and clique-10 are `U128`, and only spaces past ~3.4·10³⁸ plans pay
/// the exact-arithmetic fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountTier {
    /// Every count fits one machine word: the fastest unranking path.
    U64,
    /// Every count fits two limbs; unranking runs in `u128`.
    U128,
    /// Some count needs three or more limbs; unranking is exact-`Nat`.
    Nat,
}

impl CountTier {
    /// Stable lower-case label (`"u64"` / `"u128"` / `"nat"`) — the
    /// value the benchmark artifacts and CLI output print.
    pub fn as_str(self) -> &'static str {
        match self {
            CountTier::U64 => "u64",
            CountTier::U128 => "u128",
            CountTier::Nat => "nat",
        }
    }
}

impl std::fmt::Display for CountTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The flat count tables in word `W`.
///
/// The tier criterion is all-or-nothing over **every** per-expression
/// count and list total. Per-value gating would be wrong in both
/// directions: a space whose total fits can still be probed at any
/// expression via the rooted sub-space API, and (because a sibling slot
/// with an *empty* list zeroes a parent product) an individual `N(v)`
/// can exceed the space total, so "total fits" does not imply "all
/// values fit".
///
/// `pool` is **pool-aligned**: `pool[i]` belongs to the expression at
/// position `i` of the links' concatenated list pool, and holds the
/// **inclusive running sum** of its own list up to and including that
/// member — §3.3's "prefix sums", stored. Operator selection over list
/// `l` is a binary search of the contiguous slice at
/// [`Links::list_range`] ([`Word::select`]); a member's own count is its
/// sum minus its predecessor's. A running sum is bounded by its list's
/// total, so it fits the tier's word whenever the totals do. Cost per
/// tier: one `W` per expression, per pooled link, and per interned list.
#[derive(Debug, Clone)]
pub(crate) struct TierCounts<W> {
    /// `N(v)` by dense id.
    per_expr: Vec<W>,
    /// `Σ_{j≤i} N(w_j)` within each list, aligned with the links pool.
    pool: Vec<W>,
    /// `b` of each interned alternative list (the slot totals): each
    /// list's last running sum, `0` for an empty list.
    list_totals: Vec<W>,
}

impl<W: Word> TierCounts<W> {
    /// §3.2's fold in `W`, from where `at` stopped, or the fold as far as
    /// it got as soon as a checked add or multiply overflows `W` —
    /// exactly when some `N(v)` or some list total does not fit `W`, so
    /// the first rung whose fold completes is the narrowest that holds
    /// every count. With at most [`MAX_SLOTS`] = 2 slots the product
    /// `1 · b₁ · b₂` overflows exactly when `N(v)` does. A third slot
    /// would break that: `b₁ · b₂` could overflow although `b₃ = 0`
    /// makes `N(v) = 0`, and the space would land a rung wider than its
    /// counts need.
    ///
    /// Children come before parents in `links.topo()`, so when an
    /// expression is reached every member of its slot lists is counted:
    /// a list's total `b` is summed the first time an expression reads
    /// it (interned lists are shared, so later readers find it done),
    /// the expression's count is the product of its slots' totals, and
    /// the root list — interned like any other, but possibly no
    /// expression's slot — is summed last. Every list is some slot's list
    /// or the root list, so every list is summed. Only then, on the rung
    /// that held every count, are the running sums written: a running
    /// sum never exceeds its list's total, so none of them can overflow,
    /// and a rung that fails never holds a pool.
    fn fold(links: &Links, mut at: Partial<W>) -> Result<Self, Partial<W>> {
        let topo = links.topo();
        for (i, &d) in topo.iter().enumerate().skip(at.next) {
            if at.count(links, d).is_none() {
                at.next = i;
                return Err(at);
            }
        }
        at.next = topo.len();
        if at.sum_once(links, links.root_list()).is_none() {
            return Err(at);
        }
        assert!(
            at.summed.iter().all(|&s| s),
            "every interned list is some slot's list or the root list"
        );
        let pool = running_sums(links, &at.per_expr);
        Ok(TierCounts {
            per_expr: at.per_expr,
            pool,
            list_totals: at.list_totals,
        })
    }

    /// The same tables one or two rungs down the ladder.
    fn widen<B: Word>(&self) -> TierCounts<B> {
        let widen = |v: &[W]| -> Vec<B> {
            v.iter()
                .map(|n| B::from_nat(&n.to_nat()).expect("a wider word holds every count"))
                .collect()
        };
        TierCounts {
            per_expr: widen(&self.per_expr),
            pool: widen(&self.pool),
            list_totals: widen(&self.list_totals),
        }
    }

    /// `N(v)`.
    #[inline]
    pub(crate) fn rooted(&self, d: DenseId) -> &W {
        &self.per_expr[d.idx()]
    }

    /// `b` of one interned list.
    #[inline]
    pub(crate) fn list_total(&self, l: ListId) -> &W {
        &self.list_totals[l.idx()]
    }

    /// The inclusive running sums of list `l`'s member counts, aligned
    /// with [`Links::list`].
    #[inline]
    pub(crate) fn list_sums(&self, links: &Links, l: ListId) -> &[W] {
        &self.pool[links.list_range(l)]
    }

    /// §3.3 step 1: the operator of list `l` covering `rank`, and the
    /// local rank within it. Requires `rank < list_total(l)`.
    #[inline]
    pub(crate) fn select(&self, links: &Links, l: ListId, rank: W) -> (DenseId, W) {
        let (idx, local) = W::select(self.list_sums(links, l), rank);
        (links.list(l)[idx], local)
    }

    /// Heap bytes of the three tables, capacity-accurate.
    fn size_bytes(&self) -> usize {
        [&self.per_expr, &self.pool, &self.list_totals]
            .iter()
            .map(|v| {
                v.capacity() * std::mem::size_of::<W>() + v.iter().map(W::heap_bytes).sum::<usize>()
            })
            .sum()
    }
}

/// How far a fold in `W` got: `N(v)` and `b` so far, which lists are
/// summed, and the step it stopped at — a position in `links.topo()`, or
/// one past it for the root list. Everything before that step is exact,
/// so a fold that overflows hands the next rung its work widened
/// ([`two_limbs`](Partial::two_limbs), [`exact`](Self::exact)) instead of
/// the next rung starting over. It holds no running sums, so widening
/// converts two tables of the three and the narrower tables are all
/// that is alive beside them: clique-10's `u64` fold stops at step
/// 707 690 of 709 620, and its pool is 1.39 M entries.
struct Partial<W> {
    per_expr: Vec<W>,
    list_totals: Vec<W>,
    summed: Vec<bool>,
    next: usize,
}

impl<W: Word> Partial<W> {
    /// Nothing folded yet.
    fn new(links: &Links) -> Self {
        Partial {
            per_expr: vec![W::ZERO; links.num_exprs()],
            list_totals: vec![W::ZERO; links.num_lists()],
            summed: vec![false; links.num_lists()],
            next: 0,
        }
    }

    /// Sums list `l` unless an earlier reader did; `None` on overflow,
    /// with `l` left unsummed.
    fn sum_once(&mut self, links: &Links, l: ListId) -> Option<()> {
        if !self.summed[l.idx()] {
            let mut sum = W::ZERO;
            for &w in links.list(l) {
                sum = sum.checked_add(&self.per_expr[w.idx()])?;
            }
            self.list_totals[l.idx()] = sum;
            self.summed[l.idx()] = true;
        }
        Some(())
    }

    /// `N(d)`, the product of its slots' totals; `None` on overflow,
    /// with `d` left uncounted.
    fn count(&mut self, links: &Links, d: DenseId) -> Option<()> {
        let mut product = W::ONE; // |v| = 0 ⇒ N(v) = 1
        for &l in links.slot_lists(d) {
            self.sum_once(links, l)?;
            // b = 0 ⇒ no completable plan here
            product = product.checked_mul(&self.list_totals[l.idx()])?;
        }
        self.per_expr[d.idx()] = product;
        Some(())
    }

    /// The same fold on the exact rung, to resume.
    fn exact(self) -> Partial<Nat> {
        Partial {
            per_expr: self.per_expr.iter().map(W::to_nat).collect(),
            list_totals: self.list_totals.iter().map(W::to_nat).collect(),
            summed: self.summed,
            next: self.next,
        }
    }
}

impl Partial<u64> {
    /// The same fold on the `u128` rung, to resume: a conversion a
    /// value, where a round trip through [`Nat`] costs more than the
    /// fold it saves.
    fn two_limbs(self) -> Partial<u128> {
        Partial {
            per_expr: self.per_expr.iter().map(|&n| u128::from(n)).collect(),
            list_totals: self.list_totals.iter().map(|&n| u128::from(n)).collect(),
            summed: self.summed,
            next: self.next,
        }
    }
}

/// Every list's inclusive running sums, in pool order: one sequential
/// pass, whose sums cannot overflow once the fold has found a rung that
/// holds every list total.
fn running_sums<W: Word>(links: &Links, per_expr: &[W]) -> Vec<W> {
    let mut pool = Vec::with_capacity(links.num_pooled_links());
    for l in (0..links.num_lists() as u32).map(ListId) {
        let mut sum = W::ZERO;
        for &w in links.list(l) {
            sum += &per_expr[w.idx()];
            pool.push(sum.clone());
        }
    }
    pool
}

/// The two independent count tables — `N(v)` by dense id, then `b` by
/// list id — as raw vectors in the store's width: the view two builds
/// of one space are compared in (the pool-aligned running sums are a
/// function of these and the links, so they are not part of it).
/// Produced by [`Counts::to_parts`]. Nothing reads counts back from it:
/// counts are always folded from the links ([`Counts::compute`]), a
/// loaded artifact's included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CountsParts {
    /// A [`CountTier::U64`] store.
    U64(Vec<u64>, Vec<u64>),
    /// A [`CountTier::U128`] store.
    U128(Vec<u128>, Vec<u128>),
    /// A [`CountTier::Nat`] store.
    Nat(Vec<Nat>, Vec<Nat>),
}

impl Counts {
    /// Computes all counts with §3.2's fold over `links.topo()`, on the
    /// narrowest rung of the tier ladder whose fold does not overflow
    /// (`TierCounts::fold`): a fold that overflows stops there, and the
    /// next rung resumes from that step over the tables folded so far,
    /// widened — which are exact, so the result is the one a fold
    /// started afresh on that rung would give. A prepare and an artifact
    /// load ([`PlanSpace::build_shared`](crate::PlanSpace::build_shared))
    /// both fold here.
    pub fn compute(links: &Links) -> Counts {
        let store = match TierCounts::fold(links, Partial::<u64>::new(links)) {
            Ok(c) => Store::U64(c),
            Err(at) => match TierCounts::fold(links, at.two_limbs()) {
                Ok(c) => Store::U128(c),
                Err(at) => Store::Nat(
                    TierCounts::fold(links, at.exact())
                        .unwrap_or_else(|_| unreachable!("Nat holds any count")),
                ),
            },
        };
        let mut counts = Counts {
            store,
            total: Nat::zero(),
        };
        counts.total = counts.list_total(links.root_list());
        counts
    }

    /// Copies the two count tables out, in the store's width.
    pub fn to_parts(&self) -> CountsParts {
        match &self.store {
            Store::U64(c) => CountsParts::U64(c.per_expr.clone(), c.list_totals.clone()),
            Store::U128(c) => CountsParts::U128(c.per_expr.clone(), c.list_totals.clone()),
            Store::Nat(c) => CountsParts::Nat(c.per_expr.clone(), c.list_totals.clone()),
        }
    }

    /// Whether the tables cover exactly `links`' expressions and lists.
    pub(crate) fn matches(&self, links: &Links) -> bool {
        with_tier!(self, c => c.per_expr.len() == links.num_exprs()
            && c.pool.len() == links.num_pooled_links()
            && c.list_totals.len() == links.num_lists())
    }

    /// `N(v)`: plans rooted in expression `d`.
    #[inline]
    pub fn rooted(&self, d: DenseId) -> Nat {
        with_tier!(self, c => c.rooted(d).to_nat())
    }

    /// `b_v(i)`: total alternatives of one interned child list (the sum
    /// of the counts of its eligible children), precomputed at build
    /// time.
    #[inline]
    pub fn list_total(&self, l: ListId) -> Nat {
        with_tier!(self, c => c.list_total(l).to_nat())
    }

    /// `N`: plans rooted in any root-group expression — the size of the
    /// complete search space.
    pub fn total(&self) -> &Nat {
        &self.total
    }

    /// Which rung of the tier ladder this space is stored on.
    pub fn tier(&self) -> CountTier {
        match self.store {
            Store::U64(_) => CountTier::U64,
            Store::U128(_) => CountTier::U128,
            Store::Nat(_) => CountTier::Nat,
        }
    }

    /// Re-stores the counts on a slower rung — a benchmarking/testing
    /// seam for exercising `u128` or exact-`Nat` arithmetic on spaces
    /// that qualify for a faster tier. A rung at or above the current
    /// one is a no-op: a store is only ever widened, never narrowed.
    pub(crate) fn force_tier(&mut self, tier: CountTier) {
        let widened = match (&self.store, tier) {
            (Store::U64(c), CountTier::U128) => Store::U128(c.widen()),
            (Store::U64(c), CountTier::Nat) => Store::Nat(c.widen()),
            (Store::U128(c), CountTier::Nat) => Store::Nat(c.widen()),
            _ => return,
        };
        self.store = widened;
    }

    /// Bytes of memory held by the counts: the one tier store
    /// (capacity-accurate, limb spills included) plus the exact total.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + Word::heap_bytes(&self.total)
            + with_tier!(self, c => c.size_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;

    #[test]
    fn paper_example_counts() {
        let ex = paper_example::build();
        let links = Links::build(&ex.memo, &ex.query).unwrap();
        let counts = Counts::compute(&links);
        let rooted = |id| counts.rooted(links.ids().dense(id));

        // Leaves count 1.
        for id in [ex.table_scan_a, ex.idx_scan_a, ex.idx_scan_b, ex.idx_scan_c] {
            assert_eq!(rooted(id), Nat::one(), "{id}");
        }
        // Sort_A has exactly one sortable input (the TableScan).
        assert_eq!(rooted(ex.sort_a).to_u64(), Some(1));
        // HashJoin(A,B) = 3 × 2, MergeJoin(A,B) = 2 × 1.
        assert_eq!(rooted(ex.hash_join_ab).to_u64(), Some(6));
        assert_eq!(rooted(ex.merge_join_ab).to_u64(), Some(2));
        // Roots: 2 × (6+2) = 16 each; space total 32.
        assert_eq!(rooted(ex.root_c_ab).to_u64(), Some(16));
        assert_eq!(rooted(ex.root_ab_c).to_u64(), Some(16));
        assert_eq!(counts.total().to_u64(), Some(32));
    }

    #[test]
    fn slot_totals_are_precomputed_per_list() {
        use plansample_memo::{PhysicalExpr, PhysicalOp};
        use plansample_query::{ColRef, RelId};

        // Every precomputed total matches a fresh sum over its list.
        let totals_match = |links: &Links, counts: &Counts| {
            for (d, _) in links.ids().iter() {
                for &l in links.slot_lists(d) {
                    let fresh: Nat = links.list(l).iter().map(|&w| counts.rooted(w)).sum();
                    assert_eq!(fresh, counts.list_total(l));
                }
            }
        };
        let mut ex = paper_example::build();
        let links = Links::build(&ex.memo, &ex.query).unwrap();
        let counts = Counts::compute(&links);
        let slots = links.slot_lists(links.ids().dense(ex.root_c_ab));
        assert_eq!(counts.list_total(slots[0]).to_u64(), Some(2)); // group C
        assert_eq!(counts.list_total(slots[1]).to_u64(), Some(8)); // group AB
        totals_match(&links, &counts);

        // A list two expressions read is summed once and serves both:
        // the roots share both of theirs.
        let mirrored = links.slot_lists(links.ids().dense(ex.root_ab_c));
        assert_eq!((slots[0], slots[1]), (mirrored[1], mirrored[0]));
        // The root list is no expression's slot and still holds `N`.
        let root = links.root_list();
        let mut exprs = links.ids().iter();
        assert!(exprs.all(|(d, _)| !links.slot_lists(d).contains(&root)));
        assert_eq!(counts.list_total(root).to_u64(), Some(32));

        // Second input: plus a merge join keyed on B.m, which nothing in
        // group B delivers sorted. Its right slot filters to the empty
        // list, which zeroes it, and it adds nothing to group AB's total.
        let key = |rel, col| ColRef {
            rel: RelId(rel),
            col,
        };
        let (left, right) = (ex.group_a, ex.group_b);
        let (left_key, right_key) = (key(0, 0), key(1, 1));
        let op = PhysicalOp::MergeJoin {
            left,
            right,
            left_key,
            right_key,
        };
        let dead = PhysicalExpr::new(op, 300.0, 200.0);
        let dead = ex.memo.add_physical(ex.group_ab, dead).unwrap();
        let links = Links::build(&ex.memo, &ex.query).unwrap();
        let counts = Counts::compute(&links);
        let slots = links.slot_lists(links.ids().dense(dead));
        assert!(links.list(slots[1]).is_empty());
        assert!(counts.list_total(slots[1]).is_zero());
        assert!(counts.rooted(links.ids().dense(dead)).is_zero());
        assert_eq!(counts.total().to_u64(), Some(32));
        totals_match(&links, &counts);
    }

    #[test]
    fn tier_ladder_and_force_tier() {
        let ex = paper_example::build();
        let links = Links::build(&ex.memo, &ex.query).unwrap();
        let mut counts = Counts::compute(&links);
        assert_eq!(counts.tier(), CountTier::U64);

        // Each list's slice of the pool is the running sum of its
        // members' rooted counts and ends at the list's total.
        let Store::U64(tier) = &counts.store else {
            panic!("paper example is single-limb")
        };
        for (d, _) in links.ids().iter() {
            for &l in links.slot_lists(d).iter().chain([&links.root_list()]) {
                let sums = tier.list_sums(&links, l);
                assert_eq!(sums.len(), links.list(l).len());
                let mut running = 0u64;
                for (&w, &sum) in links.list(l).iter().zip(sums) {
                    running += counts.rooted(w).to_u64().unwrap();
                    assert_eq!(sum, running);
                }
                assert_eq!(*tier.list_total(l), running);
            }
        }

        // Forcing down the ladder re-stores the same values wider;
        // forcing back up is a no-op.
        let exact = counts.to_parts();
        counts.force_tier(CountTier::U128);
        assert_eq!(counts.tier(), CountTier::U128);
        assert_eq!(counts.list_total(links.root_list()), *counts.total());
        counts.force_tier(CountTier::U64);
        assert_eq!(counts.tier(), CountTier::U128);
        counts.force_tier(CountTier::Nat);
        assert_eq!(counts.tier(), CountTier::Nat);
        assert_eq!(counts.tier().as_str(), "nat");
        assert_eq!(counts.tier().to_string(), "nat");
        let CountsParts::U64(per_expr, _) = exact else {
            panic!("u64 store serializes as u64 parts")
        };
        for (d, _) in links.ids().iter() {
            assert_eq!(counts.rooted(d).to_u64(), Some(per_expr[d.idx()]));
        }
    }

    /// A memo in which join `i` reads the group of join `i − 1` in both
    /// slots, over a group of two scans: `N = 2^(2^(i+1))`. Its relation
    /// sets are not what the joins cover: built by hand, it is checked by
    /// nothing, and `Memo::from_parts` would refuse it.
    /// The scan lists the scans first, then join `i` as list `i + 1`; the
    /// last join's group, which no slot reads, is the root list; topo is
    /// the two scans, then the joins in order.
    fn squaring_chain(joins: u32) -> Links {
        use plansample_memo::{GroupKey, Memo, PhysicalExpr, PhysicalOp};
        use plansample_query::{RelId, RelSet};

        let mut memo = Memo::new();
        let scans = memo.add_group(GroupKey::Rels(RelSet::all(1)));
        for rel in 0..2 {
            let scan = PhysicalOp::TableScan { rel: RelId(rel) };
            memo.add_physical(scans, PhysicalExpr::new(scan, 1.0, 1.0));
        }
        let mut below = scans;
        for i in 0..joins {
            let group = memo.add_group(GroupKey::Rels(RelSet::all(i as usize + 2)));
            let join = PhysicalOp::HashJoin {
                left: below,
                right: below,
            };
            memo.add_physical(group, PhysicalExpr::new(join, 1.0, 1.0));
            below = group;
        }
        memo.set_root(below);
        let links = Links::build(&memo, &paper_example::build().query).expect("a chain");
        let topo: Vec<u32> = links.topo().iter().map(|d| d.0).collect();
        assert_eq!(topo, (0..joins + 2).collect::<Vec<_>>());
        assert_eq!(links.root_list(), ListId(joins));
        links
    }

    /// The ladder resumes where a narrower fold overflowed, partway
    /// through `topo`: on a squaring chain of ten joins the `u64` fold
    /// stops at join 5 (`2^64`), the `u128` fold resumes there and stops
    /// at join 6 (`2^128`), and the exact fold finishes. Its tables are
    /// the ones an exact fold started afresh gives; six joins stop on
    /// the `u128` rung, with a fresh `u128` fold's tables.
    #[test]
    fn a_ladder_overflowing_partway_through_topo_resumes_to_a_fresh_folds_tables() {
        fn same<W: Word + std::fmt::Debug>(a: &TierCounts<W>, b: &TierCounts<W>) {
            assert_eq!(a.per_expr, b.per_expr);
            assert_eq!(a.pool, b.pool);
            assert_eq!(a.list_totals, b.list_totals);
        }
        let links = squaring_chain(10);
        let topo = links.topo().len();
        let Err(at) = TierCounts::fold(&links, Partial::<u64>::new(&links)) else {
            panic!("2^64 does not fit u64");
        };
        assert_eq!(at.next, 2 + 5, "the scans and joins 0-4 fit one limb");
        let Err(at) = TierCounts::fold(&links, at.two_limbs()) else {
            panic!("2^128 does not fit u128");
        };
        assert_eq!(at.next, 2 + 6);
        assert!(at.next < topo);
        let Ok(resumed) = TierCounts::fold(&links, at.exact()) else {
            panic!("Nat holds any count");
        };
        let Ok(fresh) = TierCounts::fold(&links, Partial::<Nat>::new(&links)) else {
            panic!("Nat holds any count");
        };
        same(&resumed, &fresh);
        let counts = Counts::compute(&links);
        assert_eq!(counts.tier(), CountTier::Nat);
        assert_eq!(counts.total().bits(), (1 << 10) + 1);

        let links = squaring_chain(6);
        let counts = Counts::compute(&links);
        let Ok(fresh) = TierCounts::fold(&links, Partial::<u128>::new(&links)) else {
            panic!("2^128 plans need two limbs");
        };
        match &counts.store {
            Store::U128(resumed) => same(resumed, &fresh),
            _ => panic!("six joins are a two-limb space, stored {}", counts.tier()),
        }
    }
}
