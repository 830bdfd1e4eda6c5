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
//! Counts are exact [`Nat`]s: Table 1 of the paper reports spaces above
//! 4·10^12, and counts overflow any fixed-width integer as queries grow.
//!
//! The pass is an iterative walk over the topological order the links
//! precomputed (children before parents), filling one flat `Vec<Nat>`
//! indexed by [`DenseId`] — no recursion, no memo-cache clones, and no
//! threads: the pass is a few percent of a build (DESIGN §5), less
//! than forking it costs. The per-slot totals
//! `b_v(i)` are computed once per *interned* alternative list and kept
//! ([`Counts::list_total`]), so unranking, ranking, and sampling read
//! them instead of re-summing alternatives on every mixed-radix step.
//! Each expression and each list entry is visited exactly once — the
//! paper's linear-time claim, measured by the tracked benchmark's
//! `core.count.compute_ms` row.
//!
//! # One store, chosen once
//!
//! The exact pass is only the *computation*. What a [`Counts`] keeps is
//! a single store in the narrowest width that holds every count — the
//! tier ladder `u64` → `u128` → [`Nat`] ([`CountTier`]) — and the whole
//! rank machinery runs in that width. A fixed-width space owns no
//! `Vec<Nat>`; [`Counts::rooted`] / [`Counts::list_total`] synthesise a
//! [`Nat`] by value at the API edge. Beside `N(v)` and `b` the store
//! keeps, per interned list, the inclusive running sums of its members'
//! counts — §3.3's prefix sums — so choosing an operator is a binary
//! search and not a scan ([`TierCounts`]).

use crate::word::Word;
use crate::{links::ListId, Links, SpaceError};
use plansample_bignum::Nat;
use plansample_memo::DenseId;

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
    /// Assembles the tier from its two independent tables, checked
    /// against `links` in shape and in value: the running sums are
    /// built here, one pass per list, and each list's last sum must be
    /// its stored total — which is what lets [`Word::select`] trust
    /// `rank < list_total(l)` to land inside the list.
    fn from_tables(
        links: &Links,
        mut per_expr: Vec<W>,
        mut list_totals: Vec<W>,
    ) -> Result<Self, SpaceError> {
        let malformed = |reason: &str| SpaceError::MalformedParts {
            reason: reason.to_string(),
        };
        if per_expr.len() != links.num_exprs() {
            return Err(malformed(
                "per-expression counts must cover every expression",
            ));
        }
        if list_totals.len() != links.num_lists() {
            return Err(malformed("list totals must cover every interned list"));
        }
        // The tables back a long-lived, byte-budgeted artifact: drop
        // whatever growth slack the caller's collection left.
        per_expr.shrink_to_fit();
        list_totals.shrink_to_fit();
        let mut pool = Vec::with_capacity(links.num_pooled_links());
        for (members, total) in links.lists().zip(&list_totals) {
            let mut sum = W::ZERO;
            for &w in members {
                sum = sum
                    .checked_add(&per_expr[w.idx()])
                    .ok_or_else(|| malformed("a list's running sum overflows the tier's word"))?;
                pool.push(sum.clone());
            }
            if sum != *total {
                return Err(malformed(
                    "a list total must equal the sum of its members' counts",
                ));
            }
        }
        Ok(TierCounts {
            per_expr,
            pool,
            list_totals,
        })
    }

    /// The tier holding exact tables `per_expr` / `list_totals`, or
    /// `None` when some value does not fit `W`.
    fn narrow(links: &Links, per_expr: &[Nat], list_totals: &[Nat]) -> Option<Self> {
        let per_expr: Option<Vec<W>> = per_expr.iter().map(W::from_nat).collect();
        let list_totals: Option<Vec<W>> = list_totals.iter().map(W::from_nat).collect();
        Self::from_tables(links, per_expr?, list_totals?).ok()
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

/// The two independent count tables — `N(v)` by dense id, then `b` by
/// list id — as raw vectors in the store's width: the serialization
/// view a plan-space artifact stores (the pool-aligned running sums
/// are a function of these and the links, so they are not part of the
/// view). Produced by [`Counts::to_parts`], consumed (and checked) by
/// [`Counts::from_parts`].
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
    /// Computes all counts in one pass over `links.topo()`.
    ///
    /// Children come before parents in that order, so when an
    /// expression is reached every member of its slot lists is counted:
    /// a list's total `b` is summed the first time an expression reads
    /// it (interned lists are shared, so later readers find it done),
    /// the expression's count is the product of its slots' totals, and
    /// the root list — interned like any other, but no expression's
    /// slot — is summed last. Each expression and each list entry is
    /// visited once.
    pub fn compute(links: &Links) -> Counts {
        let mut per_expr: Vec<Nat> = vec![Nat::zero(); links.num_exprs()];
        let mut list_totals: Vec<Nat> = vec![Nat::zero(); links.num_lists()];
        let mut summed = vec![false; links.num_lists()];
        let mut sum_once = |l: ListId, per_expr: &[Nat], list_totals: &mut [Nat]| {
            if !std::mem::replace(&mut summed[l.idx()], true) {
                list_totals[l.idx()] = links.list(l).iter().map(|&w| &per_expr[w.idx()]).sum();
            }
        };
        for &d in links.topo() {
            let mut product = Nat::one(); // |v| = 0 ⇒ N(v) = 1
            for &l in links.slot_lists(d) {
                sum_once(l, &per_expr, &mut list_totals);
                product *= &list_totals[l.idx()]; // b = 0 ⇒ no completable plan here
            }
            per_expr[d.idx()] = product;
        }
        let root = links.root_list();
        sum_once(root, &per_expr, &mut list_totals);

        // Store the exact tables on the fastest rung that holds them all.
        let (n, b) = (per_expr.as_slice(), list_totals.as_slice());
        let store = if let Some(c) = TierCounts::narrow(links, n, b) {
            Store::U64(c)
        } else if let Some(c) = TierCounts::narrow(links, n, b) {
            Store::U128(c)
        } else {
            Store::Nat(TierCounts::narrow(links, n, b).expect("Nat holds any count"))
        };
        let total = list_totals.swap_remove(root.idx());
        Counts { store, total }
    }

    /// Reassembles counts from their serialization view (the artifact
    /// load path). Validates the shapes against `links`, requires every
    /// list total to be the (non-overflowing) sum of its members'
    /// counts — the one relation between the two tables that selection
    /// depends on, checked for free while the running sums are built —
    /// and re-derives the space total from the root list so the fields
    /// cannot disagree. The tier is taken as stored, and the
    /// per-expression *values* are vouched for by the artifact checksum,
    /// not re-counted here — that is the whole point of loading.
    pub fn from_parts(links: &Links, parts: CountsParts) -> Result<Counts, SpaceError> {
        let store = match parts {
            CountsParts::U64(n, b) => Store::U64(TierCounts::from_tables(links, n, b)?),
            CountsParts::U128(n, b) => Store::U128(TierCounts::from_tables(links, n, b)?),
            CountsParts::Nat(n, b) => Store::Nat(TierCounts::from_tables(links, n, b)?),
        };
        let mut counts = Counts {
            store,
            total: Nat::zero(),
        };
        counts.total = counts.list_total(links.root_list());
        Ok(counts)
    }

    /// Copies the two count tables out for serialization.
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

    /// A checksummed artifact vouches for its bytes, not for the one
    /// relation selection depends on: each list total is the sum of its
    /// members' counts, and that sum fits the tier's word.
    #[test]
    fn from_parts_rejects_totals_that_are_not_their_members_sum() {
        let ex = paper_example::build();
        let links = Links::build(&ex.memo, &ex.query).unwrap();
        let CountsParts::U64(per_expr, list_totals) = Counts::compute(&links).to_parts() else {
            panic!("paper example is single-limb")
        };
        let rejected = |per_expr: &[u64], list_totals: &[u64], why: &str| {
            let parts = CountsParts::U64(per_expr.to_vec(), list_totals.to_vec());
            match Counts::from_parts(&links, parts) {
                Err(SpaceError::MalformedParts { reason }) => {
                    assert!(reason.contains(why), "{reason:?} does not mention {why:?}")
                }
                other => panic!("expected MalformedParts ({why}), got {other:?}"),
            }
        };
        assert!(Counts::from_parts(
            &links,
            CountsParts::U64(per_expr.clone(), list_totals.clone())
        )
        .is_ok());

        // A total one above its members' sum (its last rank would lie
        // past every member) and one below.
        let root = links.root_list().idx();
        for off_by_one in [list_totals[root] + 1, list_totals[root] - 1] {
            let mut totals = list_totals.clone();
            totals[root] = off_by_one;
            rejected(&per_expr, &totals, "must equal the sum");
        }
        // Two root members of `u64::MAX` plans each: the running sum
        // leaves the word before any total could be compared.
        let mut wide = per_expr.clone();
        for &w in links.list(links.root_list()) {
            wide[w.idx()] = u64::MAX;
        }
        rejected(&wide, &list_totals, "overflows");
    }
}
