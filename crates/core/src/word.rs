//! The arithmetic word the rank machinery runs in.
//!
//! Counting (§3.2) runs in the narrowest word that holds the space:
//! its fold uses the checked add and multiply, and a failed check sends
//! it one rung up the ladder. Everything downstream of it only
//! compares, adds, subtracts, multiplies and divides values bounded by
//! the space's own list totals. When every count fits `u64` (or `u128`) that is
//! plain machine arithmetic, and [`crate::Counts`] stores the counts in
//! that width. [`Word`] abstracts over the three storage widths:
//! exactly what the count fold and the one generic unranker and ranker
//! need.

use crate::batch::{Scratch, TierScratch};
use plansample_bignum::Nat;
use rand::Rng;
use std::ops::{AddAssign, MulAssign, SubAssign};

/// A count/rank representation: `u64`, `u128`, or exact [`Nat`].
///
/// All arithmetic is on values bounded by a list total of the space the
/// word was chosen for, so the fixed-width words cannot overflow.
pub(crate) trait Word:
    Clone
    + Ord
    + Send
    + Sync
    + for<'a> AddAssign<&'a Self>
    + for<'a> SubAssign<&'a Self>
    + for<'a> MulAssign<&'a Self>
{
    /// The value `0`.
    const ZERO: Self;
    /// The value `1`.
    const ONE: Self;

    /// Narrows an exact count; `None` when it does not fit.
    fn from_nat(n: &Nat) -> Option<Self>;
    /// Widens to the exact type (the API edge).
    fn to_nat(&self) -> Nat;
    /// A uniform draw in `[0, bound)`, consuming `rng` exactly as
    /// [`Nat::random_below`] does on the same bound — which keeps
    /// sampling bit-identical across tiers.
    fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &Self) -> Self;
    /// `(self / b, self % b)`.
    fn div_rem(&self, b: &Self) -> (Self, Self);
    /// `self + b`, or `None` when the sum does not fit the word.
    fn checked_add(&self, b: &Self) -> Option<Self>;
    /// `self · b`, or `None` when the product does not fit the word.
    fn checked_mul(&self, b: &Self) -> Option<Self>;
    /// Operator selection (§3.3 step 1) over one list's inclusive
    /// running sums `sums[i] = Σ_{j≤i} N(w_j)`: the first index whose
    /// sum exceeds `rank`, and `rank` minus the sum before it — a binary
    /// search, `⌈log₂ len⌉ + 1` compares. A dead (zero-count)
    /// alternative repeats its predecessor's sum, so it is never the
    /// first to exceed anything. Requires `rank < sums.last()`.
    #[inline]
    fn select(sums: &[Self], mut rank: Self) -> (usize, Self) {
        let idx = sums.partition_point(|sum| *sum <= rank);
        if idx > 0 {
            rank -= &sums[idx - 1];
        }
        (idx, rank)
    }
    /// Heap bytes owned beyond `size_of::<Self>()`.
    fn heap_bytes(&self) -> usize {
        0
    }
    /// This word's scratch inside a batch's tier-tagged slot, retagging
    /// the slot (dropping the other tier's buffers) when it last served
    /// a different tier.
    fn scratch(slot: &mut TierScratch) -> &mut Scratch<Self>;
}

/// `Word::scratch` for the word stored under `TierScratch::$tier`.
macro_rules! scratch_in {
    ($tier:ident) => {
        fn scratch(slot: &mut TierScratch) -> &mut Scratch<Self> {
            if !matches!(slot, TierScratch::$tier(_)) {
                *slot = TierScratch::$tier(Scratch::default());
            }
            match slot {
                TierScratch::$tier(s) => s,
                _ => unreachable!("slot was just retagged"),
            }
        }
    };
}

macro_rules! impl_fixed_word {
    ($t:ty, $tier:ident, $to:ident, $random:ident) => {
        impl Word for $t {
            const ZERO: Self = 0;
            const ONE: Self = 1;

            #[inline]
            fn from_nat(n: &Nat) -> Option<Self> {
                n.$to()
            }
            #[inline]
            fn to_nat(&self) -> Nat {
                Nat::from(*self)
            }
            #[inline]
            fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &Self) -> Self {
                Nat::$random(rng, *bound)
            }
            #[inline]
            fn div_rem(&self, b: &Self) -> (Self, Self) {
                (self / b, self % b)
            }
            #[inline]
            fn checked_add(&self, b: &Self) -> Option<Self> {
                <$t>::checked_add(*self, *b)
            }
            #[inline]
            fn checked_mul(&self, b: &Self) -> Option<Self> {
                <$t>::checked_mul(*self, *b)
            }
            scratch_in!($tier);
        }
    };
}

impl_fixed_word!(u64, U64, to_u64, random_below_u64);
impl_fixed_word!(u128, U128, to_u128, random_below_u128);

impl Word for Nat {
    const ZERO: Self = Nat::zero();
    const ONE: Self = Nat::one();

    fn from_nat(n: &Nat) -> Option<Self> {
        Some(n.clone())
    }
    fn to_nat(&self) -> Nat {
        self.clone()
    }
    fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &Self) -> Self {
        Nat::random_below(rng, bound)
    }
    fn div_rem(&self, b: &Self) -> (Self, Self) {
        Nat::div_rem(self, b)
    }
    fn checked_add(&self, b: &Self) -> Option<Self> {
        Some(self + b)
    }
    fn checked_mul(&self, b: &Self) -> Option<Self> {
        Some(self * b)
    }
    fn heap_bytes(&self) -> usize {
        self.size_bytes() - std::mem::size_of::<Nat>()
    }
    scratch_in!(Nat);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's scalar branch-and-subtract scan over the raw member
    /// counts: the reference `select` over their running sums must
    /// reproduce index-for-index on every word.
    fn select_scalar(counts: &[u128], mut rank: u128) -> (usize, u128) {
        for (i, &n) in counts.iter().enumerate() {
            if rank < n {
                return (i, rank);
            }
            rank -= n;
        }
        unreachable!("rank below the list total by construction")
    }

    /// `W::select` over the running sums of `counts`, built the way
    /// `TierCounts::sum_list` writes them.
    fn select_in<W: Word>(counts: &[u128], rank: u128) -> (usize, u128) {
        let word = |n: u128| W::from_nat(&Nat::from(n)).expect("the value fits the word");
        let mut sum = W::ZERO;
        let sums: Vec<W> = counts
            .iter()
            .map(|&n| {
                sum = sum.checked_add(&word(n)).expect("the total fits the word");
                sum.clone()
            })
            .collect();
        let (i, local) = W::select(&sums, word(rank));
        (i, local.to_nat().to_u128().expect("a local rank fits u128"))
    }

    #[test]
    fn select_matches_the_scalar_reference_on_every_word() {
        // Deterministic xorshift so the shapes cover every search depth
        // and zero runs without a dev-dependency on `rand`.
        let mut s = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for len in [1usize, 2, 7, 8, 9, 15, 16, 17, 40, 101] {
            for _case in 0..50 {
                let counts: Vec<u128> = (0..len)
                    .map(|_| {
                        let r = next();
                        // ~1 in 4 alternatives dead, rest small so every
                        // index is reachable across cases.
                        if r % 4 == 0 {
                            0
                        } else {
                            (r % 1000 + 1) as u128
                        }
                    })
                    .collect();
                let total: u128 = counts.iter().sum();
                if total == 0 {
                    continue;
                }
                for probe in 0..total.min(64) {
                    // Stride ranks across the whole range, hitting both
                    // boundaries of every alternative.
                    let rank = (probe * (total / total.clamp(1, 64))).min(total - 1);
                    let expect = select_scalar(&counts, rank);
                    assert_eq!(select_in::<u64>(&counts, rank), expect, "u64");
                    assert_eq!(select_in::<u128>(&counts, rank), expect, "u128");
                    assert_eq!(select_in::<Nat>(&counts, rank), expect, "Nat");
                    assert_ne!(counts[expect.0], 0, "a dead alternative was selected");
                }
            }
        }
    }

    #[test]
    fn select_handles_two_limb_counts() {
        let big = u64::MAX as u128 + 5;
        let counts = [0u128, big, 3, 0, big, 1, 0, 0, big, 2];
        let total: u128 = counts.iter().sum();
        for rank in [0u128, 1, big - 1, big, big + 2, big + 3, total - 1] {
            let expect = select_scalar(&counts, rank);
            assert_eq!(select_in::<u128>(&counts, rank), expect, "u128 at {rank}");
            assert_eq!(select_in::<Nat>(&counts, rank), expect, "Nat at {rank}");
        }
    }

    /// Running sums cannot overflow by construction; this is the
    /// construction's edge — lists whose total is exactly the word's
    /// maximum, so the last stored sum is `MAX` and the last rank is
    /// `MAX - 1`.
    #[test]
    fn select_at_exactly_the_word_maximum() {
        fn check<W: Word>(max: u128) {
            // The bulk in the middle of a 17-member list …
            let mut tailed = vec![1u128; 17];
            tailed[3] = 0;
            tailed[11] = max - 15;
            // … and behind eight dead members, followed by a dead tail.
            let mut single = vec![0u128; 16];
            single[8..].copy_from_slice(&[1, 1, 0, max - 6, 1, 1, 1, 1]);
            single.extend([0, 0]);
            for counts in [tailed, single] {
                assert_eq!(counts.iter().sum::<u128>(), max);
                for rank in [0, 1, 9, 10, max - 21, max - 1] {
                    let expect = select_scalar(&counts, rank);
                    assert_eq!(select_in::<W>(&counts, rank), expect, "rank {rank}");
                }
                // The very last rank lands on the last live member.
                let last_live = counts.iter().rposition(|&n| n != 0).unwrap();
                assert_eq!(select_in::<W>(&counts, max - 1).0, last_live);
            }
        }
        check::<u64>(u64::MAX as u128);
        check::<u128>(u128::MAX);
        check::<Nat>(u64::MAX as u128);
        check::<Nat>(u128::MAX);
    }

    /// The count fold's rung test: a fixed-width product that fits is
    /// exact, one that does not is `None`, and `Nat` never overflows.
    #[test]
    fn checked_mul_overflows_exactly_past_the_word() {
        fn check<W: Word + std::fmt::Debug>(max: u128, half: u32) {
            let word = |n: u128| W::from_nat(&Nat::from(n)).expect("the value fits the word");
            let (max, root) = (word(max), word(1 << half));
            assert_eq!(max.checked_mul(&W::ONE), Some(max.clone()));
            assert_eq!(root.checked_mul(&root), None);
            let below = word((1 << half) - 1);
            assert_eq!(
                root.checked_mul(&below).map(|p| p.to_nat()),
                Some(&root.to_nat() * &below.to_nat())
            );
        }
        check::<u64>(u64::MAX.into(), 32);
        check::<u128>(u128::MAX, 64);

        let two_64 = Nat::from(1u128 << 64);
        let squared = Word::checked_mul(&two_64, &two_64);
        assert_eq!(squared, Some(&two_64 * &two_64));
        assert_eq!(squared.map(|n| n.limbs().len()), Some(3));
        let max = Nat::from(u128::MAX);
        assert_eq!(Word::checked_mul(&max, &Nat::one()), Some(max));
    }
}
