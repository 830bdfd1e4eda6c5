//! The arithmetic word the rank machinery runs in.
//!
//! Counting (§3.2) is exact-[`Nat`]; everything downstream of it only
//! compares, adds, multiplies and divides values bounded by the space's
//! own list totals. When every count fits `u64` (or `u128`) that is
//! plain machine arithmetic, and [`crate::Counts`] stores the counts in
//! that width. [`Word`] abstracts over the three storage widths:
//! exactly what the one generic unranker and ranker need.

use crate::batch::{Scratch, TierScratch};
use plansample_bignum::Nat;
use rand::Rng;
use std::ops::{Add, AddAssign, Mul, MulAssign, Sub};

/// A count/rank representation: `u64`, `u128`, or exact [`Nat`].
///
/// All arithmetic is on values bounded by a list total of the space the
/// word was chosen for, so the fixed-width words cannot overflow.
pub(crate) trait Word:
    Clone + Ord + Send + Sync + for<'a> AddAssign<&'a Self> + for<'a> MulAssign<&'a Self>
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
    /// Operator selection (§3.3 step 1) over one list's member counts:
    /// the first index whose running total exceeds `rank`, and `rank`
    /// minus the counts before it. Requires `rank < Σ counts`.
    fn select(counts: &[Self], rank: Self) -> (usize, Self);
    /// Heap bytes owned beyond `size_of::<Self>()`.
    fn heap_bytes(&self) -> usize {
        0
    }
    /// This word's scratch inside a batch's tier-tagged slot, retagging
    /// the slot (dropping the other tier's buffers) when it last served
    /// a different tier.
    fn scratch(slot: &mut TierScratch) -> &mut Scratch<Self>;
}

/// Operator selection for the fixed-width words.
///
/// Instead of one unpredictable branch per alternative, the scan works
/// in chunks of 8: an unrolled pairwise sum decides in one predictable
/// branch whether the chosen element lies in the chunk; misses skip 8
/// elements with a single subtraction, and the hit chunk resolves its
/// element **branch-free** (`take = rank >= prefix` arithmetic). Chunk
/// sums cannot overflow: every partial sum is bounded by the list
/// total, which fits the word by the tier criterion. A scalar tail
/// handles the last `len % 8` elements. Dead (zero-count) alternatives
/// are skipped exactly as the scalar scan skips them.
#[inline]
fn chunked_select<W>(counts: &[W], mut rank: W) -> (usize, W)
where
    W: Copy + Ord + From<bool> + Add<Output = W> + Sub<Output = W> + Mul<Output = W>,
{
    let zero = W::from(false);
    let mut base = 0usize;
    let mut chunks = counts.chunks_exact(8);
    for c in &mut chunks {
        let sum = ((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7]));
        if rank < sum {
            let (mut acc, mut below, mut idx) = (zero, zero, 0usize);
            for &n in c {
                acc = acc + n;
                let take = rank >= acc;
                idx += take as usize;
                below = below + n * W::from(take);
            }
            return (base + idx, rank - below);
        }
        rank = rank - sum;
        base += 8;
    }
    let tail = chunks.remainder();
    let mut i = 0usize;
    while rank >= tail[i] {
        rank = rank - tail[i];
        i += 1;
    }
    (base + i, rank)
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
            fn select(counts: &[Self], rank: Self) -> (usize, Self) {
                chunked_select(counts, rank)
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
    /// The paper's scalar prefix scan: multi-limb compares dominate, so
    /// there is nothing for a chunked scan to win.
    fn select(counts: &[Self], mut rank: Self) -> (usize, Self) {
        for (i, n) in counts.iter().enumerate() {
            if &rank < n {
                return (i, rank);
            }
            rank -= n;
        }
        unreachable!("rank below the list total by construction")
    }
    fn heap_bytes(&self) -> usize {
        self.size_bytes() - std::mem::size_of::<Nat>()
    }
    scratch_in!(Nat);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar branch-and-subtract reference every `select` must
    /// reproduce index-for-index (it is `Nat`'s own implementation).
    fn select_scalar(counts: &[u128], rank: u128) -> (usize, u128) {
        let nats: Vec<Nat> = counts.iter().map(|&n| Nat::from(n)).collect();
        let (i, r) = Nat::select(&nats, Nat::from(rank));
        (i, r.to_u128().unwrap())
    }

    #[test]
    fn chunked_select_matches_the_scalar_reference() {
        // Deterministic xorshift so the shapes cover chunk boundaries,
        // zero runs, and tails without a dev-dependency on `rand`.
        let mut s = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for len in [1usize, 2, 7, 8, 9, 15, 16, 17, 40, 101] {
            for _case in 0..50 {
                let counts: Vec<u64> = (0..len)
                    .map(|_| {
                        let r = next();
                        // ~1 in 4 alternatives dead, rest small so every
                        // index is reachable across cases.
                        if r % 4 == 0 {
                            0
                        } else {
                            r % 1000 + 1
                        }
                    })
                    .collect();
                let total: u64 = counts.iter().sum();
                if total == 0 {
                    continue;
                }
                let wide: Vec<u128> = counts.iter().map(|&n| n as u128).collect();
                for probe in 0..total.min(64) {
                    // Stride ranks across the whole range, hitting both
                    // boundaries of every alternative.
                    let rank = (probe * (total / total.clamp(1, 64))).min(total - 1);
                    let expect = select_scalar(&wide, rank as u128);
                    assert_eq!(
                        u64::select(&counts, rank),
                        (expect.0, expect.1 as u64),
                        "u64 diverged on {counts:?} rank {rank}"
                    );
                    assert_eq!(
                        u128::select(&wide, rank as u128),
                        expect,
                        "u128 diverged on {counts:?} rank {rank}"
                    );
                }
            }
        }
    }

    #[test]
    fn chunked_select_handles_two_limb_counts() {
        let big = u64::MAX as u128 + 5;
        let counts = [0u128, big, 3, 0, big, 1, 0, 0, big, 2];
        let total: u128 = counts.iter().sum();
        for rank in [0u128, 1, big - 1, big, big + 2, big + 3, total - 1] {
            assert_eq!(
                u128::select(&counts, rank),
                select_scalar(&counts, rank),
                "diverged at rank {rank}"
            );
        }
    }

    /// ROADMAP harden-(d): "chunk sums cannot overflow by construction"
    /// at the construction's edge — lists whose total is exactly the
    /// word's maximum, so the last chunk's pairwise sum and the hit
    /// chunk's running prefix both reach `MAX` without wrapping (debug
    /// builds would panic on overflow; release builds would mis-select).
    #[test]
    fn chunked_select_at_exactly_the_word_maximum() {
        fn check<W>(max: W, to_u128: impl Fn(W) -> u128)
        where
            W: Word + Copy + From<bool> + From<u8> + Sub<Output = W> + std::fmt::Debug,
        {
            let (zero, one, k) = (W::from(0u8), W::from(1u8), W::from(21u8));
            // Two full chunks and a one-element tail summing to exactly
            // `max`, the bulk in the middle of the second chunk …
            let mut tailed = vec![one; 17];
            tailed[3] = zero;
            tailed[11] = max - W::from(15u8);
            // … and a dead first chunk followed by one chunk whose own
            // pairwise sum (and running prefix) is exactly `max`.
            let mut single = vec![zero; 16];
            single[8..].copy_from_slice(&[one, one, zero, max - W::from(6u8), one, one, one, one]);
            for counts in [tailed, single] {
                let wide: Vec<u128> = counts.iter().map(|&n| to_u128(n)).collect();
                assert_eq!(wide.iter().sum::<u128>(), to_u128(max));
                for rank in [zero, one, W::from(9u8), W::from(10u8), max - k, max - one] {
                    let (i, r) = W::select(&counts, rank);
                    assert_eq!((i, to_u128(r)), select_scalar(&wide, to_u128(rank)));
                }
                // The very last rank lands on the very last member.
                assert_eq!(W::select(&counts, max - one).0, counts.len() - 1);
            }
        }
        check(u64::MAX, |n| n as u128);
        check(u128::MAX, |n| n);
    }
}
