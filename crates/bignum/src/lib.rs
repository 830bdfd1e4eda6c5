//! Arbitrary-precision unsigned integers for exact plan-space arithmetic.
//!
//! The plan-counting algorithm of Waas & Galindo-Legaria multiplies and sums
//! alternative counts across a MEMO; for joins of 8+ relations the totals
//! exceed `u64` (Table 1 of the paper already reports 4.4e12 plans, and the
//! growth is super-exponential in the number of relations). Counting and the
//! mixed-radix unranking decomposition must be *exact*, so this crate
//! provides [`Nat`], a dependency-free natural-number type with exactly the
//! operations the ranking machinery needs: addition, checked subtraction,
//! multiplication, division with remainder, comparison, decimal conversion,
//! and uniform random generation below a bound.
//!
//! # Representation
//!
//! Values are little-endian `u64` limbs with no trailing zero limbs — but
//! the representation is *small-value-inline*: anything that fits one limb
//! (including zero) lives in an inline `u64` and owns **no heap memory**;
//! only genuinely multi-limb values spill to an exactly-sized boxed limb
//! slice. The MEMO-wide count tables hold one `Nat` per physical
//! expression and the overwhelming majority of per-expression counts fit
//! one limb, so the inline representation removes one heap allocation per
//! expression from plan-space construction (recorded in
//! `docs/EXPERIMENTS.md` §E10 and `docs/DESIGN.md` §4).
//! [`Nat::size_bytes`] reports the true footprint: `size_of::<Nat>()` for
//! inline values, plus the exact spill buffer otherwise.
//!
//! All arithmetic is schoolbook with fast single-limb paths; plan counting
//! touches numbers of a few dozen limbs at most, far below the sizes where
//! Karatsuba or faster division would pay off.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod convert;
mod div;
mod ops;
mod random;

pub use convert::ParseNatError;

/// An arbitrary-precision natural number (unsigned integer).
///
/// # Examples
///
/// ```
/// use plansample_bignum::Nat;
///
/// let a = Nat::from(u64::MAX);
/// let b = &a * &a;
/// assert_eq!(b.to_string(), "340282366920938463426481119284349108225");
/// let (q, r) = b.div_rem(&a);
/// assert_eq!(q, a);
/// assert!(r.is_zero());
/// ```
#[derive(Clone)]
pub struct Nat {
    /// The value when `spill` is `None` (zero is `small == 0`); unused
    /// (and kept at 0) otherwise.
    small: u64,
    /// Multi-limb storage, little-endian. Invariants: `len() >= 2` and
    /// the top limb is non-zero — one-limb values are always inline, so
    /// every value has exactly one representation and derived
    /// `PartialEq`/`Hash` would be sound (they are implemented over the
    /// limb view anyway for clarity).
    spill: Option<Box<[u64]>>,
}

impl Nat {
    /// The value `0`.
    pub const fn zero() -> Self {
        Nat {
            small: 0,
            spill: None,
        }
    }

    /// The value `1`.
    pub const fn one() -> Self {
        Nat {
            small: 1,
            spill: None,
        }
    }

    /// Internal: a single-limb (inline) value.
    #[inline]
    pub(crate) const fn small(v: u64) -> Self {
        Nat {
            small: v,
            spill: None,
        }
    }

    /// Builds a `Nat` from little-endian limbs, normalizing trailing zeros
    /// (and inlining the value when it fits one limb).
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        match limbs.len() {
            0 => Nat::zero(),
            1 => Nat::small(limbs[0]),
            _ => Nat {
                small: 0,
                spill: Some(limbs.into_boxed_slice()),
            },
        }
    }

    /// Read-only view of the little-endian limbs (empty for zero).
    #[inline]
    pub fn limbs(&self) -> &[u64] {
        match &self.spill {
            Some(limbs) => limbs,
            None if self.small == 0 => &[],
            None => std::slice::from_ref(&self.small),
        }
    }

    /// Number of limbs (0 for zero, 1 for every other inline value).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        match &self.spill {
            Some(limbs) => limbs.len(),
            None => (self.small != 0) as usize,
        }
    }

    /// The inline value, if this `Nat` fits one limb.
    #[inline]
    pub(crate) fn as_small(&self) -> Option<u64> {
        match self.spill {
            None => Some(self.small),
            Some(_) => None,
        }
    }

    /// `true` iff the value is `0`.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.spill.is_none() && self.small == 0
    }

    /// `true` iff the value is `1`.
    #[inline]
    pub fn is_one(&self) -> bool {
        self.spill.is_none() && self.small == 1
    }

    /// Bytes of memory held by this number: the inline struct plus the
    /// spill buffer, if any. Inline (single-limb) values — the common
    /// case in count tables — own no heap at all, and the spill buffer
    /// is exactly sized, so this is the true footprint. Used by the
    /// plan-space size accounting that drives memory-bounded cache
    /// eviction.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .spill
                .as_ref()
                .map_or(0, |s| std::mem::size_of_val::<[u64]>(s))
    }

    /// Number of significant bits (`0` for zero).
    pub fn bits(&self) -> u64 {
        let limbs = self.limbs();
        match limbs.last() {
            None => 0,
            Some(&top) => (limbs.len() as u64 - 1) * 64 + (64 - top.leading_zeros() as u64),
        }
    }

    /// Strictly increments the value in place.
    pub fn incr(&mut self) {
        match &mut self.spill {
            None => match self.small.checked_add(1) {
                Some(v) => self.small = v,
                None => {
                    self.small = 0;
                    self.spill = Some(vec![0, 1].into_boxed_slice());
                }
            },
            Some(limbs) => {
                for limb in limbs.iter_mut() {
                    let (v, carry) = limb.overflowing_add(1);
                    *limb = v;
                    if !carry {
                        return;
                    }
                }
                // Carry off the top: grow by one limb.
                let mut grown = std::mem::take(limbs).into_vec();
                grown.push(1);
                *limbs = grown.into_boxed_slice();
            }
        }
    }

    /// Decrements in place; panics on zero (natural numbers only).
    pub fn decr(&mut self) {
        assert!(!self.is_zero(), "Nat::decr on zero");
        match &mut self.spill {
            None => self.small -= 1,
            Some(limbs) => {
                for limb in limbs.iter_mut() {
                    let (v, borrow) = limb.overflowing_sub(1);
                    *limb = v;
                    if !borrow {
                        break;
                    }
                }
                if limbs.last() == Some(&0) {
                    // 2^64k - 1 drops a limb; renormalize (may re-inline).
                    *self = Nat::from_limbs(std::mem::take(limbs).into_vec());
                }
            }
        }
    }

    /// Lossy conversion to `f64` (saturates to `f64::INFINITY` far above
    /// 2^1024). Used only for reporting, never for exact arithmetic.
    pub fn to_f64(&self) -> f64 {
        let mut acc = 0.0f64;
        for &limb in self.limbs().iter().rev() {
            acc = acc * 1.8446744073709552e19 + limb as f64;
        }
        acc
    }
}

impl Default for Nat {
    fn default() -> Self {
        Nat::zero()
    }
}

impl PartialEq for Nat {
    fn eq(&self, other: &Self) -> bool {
        self.limbs() == other.limbs()
    }
}

impl Eq for Nat {}

impl std::hash::Hash for Nat {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.limbs().hash(state);
    }
}

impl std::fmt::Debug for Nat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Nat({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        assert!(Nat::zero().is_zero());
        assert!(!Nat::one().is_zero());
        assert!(Nat::one().is_one());
        assert_eq!(Nat::zero().bits(), 0);
        assert_eq!(Nat::one().bits(), 1);
    }

    #[test]
    fn from_limbs_normalizes() {
        let n = Nat::from_limbs(vec![5, 0, 0]);
        assert_eq!(n.limbs(), &[5]);
        assert_eq!(Nat::from_limbs(vec![0, 0]), Nat::zero());
    }

    #[test]
    fn single_limb_values_are_inline() {
        for v in [0u64, 1, 42, u64::MAX] {
            let n = Nat::from(v);
            assert_eq!(n.size_bytes(), std::mem::size_of::<Nat>(), "{v}");
        }
        // Normalization re-inlines values whose top limbs are zero.
        let n = Nat::from_limbs(vec![7, 0, 0]);
        assert_eq!(n.size_bytes(), std::mem::size_of::<Nat>());
    }

    #[test]
    fn spilled_values_report_exact_footprint() {
        let n = Nat::from(1u128 << 64);
        assert_eq!(n.limbs().len(), 2);
        assert_eq!(
            n.size_bytes(),
            std::mem::size_of::<Nat>() + 2 * std::mem::size_of::<u64>()
        );
    }

    #[test]
    fn nat_struct_stays_pointer_sized() {
        // The whole point of the inline representation: a Nat is no
        // bigger than the Vec-based one it replaced (ptr + len + cap).
        assert!(std::mem::size_of::<Nat>() <= 3 * std::mem::size_of::<usize>());
    }

    #[test]
    fn bits_counts_leading_limb() {
        assert_eq!(Nat::from(1u64 << 63).bits(), 64);
        assert_eq!(Nat::from(u64::MAX).bits(), 64);
        assert_eq!(Nat::from(1u128 << 64).bits(), 65);
        assert_eq!(Nat::from(3u64).bits(), 2);
    }

    #[test]
    fn incr_carries_across_limbs() {
        let mut n = Nat::from(u64::MAX);
        n.incr();
        assert_eq!(n, Nat::from(1u128 << 64));
        n.decr();
        assert_eq!(n, Nat::from(u64::MAX));
        assert!(n.as_small().is_some(), "decr re-inlines across the spill");
    }

    #[test]
    fn incr_grows_a_full_spill() {
        let mut n = Nat::from(u128::MAX);
        n.incr();
        assert_eq!(n.limbs(), &[0, 0, 1]);
        n.decr();
        assert_eq!(n, Nat::from(u128::MAX));
    }

    #[test]
    #[should_panic(expected = "decr on zero")]
    fn decr_zero_panics() {
        Nat::zero().decr();
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Nat::default(), Nat::zero());
    }

    #[test]
    fn equality_and_hash_see_values_not_representations() {
        use std::collections::HashSet;
        let a = Nat::from(99u64);
        let b = Nat::from_limbs(vec![99, 0, 0, 0]);
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn to_f64_round_numbers() {
        assert_eq!(Nat::zero().to_f64(), 0.0);
        assert_eq!(Nat::from(12345u64).to_f64(), 12345.0);
        let big = Nat::from(1u128 << 100);
        let expect = (2f64).powi(100);
        assert!((big.to_f64() - expect).abs() / expect < 1e-12);
    }
}
