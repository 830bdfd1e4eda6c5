//! Workspace-internal stand-in for the subset of the crates.io `rand` API
//! this repository uses.
//!
//! The build environment for this repository has no crates.io access, so the
//! workspace vendors the tiny slice of `rand` it actually calls: the
//! [`Rng`]/[`RngCore`]/[`SeedableRng`] traits, integer [`Rng::gen_range`],
//! [`Rng::gen`], and a deterministic seedable [`rngs::StdRng`].
//!
//! Two deliberate differences from crates.io `rand`:
//!
//! * [`rngs::StdRng`] is xoshiro256\*\* seeded through SplitMix64, **not**
//!   the ChaCha12 generator of `rand 0.8` — identical seeds produce
//!   different streams than upstream. All consumers in this workspace only
//!   rely on determinism-per-seed and statistical quality, never on the
//!   exact upstream stream.
//! * Only the types and methods the workspace exercises exist. Swapping
//!   back to crates.io `rand` is a one-line change in the root
//!   `Cargo.toml`'s `[workspace.dependencies]` table.
//!
//! Range sampling uses rejection below the largest span multiple, so draws
//! are exactly uniform (no modulo bias) — the sampling-uniformity
//! chi-square tests in the umbrella crate depend on this.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod rngs;

/// A source of raw random 64-bit words. Object-safe core of [`Rng`].
pub trait RngCore {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns 32 uniformly random bits (upper half of [`next_u64`](Self::next_u64)).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// User-facing random value generation, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Returns a uniformly random value of type `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p must be in [0, 1]");
        f64::sample(self) < p
    }

    /// Returns a uniformly random value in `range` (exactly uniform via
    /// rejection sampling).
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A generator that can be constructed from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed; equal seeds give equal streams.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types with a canonical "uniform over the whole domain" distribution,
/// used by [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types that [`Rng::gen_range`] can sample uniformly from a range.
pub trait SampleUniform: Sized {
    /// Uniform draw from the *inclusive* interval `[lo, hi]`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;

    /// Uniform draw from the half-open interval `[lo, hi)`; `lo < hi` holds.
    fn sample_exclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

/// Range argument accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Exactly uniform draw from `[lo, hi]` (inclusive) via rejection sampling.
fn uniform_u64_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: u64, hi: u64) -> u64 {
    debug_assert!(lo <= hi);
    if lo == 0 && hi == u64::MAX {
        return rng.next_u64();
    }
    let span = hi - lo + 1;
    // 2^64 mod span; draws at or above 2^64 - excess are rejected so every
    // residue class is equally likely.
    let excess = (u64::MAX % span + 1) % span;
    loop {
        let r = rng.next_u64();
        if excess == 0 || r < u64::MAX - excess + 1 {
            return lo + r % span;
        }
    }
}

macro_rules! impl_sample_uniform_unsigned {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                uniform_u64_inclusive(rng, lo as u64, hi as u64) as $t
            }

            fn sample_exclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                uniform_u64_inclusive(rng, lo as u64, hi as u64 - 1) as $t
            }
        }
    )*};
}

impl_sample_uniform_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_uniform_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                // Flip the sign bit: an order-preserving bijection into $u.
                const FLIP: $u = 1 << (<$u>::BITS - 1);
                let lo = (lo as $u) ^ FLIP;
                let hi = (hi as $u) ^ FLIP;
                ((uniform_u64_inclusive(rng, lo as u64, hi as u64) as $u) ^ FLIP) as $t
            }

            fn sample_exclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                const FLIP: $u = 1 << (<$u>::BITS - 1);
                let lo = (lo as $u) ^ FLIP;
                let hi = ((hi as $u) ^ FLIP) - 1;
                ((uniform_u64_inclusive(rng, lo as u64, hi as u64) as $u) ^ FLIP) as $t
            }
        }
    )*};
}

impl_sample_uniform_signed!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

impl<T: SampleUniform + PartialOrd> SampleRange<T> for core::ops::Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range: empty range");
        T::sample_exclusive(rng, self.start, self.end)
    }
}

impl<T: SampleUniform + PartialOrd> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range: empty range");
        T::sample_inclusive(rng, lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
            let z = rng.gen_range(0usize..3);
            assert!(z < 3);
        }
    }

    #[test]
    fn gen_range_hits_all_values() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_standard_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn mean_of_unit_draws_is_centered() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.gen::<f64>()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
