//! Persistent plan-space artifacts: a versioned on-disk format for
//! [`PreparedQuery`] and a directory store keyed by normalized query +
//! optimizer-config fingerprint.
//!
//! The paper's value proposition is *compute once, reuse many times*:
//! the MEMO is populated and counted once, then every count / unrank /
//! sample is cheap. Until now that state died with the process — every
//! serve-fleet restart re-optimized and re-counted (clique-10: seconds
//! and ~700k expressions per process). This crate makes the prepared
//! state durable:
//!
//! * [`encode`] / [`decode`] turn a [`PreparedQuery`] into a
//!   self-contained byte image and back. The format (see [`mod@format`] and
//!   docs/DESIGN.md §10) is sectioned — query, optimizer config, memo
//!   tables, best plan — with per-section and whole-file sums
//!   ([`lane_sum`]) and 32-byte alignment, so both kinds of sum are
//!   verified in one pass. Neither the links nor the counts are stored:
//!   [`decode`] scans the loaded memo for its links (§3.1), as a prepare
//!   does, and folds the counts over them (§3.2), so a loaded plan space
//!   is its memo's by construction.
//! * [`save`] / [`load`] are the file-level pair; `save` publishes
//!   atomically (write to a temp file in the same directory, then
//!   rename) so readers never observe a half-written artifact.
//! * [`ArtifactStore`] is a directory of artifacts addressed by the
//!   *same* normalized fingerprint [`plansample_core::cache_key`] uses
//!   — a server's cache key without its scope. It quarantines corrupt
//!   or stale entries instead of serving them and, at startup, offers
//!   every artifact it holds to whoever warms a cache from it.
//!
//! Decoding is *hostile-input safe*: every read is bounds-checked, the
//! memo is held to an optimizer's shape (`Memo::from_parts`: distinct
//! groups and operators, every scan in its own relation's group, every
//! join splitting its group's relation set between its inputs) and the
//! plan graph rebuilt (`Links::build`), so a truncated, bit-flipped, or
//! adversarial file surfaces as a typed [`ArtifactError`] — never UB,
//! never a panic, never links that are not the memo's. The shape check
//! is the load's one guard on the memo: a memo built in the program is
//! held to the same shape as it is built, so a stored plan graph is, as
//! every memo's is, acyclic and at most 130 levels deep with counts
//! below 2⁸¹⁹², and the scan and the count fold are a prepare's,
//! unguarded. What a load allocates for the
//! links is bounded by the memo's expression count
//! (`MAX_POOL_PER_EXPR` pool entries each); its time is not bounded by
//! the file's size: the scan is quadratic in the classes of one group,
//! which a stored memo can make large (docs/DESIGN.md §10). The correctness
//! contract is round-trip *bit identity*: a loaded artifact answers
//! `total`/`unrank`/`sample_batch`/`best` byte-identically to the one
//! that was saved (asserted by the workspace round-trip suites and the
//! serving smoke test).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod codec;
pub mod format;
mod store;

pub use format::{
    decode, encode, inspect, load, save, Inspection, SectionInfo, FORMAT_VERSION, MAGIC,
};
pub use store::{ArtifactStore, WarmReport};

use plansample_core::SpaceError;
use std::fmt;

#[cfg(doc)]
use plansample_core::PreparedQuery;

/// Why an artifact could not be read (or written). Every decode failure
/// is typed — hostile bytes can select *which* error they get, never
/// whether they get one.
#[derive(Debug)]
pub enum ArtifactError {
    /// The file does not start with [`MAGIC`] — not an artifact at all.
    BadMagic,
    /// The format version is not [`FORMAT_VERSION`]. Artifacts are not
    /// migrated in place; re-prepare and re-save (docs/DESIGN.md §10).
    VersionMismatch {
        /// The version the file declares.
        found: u32,
    },
    /// A checksum did not match its bytes: the file was corrupted after
    /// it was written (or tampered with).
    ChecksumMismatch {
        /// Which checksum failed: a section name, or `"file"` for the
        /// whole-file checksum.
        section: &'static str,
    },
    /// The file ended before the data it declares — a cut-short
    /// download, a section table pointing past EOF, or a length prefix
    /// larger than its section.
    Truncated {
        /// What was being read when the bytes ran out.
        detail: String,
    },
    /// The bytes decode but do not describe a plan space — duplicate
    /// group keys, out-of-range ids, an operator in a group it does not
    /// fit, a fingerprint that disagrees with the content, and so on.
    Malformed {
        /// The first violated invariant.
        reason: String,
    },
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::BadMagic => write!(f, "not a plan-space artifact (bad magic)"),
            ArtifactError::VersionMismatch { found } => write!(
                f,
                "artifact format version {found} is not the supported version {FORMAT_VERSION}"
            ),
            ArtifactError::ChecksumMismatch { section } => {
                write!(f, "artifact {section} checksum mismatch (corrupt file)")
            }
            ArtifactError::Truncated { detail } => write!(f, "artifact truncated: {detail}"),
            ArtifactError::Malformed { reason } => write!(f, "artifact malformed: {reason}"),
            ArtifactError::Io(e) => write!(f, "artifact i/o error: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

impl From<SpaceError> for ArtifactError {
    fn from(e: SpaceError) -> Self {
        ArtifactError::Malformed {
            reason: e.to_string(),
        }
    }
}

/// Fast non-cryptographic 64-bit checksum (word-at-a-time
/// multiply-rotate, FxHash-style): one chain of `sum::step`. Detects
/// the corruption classes that matter for storage — truncation, bit
/// flips, swapped blocks — and makes no adversarial-collision claims
/// (an attacker who can rewrite the artifact can rewrite its checksums
/// too, which is why the *decoder* revalidates every structural
/// invariant). A stable digest: the store names files by it and tests
/// pin its values. The artifact format's own sums are [`lane_sum`].
pub fn checksum(bytes: &[u8]) -> u64 {
    sum::feed(sum::start(bytes.len()), bytes)
}

/// The integrity sum the artifact format stores, for the whole file and
/// for each section: [`checksum`]'s step on four independent chains.
///
/// The input is zero-padded to a multiple of 32 bytes and read as
/// blocks of four little-endian words; word `j` of every block is
/// stepped into chain `j`. Each chain starts from the input's length and
/// its own index, and the four are folded into one value at the end. A
/// single chain waits out the multiply's latency on every word; four
/// keep the multiplier busy (≈ 3.8× faster over a 1.3 MB image, DESIGN
/// §10), and the error classes [`checksum`] catches are caught the same
/// way, lane by lane.
pub fn lane_sum(bytes: &[u8]) -> u64 {
    let mut lanes = sum::Lanes::start(bytes.len());
    lanes.feed(bytes);
    lanes.finish()
}

/// The steps [`checksum`] and [`lane_sum`] are made of. The decoder's
/// one-pass verification (`format::parse_sections`) runs a section's
/// lanes beside the whole file's over the same blocks.
pub(crate) mod sum {
    /// A chain's state before its first word, for `len` bytes of input.
    pub fn start(len: usize) -> u64 {
        0x9e37_79b9_7f4a_7c15 ^ len as u64
    }

    /// One little-endian word into a chain.
    #[inline]
    pub fn step(h: u64, word: u64) -> u64 {
        (h ^ word)
            .rotate_left(5)
            .wrapping_mul(0x517c_c1b7_2722_0a95)
    }

    /// The last, short word of an input: zero-padded to eight bytes.
    /// Nothing for an empty `rem`.
    #[inline]
    pub fn tail(h: u64, rem: &[u8]) -> u64 {
        if rem.is_empty() {
            return h;
        }
        let mut word = [0u8; 8];
        word[..rem.len()].copy_from_slice(rem);
        step(h, u64::from_le_bytes(word))
    }

    /// `bytes` into a chain: whole words, then the [`tail`] — so only
    /// an input's last piece may be a length that is not a multiple of 8.
    pub fn feed(mut h: u64, bytes: &[u8]) -> u64 {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            h = step(h, u64::from_le_bytes(w.try_into().expect("chunks of 8")));
        }
        tail(h, words.remainder())
    }

    /// Bytes in one block: a word for each lane.
    pub const BLOCK: usize = 32;

    /// The four chains of a [`lane_sum`](crate::lane_sum).
    pub struct Lanes([u64; 4]);

    impl Lanes {
        /// Four chains before their first block, for `len` bytes of
        /// input: each starts from the length and its own index, so
        /// words moved from one lane to another change the sum.
        pub fn start(len: usize) -> Lanes {
            let h = start(len);
            Lanes([step(h, 0), step(h, 1), step(h, 2), step(h, 3)])
        }

        /// One block: word `j` into lane `j`.
        #[inline]
        pub fn block(&mut self, block: &[u8; BLOCK]) {
            for (j, lane) in self.0.iter_mut().enumerate() {
                let word = block[8 * j..8 * j + 8].try_into().expect("8 bytes");
                *lane = step(*lane, u64::from_le_bytes(word));
            }
        }

        /// `bytes` as blocks, the last one zero-padded: only an input's
        /// last piece may be a length that is not a multiple of
        /// [`BLOCK`].
        pub fn feed(&mut self, bytes: &[u8]) {
            let mut blocks = bytes.chunks_exact(BLOCK);
            for b in &mut blocks {
                self.block(b.try_into().expect("chunks of a block"));
            }
            let rem = blocks.remainder();
            if !rem.is_empty() {
                self.block(&padded(rem));
            }
        }

        /// The four lanes, folded in lane order into one sum.
        pub fn finish(self) -> u64 {
            self.0.into_iter().fold(start(0), step)
        }
    }

    /// The first bytes of a block, zero-padded to a whole one.
    pub fn padded(bytes: &[u8]) -> [u8; BLOCK] {
        let mut block = [0u8; BLOCK];
        block[..bytes.len()].copy_from_slice(bytes);
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_sees_every_byte() {
        let base: Vec<u8> = (0..100u8).collect();
        let reference = checksum(&base);
        assert_eq!(checksum(&base), reference, "deterministic");
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 1;
            assert_ne!(checksum(&flipped), reference, "flip at {i} undetected");
        }
        assert_ne!(checksum(&base[..99]), reference, "truncation undetected");
        assert_ne!(checksum(&[]), checksum(&[0]), "length participates");
    }

    #[test]
    fn lane_sum_sees_every_bit() {
        for len in [100, 1000] {
            let base: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let reference = lane_sum(&base);
            assert_eq!(lane_sum(&base), reference, "deterministic");
            for i in 0..len {
                for bit in 0..8 {
                    let mut flipped = base.clone();
                    flipped[i] ^= 1 << bit;
                    assert_ne!(lane_sum(&flipped), reference, "{len} B: flip {i}.{bit}");
                }
            }
        }
    }

    /// The zero padding of the last block is not the input's: inputs
    /// that pad to the same blocks differ in length, and the length
    /// starts every lane.
    #[test]
    fn lane_sum_length_participates() {
        let sums: Vec<u64> = (0..=64).map(|n| lane_sum(&vec![0u8; n])).collect();
        for (a, x) in sums.iter().enumerate() {
            for (b, y) in sums.iter().enumerate().skip(a + 1) {
                assert_ne!(x, y, "{a} and {b} zero bytes");
            }
        }
        let base: Vec<u8> = (0..100u8).collect();
        assert_ne!(lane_sum(&base[..99]), lane_sum(&base), "truncation");
    }

    /// Words swapped within one lane (words 1 and 5 are both lane 1's)
    /// and across lanes (words 1 and 2, or 3 and 4 across a block
    /// boundary) change the sum.
    #[test]
    fn lane_sum_sees_swapped_words() {
        let base: Vec<u8> = (0..=255u8).collect();
        let reference = lane_sum(&base);
        let swapped = |a: usize, b: usize| {
            let mut bytes = base.clone();
            for k in 0..8 {
                bytes.swap(8 * a + k, 8 * b + k);
            }
            lane_sum(&bytes)
        };
        for (a, b) in [(1, 5), (0, 28), (1, 2), (3, 4), (0, 31)] {
            assert_ne!(swapped(a, b), reference, "words {a} and {b}");
        }
        // Whole lanes trading places: every word of lane 0 with the
        // word beside it in lane 1.
        let mut lanes_traded = base.clone();
        for block in lanes_traded.chunks_exact_mut(32) {
            let (lane0, rest) = block.split_at_mut(8);
            lane0.swap_with_slice(&mut rest[..8]);
        }
        assert_ne!(lane_sum(&lanes_traded), reference, "lanes 0 and 1 traded");
    }

    /// `Lanes` fed piecewise on block boundaries is `lane_sum` of the
    /// whole, and the fold is not `checksum`.
    #[test]
    fn lanes_fed_in_blocks_are_the_whole() {
        let bytes: Vec<u8> = (0..1000u32).map(|i| (i * 31 % 251) as u8).collect();
        let mut lanes = sum::Lanes::start(bytes.len());
        for piece in bytes.chunks(sum::BLOCK * 3) {
            lanes.feed(piece);
        }
        assert_eq!(lanes.finish(), lane_sum(&bytes));
        assert_ne!(lane_sum(&bytes), checksum(&bytes));
    }
}
