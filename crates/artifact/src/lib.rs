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
//!   tables, CSR link arrays, count limbs, best plan — with per-section
//!   and whole-file checksums and 8-byte alignment so the flat
//!   `u32`/`u64` tables PR 4 already produced reload as bulk copies.
//! * [`save`] / [`load`] are the file-level pair; `save` publishes
//!   atomically (write to a temp file in the same directory, then
//!   rename) so readers never observe a half-written artifact.
//! * [`ArtifactStore`] is a directory of artifacts addressed by the
//!   *same* normalized fingerprint [`plansample_core::cache_key`] uses
//!   — a server's cache key without its scope. It quarantines corrupt
//!   or stale entries instead of serving them and, at startup, offers
//!   every artifact it holds to whoever warms a cache from it.
//!
//! Decoding is *hostile-input safe*: every read is bounds-checked and
//! every structural invariant re-validated (`Memo::from_parts`,
//! `Links::from_parts`, …), so a truncated, bit-flipped, or adversarial
//! file surfaces as a typed [`ArtifactError`] — never UB, never a
//! panic. The correctness contract is round-trip *bit identity*: a
//! loaded artifact answers `total`/`unrank`/`sample_batch`/`best`
//! byte-identically to the one that was saved (asserted by the
//! workspace round-trip suites and the serving smoke test).

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
    /// group keys, non-monotonic CSR bounds, out-of-range ids, a
    /// fingerprint that disagrees with the content, and so on.
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
/// multiply-rotate, FxHash-style). Detects the corruption classes that
/// matter for storage — truncation, bit flips, swapped blocks — at
/// memory-bandwidth speed; it makes no adversarial-collision claims
/// (an attacker who can rewrite the artifact can rewrite its checksums
/// too, which is why the *decoder* revalidates every structural
/// invariant).
pub fn checksum(bytes: &[u8]) -> u64 {
    sum::feed(sum::start(bytes.len()), bytes)
}

/// The steps [`checksum`] is made of, shared with the decoder's
/// one-pass verification (`format::parse_sections`), which runs the
/// whole-file chain and a section's chain over the same words.
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
}
