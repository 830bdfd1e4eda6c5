//! Two stages broken at once: the *earlier* stage names the error.
//!
//! `fault_injection.rs` breaks one validation stage at a time. The
//! decoder computes the whole-file and per-section sums in one pass, so
//! what it has *computed* by the time it reports is no longer what it
//! reports first; these cases pin that the documented order (length →
//! magic → version → section-table bounds → whole-file checksum →
//! per-section checksums → structural decode) still decides, one case
//! per adjacent pair of stages.

use plansample_artifact::{decode, encode, inspect, lane_sum, ArtifactError, FORMAT_VERSION};
use plansample_core::PreparedQuery;
use plansample_optimizer::OptimizerConfig;

const HEADER_LEN: usize = 32;
const ENTRY_LEN: usize = 32;

fn image() -> Vec<u8> {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let query = plansample_query::tpch::q10(&catalog);
    let prepared = PreparedQuery::prepare(&catalog, &query, &OptimizerConfig::default())
        .expect("q10 optimizes");
    encode(&prepared)
}

/// Makes the stored whole-file sum right for the bytes as they are.
fn reseal(bytes: &mut [u8]) {
    let sum = lane_sum(&bytes[HEADER_LEN..]);
    bytes[16..24].copy_from_slice(&sum.to_le_bytes());
}

/// Table index, offset and length of the section called `name`.
fn section(bytes: &[u8], name: &str) -> (usize, usize, usize) {
    let info = inspect(bytes).expect("pristine image inspects");
    let at = info.sections.iter().position(|s| s.name == name);
    let at = at.expect("section present");
    let s = &info.sections[at];
    (at, s.offset as usize, s.len as usize)
}

fn point_first_section_past_eof(bytes: &mut [u8]) {
    let huge = (bytes.len() as u64 + 1).to_le_bytes();
    bytes[HEADER_LEN + 8..HEADER_LEN + 16].copy_from_slice(&huge);
}

fn flip_stored_section_sum(bytes: &mut [u8], index: usize) {
    bytes[HEADER_LEN + index * ENTRY_LEN + 24] ^= 0x01;
}

#[test]
fn a_short_file_with_a_bad_magic_is_truncated() {
    let mut bytes = image();
    bytes[0..8].copy_from_slice(b"NOTMAGIC");
    assert!(matches!(
        decode(&bytes[..HEADER_LEN - 1]),
        Err(ArtifactError::Truncated { .. })
    ));
}

#[test]
fn a_bad_magic_under_a_future_version_is_bad_magic() {
    let mut bytes = image();
    bytes[0..8].copy_from_slice(b"NOTMAGIC");
    bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    assert!(matches!(decode(&bytes), Err(ArtifactError::BadMagic)));
}

#[test]
fn a_future_version_with_a_table_past_eof_is_version_mismatch() {
    let mut bytes = image();
    bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    point_first_section_past_eof(&mut bytes);
    assert!(matches!(
        decode(&bytes),
        Err(ArtifactError::VersionMismatch { .. })
    ));
}

#[test]
fn a_table_past_eof_under_a_stale_file_sum_is_truncated() {
    let mut bytes = image();
    point_first_section_past_eof(&mut bytes);
    bytes[17] ^= 0x01;
    assert!(matches!(
        decode(&bytes),
        Err(ArtifactError::Truncated { .. })
    ));
}

#[test]
fn a_wrong_file_sum_over_a_wrong_section_sum_names_the_file() {
    // A payload flip breaks both sums of the byte; so does a flipped
    // stored section sum left unsealed, plus a flipped stored file sum.
    let mut bytes = image();
    let (_, offset, _) = section(&bytes, "best");
    bytes[offset + 9] ^= 0x40;
    assert!(matches!(
        decode(&bytes),
        Err(ArtifactError::ChecksumMismatch { section: "file" })
    ));

    let mut bytes = image();
    let (index, _, _) = section(&bytes, "best");
    flip_stored_section_sum(&mut bytes, index);
    bytes[17] ^= 0x01;
    for result in [decode(&bytes).map(|_| ()), inspect(&bytes).map(|_| ())] {
        assert!(matches!(
            result,
            Err(ArtifactError::ChecksumMismatch { section: "file" })
        ));
    }
}

#[test]
fn two_wrong_section_sums_name_the_first_in_table_order() {
    let mut bytes = image();
    let (config, _, _) = section(&bytes, "config");
    let (best, _, _) = section(&bytes, "best");
    assert!(config < best);
    flip_stored_section_sum(&mut bytes, best);
    flip_stored_section_sum(&mut bytes, config);
    reseal(&mut bytes);
    assert!(matches!(
        decode(&bytes),
        Err(ArtifactError::ChecksumMismatch { section: "config" })
    ));
}

#[test]
fn a_wrong_section_sum_over_structural_damage_names_the_section() {
    // The memo declares 2^32 - 1 groups (which alone reads as a
    // structural error, see `fault_injection.rs`), its stored sum is
    // left stale, and the file sum is made right.
    let mut bytes = image();
    let (_, offset, _) = section(&bytes, "memo");
    bytes[offset + 4..offset + 8].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut bytes);
    assert!(matches!(
        decode(&bytes),
        Err(ArtifactError::ChecksumMismatch { section: "memo" })
    ));
}
