//! Fault injection: hostile or damaged artifact bytes must surface as
//! the *right* typed [`ArtifactError`] — never a panic, never UB, and
//! never a silently wrong plan space — and an [`ArtifactStore`] that
//! trips over a damaged file must quarantine it and keep serving.
//!
//! The decode validation order is part of the format contract
//! (docs/DESIGN.md §10) and is pinned here: length → magic → version →
//! section-table bounds → whole-file checksum → per-section checksums →
//! structural decode. Each fault class below targets one stage and
//! asserts the error *that stage* names, not a downstream side effect.

use plansample_artifact::{decode, inspect, ArtifactError, ArtifactStore, FORMAT_VERSION};
use plansample_core::PreparedQuery;
use plansample_memo::validate_plan;
use plansample_optimizer::OptimizerConfig;
use plansample_query::QuerySpec;
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;

const HEADER_LEN: usize = 32;
const ENTRY_LEN: usize = 32;

fn q5() -> (QuerySpec, OptimizerConfig, PreparedQuery) {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let query = plansample_query::tpch::q5(&catalog);
    let config = OptimizerConfig::default();
    let prepared = PreparedQuery::prepare(&catalog, &query, &config).expect("q5 optimizes");
    (query, config, prepared)
}

fn image() -> Vec<u8> {
    plansample_artifact::encode(&q5().2)
}

/// Recomputes the whole-file checksum after a deliberate header-zone
/// patch, so the fault under test — not the checksum it incidentally
/// broke — is what the decoder sees.
fn reseal(bytes: &mut [u8]) {
    let sum = plansample_artifact::lane_sum(&bytes[HEADER_LEN..]);
    bytes[16..24].copy_from_slice(&sum.to_le_bytes());
}

// ---------------------------------------------------------------------
// One fault class per validation stage.
// ---------------------------------------------------------------------

#[test]
fn zero_length_and_short_files_are_truncated() {
    assert!(matches!(decode(&[]), Err(ArtifactError::Truncated { .. })));
    let bytes = image();
    // Every prefix shorter than the header is Truncated — even ones
    // that still start with the full magic.
    for len in [1, 7, 8, 16, HEADER_LEN - 1] {
        assert!(
            matches!(decode(&bytes[..len]), Err(ArtifactError::Truncated { .. })),
            "prefix of {len} bytes must be Truncated"
        );
    }
    // A header that declares sections the file does not contain.
    assert!(matches!(
        decode(&bytes[..HEADER_LEN + ENTRY_LEN / 2]),
        Err(ArtifactError::Truncated { .. })
    ));
}

#[test]
fn wrong_magic_is_bad_magic() {
    let mut bytes = image();
    bytes[0..8].copy_from_slice(b"NOTMAGIC");
    assert!(matches!(decode(&bytes), Err(ArtifactError::BadMagic)));
    // Magic is checked before everything but length: even a otherwise
    // empty header-sized file reports BadMagic, not a checksum error.
    let mut stub = vec![0u8; HEADER_LEN];
    stub[0..8].copy_from_slice(b"12345678");
    assert!(matches!(decode(&stub), Err(ArtifactError::BadMagic)));
}

#[test]
fn future_version_is_version_mismatch() {
    let mut bytes = image();
    let bumped = FORMAT_VERSION + 1;
    bytes[8..12].copy_from_slice(&bumped.to_le_bytes());
    // Version precedes the checksums in the validation order, so no
    // resealing is needed: the mismatch must be reported as a version
    // problem even though the file checksum is now stale too.
    match decode(&bytes) {
        Err(ArtifactError::VersionMismatch { found }) => assert_eq!(found, bumped),
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    // `inspect` applies the same gate.
    assert!(matches!(
        inspect(&bytes),
        Err(ArtifactError::VersionMismatch { .. })
    ));
}

/// Format v1 stored counts as `Nat` limb pools; v2 stored the tier.
/// Old files are caches, not data: they are rejected by version — the
/// typed error the store quarantines and re-prepares on — never
/// reinterpreted.
#[test]
fn a_v1_header_is_version_mismatch() {
    let mut bytes = image();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    reseal(&mut bytes);
    match decode(&bytes) {
        Err(ArtifactError::VersionMismatch { found }) => assert_eq!(found, 1),
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

/// Format v2 stored the counts and summed on one chain; v3 summed on
/// four, and stored the links. A v2 header — version 2, sealed with v2's
/// whole-file sum (`checksum`) — and a v3 header, sealed with v3's
/// (`lane_sum`), are each refused by version before any sum is read,
/// and a store holding one quarantines it and is healed by the next
/// preparation.
#[test]
fn a_v2_header_is_version_mismatch_and_the_store_replaces_it() {
    let (query, config, prepared) = q5();
    type Seal = fn(&[u8]) -> u64;
    let seals: [(u32, Seal); 2] = [
        (2, plansample_artifact::checksum),
        (3, plansample_artifact::lane_sum),
    ];
    for (version, seal) in seals {
        let mut bytes = plansample_artifact::encode(&prepared);
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let sum = seal(&bytes[HEADER_LEN..]);
        bytes[16..24].copy_from_slice(&sum.to_le_bytes());
        for result in [decode(&bytes).map(|_| ()), inspect(&bytes).map(|_| ())] {
            match result {
                Err(ArtifactError::VersionMismatch { found }) => assert_eq!(found, version),
                other => panic!("expected VersionMismatch, got {other:?}"),
            }
        }

        let dir = temp_dir(&format!("v{version}"));
        let store = ArtifactStore::open(&dir).unwrap();
        let path = store.path_for(&query, &config);
        fs::write(&path, &bytes).unwrap();
        match store.load(&query, &config) {
            Err(ArtifactError::VersionMismatch { found }) => assert_eq!(found, version),
            other => panic!("expected VersionMismatch, got {:?}", other.map(|_| ())),
        }
        assert!(!path.exists() && path.with_extension("quarantined").exists());
        assert!(store.load(&query, &config).unwrap().is_none());
        let (catalog, _) = plansample_catalog::tpch::catalog();
        let again = PreparedQuery::prepare(&catalog, &query, &config).expect("q5 optimizes");
        store.save(&again).unwrap();
        let healed = store
            .load(&query, &config)
            .unwrap()
            .expect("a current artifact");
        assert_eq!(healed.total(), prepared.total());
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn section_table_past_eof_is_truncated() {
    // Point the first section's offset beyond the file. Bounds are
    // validated *before* any checksum, so the error names the actual
    // damage (a table pointing past EOF) rather than the checksum it
    // invalidates.
    let mut bytes = image();
    let e = HEADER_LEN;
    let huge = (bytes.len() as u64 + 1).to_le_bytes();
    bytes[e + 8..e + 16].copy_from_slice(&huge);
    assert!(matches!(
        decode(&bytes),
        Err(ArtifactError::Truncated { .. })
    ));

    // Same with an offset+len that overflows u64.
    let mut bytes = image();
    bytes[e + 8..e + 16].copy_from_slice(&u64::MAX.to_le_bytes());
    bytes[e + 16..e + 24].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        decode(&bytes),
        Err(ArtifactError::Truncated { .. })
    ));

    // And a file cut mid-payload: the (intact) table points past the
    // new EOF.
    let bytes = image();
    let cut = &bytes[..bytes.len() - 16];
    assert!(matches!(decode(cut), Err(ArtifactError::Truncated { .. })));
}

#[test]
fn flipped_bytes_are_checksum_mismatch() {
    // A flip in the stored whole-file checksum itself.
    let mut bytes = image();
    bytes[17] ^= 0x01;
    assert!(matches!(
        decode(&bytes),
        Err(ArtifactError::ChecksumMismatch { section: "file" })
    ));

    // A flip in a payload byte: the file checksum catches it first
    // (every payload byte is under both checksums).
    let mut bytes = image();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x80;
    assert!(matches!(
        decode(&bytes),
        Err(ArtifactError::ChecksumMismatch { section: "file" })
    ));

    // A flip in a *section* checksum field (inside the table): reseal
    // the file checksum so the per-section verification is what fires,
    // and the error names the damaged section.
    let mut bytes = image();
    let e = HEADER_LEN; // first table entry = meta
    bytes[e + 24] ^= 0x01;
    reseal(&mut bytes);
    assert!(matches!(
        decode(&bytes),
        Err(ArtifactError::ChecksumMismatch { section: "meta" })
    ));
}

#[test]
fn structural_damage_behind_valid_checksums_is_malformed() {
    // Corrupt a payload *and* reseal both checksums — simulating a
    // writer bug or deliberate tamper rather than bit rot. The decoder
    // must fall through to structural validation, not trust the sums.
    let bytes = image();
    let info = inspect(&bytes).expect("pristine image inspects");
    let memo = info
        .sections
        .iter()
        .position(|s| s.name == "memo")
        .expect("memo section present");
    let (off, len) = (
        info.sections[memo].offset as usize,
        info.sections[memo].len as usize,
    );
    let mut bytes = bytes;
    // Blow up the declared group count in the memo payload.
    bytes[off + 4..off + 8].copy_from_slice(&u32::MAX.to_le_bytes());
    let e = HEADER_LEN + memo * ENTRY_LEN;
    let sum = plansample_artifact::lane_sum(&bytes[off..off + len]);
    bytes[e + 24..e + 32].copy_from_slice(&sum.to_le_bytes());
    reseal(&mut bytes);
    match decode(&bytes) {
        Err(ArtifactError::Truncated { .. }) | Err(ArtifactError::Malformed { .. }) => {}
        other => panic!("expected a structural error, got {other:?}"),
    }
}

/// Where the memo section lies — its table index, offset and length —
/// and how many groups it declares.
fn memo_section(bytes: &[u8]) -> (usize, usize, usize, u32) {
    let info = inspect(bytes).expect("pristine image inspects");
    let index = info.sections.iter().position(|s| s.name == "memo");
    let index = index.expect("memo section present");
    let (offset, len) = (info.sections[index].offset, info.sections[index].len);
    let (offset, len) = (offset as usize, len as usize);
    let groups = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
    (index, offset, len, groups)
}

/// Makes the stored sums of section `index` and of the file right for
/// the bytes as they are.
fn reseal_section(bytes: &mut [u8], index: usize) {
    let e = HEADER_LEN + index * ENTRY_LEN;
    let offset = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap()) as usize;
    let len = u64::from_le_bytes(bytes[e + 16..e + 24].try_into().unwrap()) as usize;
    let sum = plansample_artifact::lane_sum(&bytes[offset..offset + len]);
    bytes[e + 24..e + 32].copy_from_slice(&sum.to_le_bytes());
    reseal(bytes);
}

/// Q5's image, encoded once for the mutation property below.
fn pristine() -> &'static [u8] {
    static IMAGE: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    IMAGE.get_or_init(image)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Totality of a load behind right sums: any one `u32` of the memo
    /// section rewritten — at any byte, so group ids, counts, tags and
    /// columns alike — to a boundary of the group range (0, n−1, n, n+1
    /// for n groups), to `u32::MAX` or to anything, and resealed, decodes
    /// to a typed error or to a space whose first and last plans are
    /// plans of its memo and rank back to their ranks. Never a panic.
    #[test]
    fn any_rewritten_memo_word_is_refused_or_sound(
        raw in any::<usize>(),
        choice in 0usize..6,
        anything in any::<u32>(),
    ) {
        let mut bytes = pristine().to_vec();
        let (index, offset, len, n) = memo_section(&bytes);
        let at = offset + raw % (len - 3);
        let value = [0, n.wrapping_sub(1), n, n + 1, u32::MAX, anything][choice];
        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
        reseal_section(&mut bytes, index);
        prop_assert!(inspect(&bytes).is_ok());
        if let Ok(prepared) = decode(&bytes) {
            let total = prepared.total().clone();
            if !total.is_zero() {
                let mut last = total.clone();
                last.decr();
                for rank in [plansample_bignum::Nat::zero(), last] {
                    let plan = prepared.unrank(&rank).expect("a rank below the total");
                    let violations = validate_plan(prepared.memo(), prepared.query(), &plan);
                    prop_assert!(violations.is_empty(), "rank {rank}: {violations:?}");
                    prop_assert_eq!(prepared.rank(&plan).expect("its own plan"), rank);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single flipped bit after the header is a checksum mismatch —
    /// the window where storage corruption lands.
    #[test]
    fn any_single_bit_flip_after_the_header_is_caught(
        raw in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut bytes = image();
        let at = HEADER_LEN + raw % (bytes.len() - HEADER_LEN);
        bytes[at] ^= 1 << bit;
        prop_assert!(
            matches!(decode(&bytes), Err(ArtifactError::ChecksumMismatch { .. })),
            "flip at byte {at} bit {bit} not caught as corruption"
        );
    }

    /// Truncation at *any* point yields a typed error, never a panic.
    #[test]
    fn truncation_anywhere_is_a_typed_error(raw in any::<usize>()) {
        let bytes = image();
        let cut = raw % bytes.len();
        prop_assert!(decode(&bytes[..cut]).is_err());
    }

    /// Arbitrary byte soup never panics the decoder (or the inspector).
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes);
        let _ = inspect(&bytes);
    }
}

// ---------------------------------------------------------------------
// The store keeps serving through every fault class.
// ---------------------------------------------------------------------

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("plansample-fault-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn store_quarantines_each_fault_class_and_keeps_serving() {
    let dir = temp_dir("classes");
    let store = ArtifactStore::open(&dir).unwrap();
    let (query, config, prepared) = q5();

    type Fault = Box<dyn Fn(Vec<u8>) -> Vec<u8>>;
    let faults: Vec<(&str, Fault)> = vec![
        ("zero-length", Box::new(|_| Vec::new())),
        (
            "truncated",
            Box::new(|b: Vec<u8>| b[..b.len() / 2].to_vec()),
        ),
        (
            "bad-magic",
            Box::new(|mut b: Vec<u8>| {
                b[0..8].copy_from_slice(b"NOTMAGIC");
                b
            }),
        ),
        (
            "future-version",
            Box::new(|mut b: Vec<u8>| {
                b[8..12].copy_from_slice(&(FORMAT_VERSION + 9).to_le_bytes());
                b
            }),
        ),
        (
            "bit-flip",
            Box::new(|mut b: Vec<u8>| {
                let at = b.len() - 3;
                b[at] ^= 0x10;
                b
            }),
        ),
        (
            "table-past-eof",
            Box::new(|mut b: Vec<u8>| {
                let huge = (b.len() as u64 * 2).to_le_bytes();
                b[HEADER_LEN + 8..HEADER_LEN + 16].copy_from_slice(&huge);
                b
            }),
        ),
    ];

    for (name, corrupt) in faults {
        let path = store.save(&prepared).unwrap();
        let pristine = fs::read(&path).unwrap();
        fs::write(&path, corrupt(pristine)).unwrap();

        // The damaged entry is reported typed…
        assert!(
            store.load(&query, &config).is_err(),
            "{name}: corrupt entry must fail typed"
        );
        // …moved aside…
        assert!(!path.exists(), "{name}: corrupt file must be quarantined");
        assert!(
            path.with_extension("quarantined").exists(),
            "{name}: quarantine file must exist"
        );
        // …and the store keeps serving: clean miss, then a re-publish
        // heals the entry.
        assert!(store.load(&query, &config).unwrap().is_none(), "{name}");
        store.save(&prepared).unwrap();
        let healed = store.load(&query, &config).unwrap().expect("healed hit");
        assert_eq!(healed.total(), prepared.total(), "{name}");
        // Reset for the next fault class.
        let _ = fs::remove_file(path.with_extension("quarantined"));
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn warming_skips_damaged_entries_and_loads_the_rest() {
    let dir = temp_dir("warm");
    let store = ArtifactStore::open(&dir).unwrap();
    let (query, config, prepared) = q5();
    store.save(&prepared).unwrap();

    // A second, damaged artifact sits next to the good one.
    let bad = dir.join("00000000deadbeef.plan");
    let mut bytes = plansample_artifact::encode(&prepared);
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    fs::write(&bad, &bytes).unwrap();

    let mut admitted = Vec::new();
    let report = store
        .warm(|p| {
            admitted.push(p);
            true
        })
        .unwrap();
    assert_eq!(report.loaded, 1, "good entry admitted");
    assert_eq!(report.quarantined, 1, "bad entry quarantined");
    let [good] = &admitted[..] else {
        panic!("admitted {} artifacts", admitted.len());
    };
    assert_eq!(
        plansample_core::cache_key(good.query(), good.config()),
        plansample_core::cache_key(&query, &config)
    );
    assert!(!bad.exists());
    assert!(bad.with_extension("quarantined").exists());
    let _ = fs::remove_dir_all(&dir);
}
