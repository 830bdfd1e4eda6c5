//! The artifact layout as a committed fact.
//!
//! Changes to the encoder promise "no artifact byte moved"; this pins
//! it. For four TPC-H artifacts, `inspect(&encode(&prepared))` must
//! report the committed file size and the committed offset and length
//! of every section; the sections' sums are checked by `inspect` itself
//! against the bytes. No sum is pinned: every section left holds an
//! `f64` or a string that formats one, so a libm result could reach its
//! digest. What a load builds of the memo — the link tables — is pinned
//! by `tests/links_golden.rs`. Constants generated for format v4 (five
//! sections, 32-byte alignment, four-lane sums); the other sections'
//! bytes are v3's, moved.
//!
//! A change that *means* to move a byte bumps `FORMAT_VERSION`,
//! regenerates the constants (the failure message prints the new rows)
//! and says so; any other change must reproduce them.

use plansample::PreparedQuery;
use plansample_artifact::{encode, inspect, FORMAT_VERSION};
use plansample_optimizer::OptimizerConfig;
use plansample_query::QuerySpec;

/// `(name, offset, len)` of the five sections, in file order.
type Layout = [(&'static str, u64, u64); 5];

struct Golden {
    label: &'static str,
    total_bytes: u64,
    layout: Layout,
}

/// What `golden`'s artifact measures instead, if it is not the
/// committed layout.
fn mismatch(query: QuerySpec, config: &OptimizerConfig, golden: &Golden) -> Option<String> {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let prepared = PreparedQuery::prepare(&catalog, &query, config).expect("TPC-H optimizes");
    let info = inspect(&encode(&prepared)).expect("a fresh image verifies");
    assert_eq!(info.version, FORMAT_VERSION);
    let layout: Vec<_> = info
        .sections
        .iter()
        .map(|s| (s.name, s.offset, s.len))
        .collect();
    let same = info.total_bytes == golden.total_bytes && layout == golden.layout;
    (!same).then(|| format!("{}: {} B, {layout:?}", golden.label, info.total_bytes))
}

#[test]
fn tpch_artifact_layouts_are_the_committed_ones() {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let default = OptimizerConfig::default();
    let moved: Vec<String> = [
        mismatch(
            plansample_query::tpch::q8(&catalog),
            &OptimizerConfig::with_cross_products(),
            &Q8CP,
        ),
        mismatch(plansample_query::tpch::q8(&catalog), &default, &Q8),
        mismatch(plansample_query::tpch::q5(&catalog), &default, &Q5),
        mismatch(plansample_query::tpch::q10(&catalog), &default, &Q10),
    ]
    .into_iter()
    .flatten()
    .collect();
    assert!(
        moved.is_empty(),
        "artifact bytes moved; measured:\n{}",
        moved.join("\n")
    );
}

const Q8CP: Golden = Golden {
    label: "Q8+CP",
    total_bytes: 785_996,
    layout: [
        ("meta", 192, 2_035),
        ("query", 2_240, 381),
        ("config", 2_624, 69),
        ("memo", 2_720, 783_068),
        ("best", 785_792, 204),
    ],
};

const Q8: Golden = Golden {
    label: "Q8",
    total_bytes: 29_804,
    layout: [
        ("meta", 192, 2_036),
        ("query", 2_240, 381),
        ("config", 2_624, 69),
        ("memo", 2_720, 26_871),
        ("best", 29_600, 204),
    ],
};

const Q5: Golden = Golden {
    label: "Q5",
    total_bytes: 20_412,
    layout: [
        ("meta", 192, 1_697),
        ("query", 1_920, 290),
        ("config", 2_240, 69),
        ("memo", 2_336, 17_906),
        ("best", 20_256, 156),
    ],
};

const Q10: Golden = Golden {
    label: "Q10",
    total_bytes: 4_684,
    layout: [
        ("meta", 192, 1_167),
        ("query", 1_376, 174),
        ("config", 1_568, 69),
        ("memo", 1_664, 2_901),
        ("best", 4_576, 108),
    ],
};
