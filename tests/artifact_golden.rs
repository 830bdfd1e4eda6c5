//! The artifact layout as a committed fact.
//!
//! Changes to the encoder promise "no artifact byte moved"; this pins
//! it. For four TPC-H artifacts, `inspect(&encode(&prepared))` must
//! report the committed file size, the committed offset and length of
//! every section, and the committed stored sum of the integer-only
//! `links` section. It holds no `f64`, so no libm result reaches its
//! digest and the constants are the same on every host; the other
//! sections' sums are checked by `inspect` itself against the bytes.
//! Constants generated for format v3 (six sections, 32-byte alignment,
//! four-lane sums); the links' bytes are v2's, moved.
//!
//! A change that *means* to move a byte bumps `FORMAT_VERSION`,
//! regenerates the constants (the failure message prints the new rows)
//! and says so; any other change must reproduce them.

use plansample::PreparedQuery;
use plansample_artifact::{encode, inspect, FORMAT_VERSION};
use plansample_optimizer::OptimizerConfig;
use plansample_query::QuerySpec;

/// `(name, offset, len)` of the six sections, in file order.
type Layout = [(&'static str, u64, u64); 6];

struct Golden {
    label: &'static str,
    total_bytes: u64,
    layout: Layout,
    links_sum: u64,
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
    let sum_of = |name: &str| {
        let section = info.sections.iter().find(|s| s.name == name);
        section.expect("section present").checksum
    };
    let same = info.total_bytes == golden.total_bytes
        && layout == golden.layout
        && sum_of("links") == golden.links_sum;
    (!same).then(|| {
        format!(
            "{}: {} B, {layout:?}, links 0x{:016x}",
            golden.label,
            info.total_bytes,
            sum_of("links"),
        )
    })
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
    total_bytes: 1_323_116,
    layout: [
        ("meta", 224, 2_035),
        ("query", 2_272, 381),
        ("config", 2_656, 69),
        ("memo", 2_752, 783_068),
        ("links", 785_824, 537_068),
        ("best", 1_322_912, 204),
    ],
    links_sum: 0x68c4_5a92_bf42_9d17,
};

const Q8: Golden = Golden {
    label: "Q8",
    total_bytes: 49_324,
    layout: [
        ("meta", 224, 2_036),
        ("query", 2_272, 381),
        ("config", 2_656, 69),
        ("memo", 2_752, 26_871),
        ("links", 29_632, 19_476),
        ("best", 49_120, 204),
    ],
    links_sum: 0x4ced_8013_7f65_2b73,
};

const Q5: Golden = Golden {
    label: "Q5",
    total_bytes: 33_788,
    layout: [
        ("meta", 224, 1_697),
        ("query", 1_952, 290),
        ("config", 2_272, 69),
        ("memo", 2_368, 17_906),
        ("links", 20_288, 13_336),
        ("best", 33_632, 156),
    ],
    links_sum: 0xd032_26f0_b468_6d81,
};

const Q10: Golden = Golden {
    label: "Q10",
    total_bytes: 6_860,
    layout: [
        ("meta", 224, 1_167),
        ("query", 1_408, 174),
        ("config", 1_600, 69),
        ("memo", 1_696, 2_901),
        ("links", 4_608, 2_124),
        ("best", 6_752, 108),
    ],
    links_sum: 0x3503_b32c_ee73_d148,
};
