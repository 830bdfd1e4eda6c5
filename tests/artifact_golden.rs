//! The artifact layout as a committed fact.
//!
//! Changes to the encoder promise "no artifact byte moved"; this pins
//! it. For four TPC-H artifacts, `inspect(&encode(&prepared))` must
//! report the committed file size, the committed offset and length of
//! every section, and the committed stored checksums of the two
//! integer-only sections (`links`, `counts`). Those two hold no `f64`,
//! so no libm result reaches their digests and the constants are the
//! same on every host; the other sections' sums are checked by `inspect`
//! itself against the bytes. Constants generated at commit `5eae7b4`.
//!
//! A change that *means* to move a byte bumps `FORMAT_VERSION`,
//! regenerates the constants (the failure message prints the new rows)
//! and says so; any other change must reproduce them.

use plansample::PreparedQuery;
use plansample_artifact::{encode, inspect, FORMAT_VERSION};
use plansample_optimizer::OptimizerConfig;
use plansample_query::QuerySpec;

/// `(name, offset, len)` of the seven sections, in file order.
type Layout = [(&'static str, u64, u64); 7];

struct Golden {
    label: &'static str,
    total_bytes: u64,
    layout: Layout,
    links_sum: u64,
    counts_sum: u64,
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
        && sum_of("links") == golden.links_sum
        && sum_of("counts") == golden.counts_sum;
    (!same).then(|| {
        format!(
            "{}: {} B, {layout:?}, links 0x{:016x}, counts 0x{:016x}",
            golden.label,
            info.total_bytes,
            sum_of("links"),
            sum_of("counts")
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
    total_bytes: 1_512_780,
    layout: [
        ("meta", 256, 2_035),
        ("query", 2_296, 381),
        ("config", 2_680, 69),
        ("memo", 2_752, 783_068),
        ("links", 785_824, 537_068),
        ("counts", 1_322_896, 189_680),
        ("best", 1_512_576, 204),
    ],
    links_sum: 0x0bf5_6c8d_a2a7_d8b7,
    counts_sum: 0x6af5_3add_379d_8e2e,
};

const Q8: Golden = Golden {
    label: "Q8",
    total_bytes: 57_116,
    layout: [
        ("meta", 256, 2_036),
        ("query", 2_296, 381),
        ("config", 2_680, 69),
        ("memo", 2_752, 26_871),
        ("links", 29_624, 19_476),
        ("counts", 49_104, 7_808),
        ("best", 56_912, 204),
    ],
    links_sum: 0x7c71_82d2_1d67_b808,
    counts_sum: 0xe442_57e5_5131_4479,
};

const Q5: Golden = Golden {
    label: "Q5",
    total_bytes: 39_060,
    layout: [
        ("meta", 256, 1_697),
        ("query", 1_960, 290),
        ("config", 2_256, 69),
        ("memo", 2_328, 17_906),
        ("links", 20_240, 13_336),
        ("counts", 33_576, 5_328),
        ("best", 38_904, 156),
    ],
    links_sum: 0x460c_98f8_a845_673a,
    counts_sum: 0xe736_37c2_7328_470d,
};

const Q10: Golden = Golden {
    label: "Q10",
    total_bytes: 7_804,
    layout: [
        ("meta", 256, 1_167),
        ("query", 1_424, 174),
        ("config", 1_600, 69),
        ("memo", 1_672, 2_901),
        ("links", 4_576, 2_124),
        ("counts", 6_704, 992),
        ("best", 7_696, 108),
    ],
    links_sum: 0x9cb5_d136_29ef_3b1f,
    counts_sum: 0xf1a4_5506_8e66_1ad4,
};
