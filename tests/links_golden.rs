//! The link tables as a committed fact.
//!
//! Several changes to `Links::build` and its inputs each promised
//! "every artifact byte unchanged" from side-by-side scratch builds;
//! this pins it. For two TPC-H spaces and four synthesized join graphs
//! the five `u32` tables of [`LinksParts`] are concatenated
//! little-endian and checksummed, and the digest, the number of
//! interned lists and the space total are compared with constants
//! generated at commit `638d76e`. Integer tables only: no `f64` cost —
//! so no libm — reaches the digest, and it is the same on every host.
//!
//! A change that *means* to move list ids, pool layout or topo order
//! regenerates the constants (the failure message prints the new row)
//! and says so; any other change must reproduce them.

use plansample::{LinksParts, PlanSpace};
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_optimizer::{optimize, OptimizerConfig};
use std::sync::Arc;

/// `(digest, interned lists, total)` of one space.
type Golden = (u64, usize, &'static str);

fn digest(space: &PlanSpace) -> (u64, usize, String) {
    let LinksParts {
        pool,
        list_bounds,
        slot_lists,
        slot_bounds,
        topo,
        root_list: _,
    } = space.links().to_parts();
    let bytes: Vec<u8> = [pool, list_bounds, slot_lists, slot_bounds, topo]
        .iter()
        .flatten()
        .flat_map(|word| word.to_le_bytes())
        .collect();
    (
        plansample_artifact::checksum(&bytes),
        space.links().num_lists(),
        space.total().to_string(),
    )
}

fn assert_golden(label: &str, space: &PlanSpace, golden: Golden) {
    let (sum, lists, total) = digest(space);
    assert_eq!(
        (sum, lists, total.as_str()),
        golden,
        "{label}: link tables moved; measured (0x{sum:016x}, {lists}, \"{total}\")"
    );
}

fn tpch(query: plansample_query::QuerySpec, config: &OptimizerConfig) -> PlanSpace {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let memo = optimize(&catalog, &query, config)
        .expect("TPC-H optimizes")
        .memo;
    PlanSpace::build_shared(Arc::new(memo), Arc::new(query)).expect("optimizer memos are acyclic")
}

#[test]
fn tpch_link_tables_are_the_committed_ones() {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    assert_golden(
        "Q8+CP",
        &tpch(
            plansample_query::tpch::q8(&catalog),
            &OptimizerConfig::with_cross_products(),
        ),
        Q8CP,
    );
    assert_golden(
        "Q10",
        &tpch(
            plansample_query::tpch::q10(&catalog),
            &OptimizerConfig::default(),
        ),
        Q10,
    );
}

#[test]
fn synthesized_link_tables_are_the_committed_ones() {
    for (topology, relations, golden) in SYNTHESIZED {
        let spec = JoinGraphSpec::new(topology, relations, 7);
        let (_, query, memo) = spec.build_memo();
        let space = PlanSpace::build_shared(Arc::new(memo), Arc::new(query))
            .expect("synthesized memos are acyclic");
        assert_golden(&spec.label(), &space, golden);
    }
}

const Q8CP: Golden = (0xb5b2_5650_d2ae_f623, 1414, "1758007804933702272");
const Q10: Golden = (0x9bde_8e60_bf92_dddd, 36, "3427680");
const SYNTHESIZED: [(Topology, usize, Golden); 4] = [
    (
        Topology::Cycle,
        16,
        (
            0xe30e_f5d5_c1b6_e757,
            721,
            "3590782480254319914129991663616",
        ),
    ),
    (
        Topology::Clique,
        9,
        (0xe5cd_0b1a_f568_1612, 1531, "697550874897132748800"),
    ),
    (
        Topology::Star,
        10,
        (0x222c_b92e_354d_56a6, 1561, "261905995750440960"),
    ),
    (
        Topology::Chain,
        12,
        (0x0422_5964_5b16_9a28, 232, "1259214054853086019584"),
    ),
];
