//! A count witness taken from the join graph alone. With merge joins,
//! index scans and enforcers off, a relation has one scan and a join two
//! algorithms, so a space is its ordered bushy join trees without cross
//! products times 2ⁿ⁻¹ algorithm choices. `common::bushy_join_trees`
//! counts those trees over `Topology::edges` by a dynamic program over
//! connected relation subsets, reading no memo, links or counts — so it
//! witnesses §3.2's total where no closed form exists: on cycles.
//!
//! Run with `--nocapture` to log every total per topology and size.

mod common;

use common::bushy_join_trees;
use plansample_core::PreparedQuery;
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_optimizer::OptimizerConfig;

/// The largest join graph each topology is prepared at.
const MAX_RELATIONS: usize = 10;

/// The counter is right where the answer is known, the closed forms
/// (C is the Catalan number): chain 2ⁿ⁻¹·C(n−1) trees, star
/// 2ⁿ⁻¹·(n−1)!, clique n!·C(n−1).
#[test]
fn the_witness_reproduces_the_closed_forms() {
    let catalan = |n: u128| (0..n).fold(1, |c, k| c * 2 * (2 * k + 1) / (k + 2));
    let factorial = |n: u128| (1..=n).product::<u128>();
    for n in 2..=MAX_RELATIONS {
        let m = n as u128;
        for (topology, trees) in [
            (Topology::Chain, (1 << (m - 1)) * catalan(m - 1)),
            (Topology::Star, (1 << (m - 1)) * factorial(m - 1)),
            (Topology::Clique, factorial(m) * catalan(m - 1)),
        ] {
            let counted = bushy_join_trees(n, &topology.edges(n));
            assert_eq!(counted, trees, "{}-{n}", topology.name());
        }
    }
}

/// Every prepared total is the witness's trees times 2ⁿ⁻¹, on all four
/// topologies from the smallest graph each allows to ten relations.
#[test]
fn prepared_totals_are_the_join_graph_witness() {
    let config = OptimizerConfig {
        enable_merge_joins: false,
        enable_index_scans: false,
        enable_enforcers: false,
        ..OptimizerConfig::default()
    };
    for topology in Topology::ALL {
        let min = if topology == Topology::Cycle { 3 } else { 2 };
        for n in min..=MAX_RELATIONS {
            let spec = JoinGraphSpec::new(topology, n, 7);
            let expected = bushy_join_trees(n, &spec.edges()) << (n - 1);
            let (catalog, query) = spec.build();
            let prepared = PreparedQuery::prepare(&catalog, &query, &config).expect("optimizes");
            let total = prepared.total().to_u128();
            println!("{}: {} plans", spec.label(), prepared.total());
            assert_eq!(total, Some(expected), "{}", spec.label());
        }
    }
}
