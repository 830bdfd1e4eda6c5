//! Synthetic join-graph generator for statistical validation.
//!
//! The paper evaluates on four TPC-H queries; validating the sampler's
//! *uniformity* on only two hand-picked spaces leaves most of the
//! structural variety untested. This module manufactures join queries of
//! the four canonical graph shapes at parameterized sizes:
//!
//! - **chain**: `r0 — r1 — … — r(n−1)`, the sparsest connected graph
//!   (only contiguous sub-plans exist without Cartesian products);
//! - **star**: a hub `r0` joined to every spoke, the data-warehouse
//!   shape;
//! - **cycle**: a chain closed back on itself, the smallest graph with
//!   redundant join paths;
//! - **clique**: every pair joined — join-order freedom like enabling
//!   Cartesian products, so plan counts explode fastest (a 9-relation
//!   clique already needs multiple `u64` limbs).
//!
//! Table statistics (row counts, distinct values, index availability)
//! are drawn deterministically from a seed, so every generated space is
//! reproducible yet structurally "random" — the property the
//! rank/unrank bijection and uniform-sampling test suites quantify over
//! (`docs/DESIGN.md` §8). [`JoinGraphSpec::build_memo`] also supplies
//! the large spaces of the tracked benchmark and the performance
//! contracts (cycle-16, clique-10). It is the optimizer's own memo
//! builder run on the generated query, so a synthetic space is exactly
//! what `optimize` would keep: the optimizer's rules and cost model,
//! minus the best-plan pass and the relation limit.

use plansample_catalog::{table, Catalog, ColType};
use plansample_memo::Memo;
use plansample_optimizer::{populate, OptimizerConfig};
use plansample_query::{QueryBuilder, QuerySpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of a synthetic join graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// `r0 — r1 — … — r(n−1)`.
    Chain,
    /// Hub `r0` joined to every other relation.
    Star,
    /// Chain plus the closing edge `r(n−1) — r0`.
    Cycle,
    /// Every pair of relations joined.
    Clique,
}

impl Topology {
    /// All four shapes, for sweeps.
    pub const ALL: [Topology; 4] = [
        Topology::Chain,
        Topology::Star,
        Topology::Cycle,
        Topology::Clique,
    ];

    /// Lower-case name for labels and test output.
    pub fn name(self) -> &'static str {
        match self {
            Topology::Chain => "chain",
            Topology::Star => "star",
            Topology::Cycle => "cycle",
            Topology::Clique => "clique",
        }
    }

    /// The join edges of this shape over `n` relations, as index pairs.
    ///
    /// # Panics
    /// Panics when `n < 2` (no join graph) or on a cycle with `n < 3`
    /// (a 2-cycle would duplicate the chain edge).
    pub fn edges(self, n: usize) -> Vec<(usize, usize)> {
        assert!(n >= 2, "a join graph needs at least 2 relations");
        match self {
            Topology::Chain => (0..n - 1).map(|i| (i, i + 1)).collect(),
            Topology::Star => (1..n).map(|i| (0, i)).collect(),
            Topology::Cycle => {
                assert!(n >= 3, "a cycle needs at least 3 relations");
                (0..n).map(|i| (i, (i + 1) % n)).collect()
            }
            Topology::Clique => (0..n)
                .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                .collect(),
        }
    }
}

/// A reproducible synthetic join query: topology, size, and the seed
/// that fixes all table statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JoinGraphSpec {
    /// Graph shape.
    pub topology: Topology,
    /// Number of relations (`>= 2`; cycles need `>= 3`).
    pub relations: usize,
    /// Seed for row counts, NDVs, and index placement.
    pub seed: u64,
}

impl JoinGraphSpec {
    /// Convenience constructor.
    pub fn new(topology: Topology, relations: usize, seed: u64) -> Self {
        JoinGraphSpec {
            topology,
            relations,
            seed,
        }
    }

    /// A label like `"chain-6#42"` for test diagnostics.
    pub fn label(&self) -> String {
        format!("{}-{}#{}", self.topology.name(), self.relations, self.seed)
    }

    /// The join edges of this spec.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        self.topology.edges(self.relations)
    }

    /// Materializes the catalog (tables `r0 … r(n−1)`, each with a join
    /// key `k` and payload `v`) and the join query. Deterministic in
    /// every field of the spec.
    pub fn build(&self) -> (Catalog, QuerySpec) {
        // Mix the topology and size into the stream so specs differing
        // only in shape do not share statistics.
        let mix = (self.relations as u64) << 8 | self.topology as u64;
        let mut rng = StdRng::seed_from_u64(self.seed ^ mix.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut catalog = Catalog::new();
        for i in 0..self.relations {
            let rows = 10u64.pow(rng.gen_range(1..=5)) * rng.gen_range(1..=9);
            let ndv = rows.div_ceil(rng.gen_range(1..=10)).max(1);
            let mut b = table(&format!("r{i}"), rows)
                .col("k", ColType::Int, ndv)
                .col("v", ColType::Int, rows.div_ceil(2).max(1));
            if rng.gen_bool(0.5) {
                b = b.index_on(0);
            }
            catalog.add_table(b.build()).unwrap();
        }
        let query = {
            let mut qb = QueryBuilder::new(&catalog);
            for i in 0..self.relations {
                qb.rel(&format!("r{i}"), None).unwrap();
            }
            for (a, b) in self.edges() {
                qb.join((&format!("r{a}"), "k"), (&format!("r{b}"), "k"))
                    .unwrap();
            }
            qb.build().unwrap()
        };
        (catalog, query)
    }

    /// Materializes the *complete* memo for this spec: the optimizer's
    /// own explore → implement → enforcer passes
    /// ([`populate`] under the default configuration — every connected
    /// sub-graph becomes a group holding scans, both join orientations
    /// with all three join implementations, and `Sort` enforcers for
    /// interesting orders), without its best-plan extraction and
    /// without the relation limit [`optimize`](plansample_optimizer::optimize)
    /// puts on SQL. The logical lists are dropped
    /// ([`Memo::drop_logical`]): the plan space never reads them.
    ///
    /// This is how the layout benchmarks reach the 10–21-relation
    /// synthetic spaces the plan-enumeration literature treats as the
    /// interesting regime (clique-10: ~709k physical expressions,
    /// multi-limb plan counts). Deterministic in every field of the
    /// spec.
    ///
    /// # Panics
    /// Panics when `relations >= 32`. Exploration without cross products
    /// grows only connected relation sets, so a 30-relation chain is a
    /// few hundred groups, but a clique's memo grows as `3^n`, and
    /// larger ones would be astronomically big.
    pub fn build_memo(&self) -> (Catalog, QuerySpec, Memo) {
        assert!(
            self.relations < 32,
            "build_memo supports fewer than 32 relations"
        );
        let (catalog, query) = self.build();
        let mut memo = populate(&catalog, &query, &OptimizerConfig::default())
            .expect("every topology is connected");
        memo.drop_logical();
        (catalog, query, memo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_counts_per_topology() {
        for n in [3usize, 5, 8] {
            assert_eq!(Topology::Chain.edges(n).len(), n - 1);
            assert_eq!(Topology::Star.edges(n).len(), n - 1);
            assert_eq!(Topology::Cycle.edges(n).len(), n);
            assert_eq!(Topology::Clique.edges(n).len(), n * (n - 1) / 2);
        }
    }

    #[test]
    fn edges_connect_the_graph() {
        // Union-find-free connectivity check: BFS from 0 reaches all.
        for topo in Topology::ALL {
            let n = 6;
            let edges = topo.edges(n);
            let mut reached = vec![false; n];
            reached[0] = true;
            for _ in 0..n {
                for &(a, b) in &edges {
                    if reached[a] || reached[b] {
                        reached[a] = true;
                        reached[b] = true;
                    }
                }
            }
            assert!(reached.iter().all(|&r| r), "{} disconnected", topo.name());
        }
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn single_relation_graph_rejected() {
        Topology::Chain.edges(1);
    }

    #[test]
    #[should_panic(expected = "cycle needs at least 3")]
    fn two_cycle_rejected() {
        Topology::Cycle.edges(2);
    }

    #[test]
    fn build_produces_resolved_query() {
        let spec = JoinGraphSpec::new(Topology::Star, 5, 7);
        let (catalog, query) = spec.build();
        assert_eq!(query.relations.len(), 5);
        assert_eq!(query.join_edges.len(), 4);
        for edge in &query.join_edges {
            assert!(edge.selectivity > 0.0 && edge.selectivity <= 1.0);
        }
        for rel in &query.relations {
            assert!(catalog.table(rel.table).row_count >= 10);
        }
    }

    #[test]
    fn build_is_deterministic_in_the_spec() {
        let a = JoinGraphSpec::new(Topology::Cycle, 4, 99).build();
        let b = JoinGraphSpec::new(Topology::Cycle, 4, 99).build();
        assert_eq!(format!("{:?}", a.1), format!("{:?}", b.1));
        let rows_a: Vec<u64> = (0..4)
            .map(|i| a.0.table_by_name(&format!("r{i}")).unwrap().1.row_count)
            .collect();
        let rows_b: Vec<u64> = (0..4)
            .map(|i| b.0.table_by_name(&format!("r{i}")).unwrap().1.row_count)
            .collect();
        assert_eq!(rows_a, rows_b);
    }

    #[test]
    fn seed_and_topology_change_the_statistics() {
        let rows = |spec: JoinGraphSpec| -> Vec<u64> {
            let (cat, _) = spec.build();
            (0..spec.relations)
                .map(|i| cat.table_by_name(&format!("r{i}")).unwrap().1.row_count)
                .collect()
        };
        let base = rows(JoinGraphSpec::new(Topology::Chain, 4, 1));
        assert_ne!(base, rows(JoinGraphSpec::new(Topology::Chain, 4, 2)));
        assert_ne!(base, rows(JoinGraphSpec::new(Topology::Star, 4, 1)));
    }

    #[test]
    fn labels_are_unique_per_spec() {
        let a = JoinGraphSpec::new(Topology::Chain, 4, 1).label();
        let b = JoinGraphSpec::new(Topology::Star, 4, 1).label();
        assert_eq!(a, "chain-4#1");
        assert_ne!(a, b);
    }

    #[test]
    fn build_memo_groups_are_the_connected_subsets() {
        // A chain's connected subsets are exactly the contiguous ranges:
        // n·(n+1)/2 of them.
        let (_, _, memo) = JoinGraphSpec::new(Topology::Chain, 5, 3).build_memo();
        assert_eq!(memo.num_groups(), 5 * 6 / 2);
        // A clique's connected subsets are all non-empty subsets.
        let (_, _, memo) = JoinGraphSpec::new(Topology::Clique, 5, 3).build_memo();
        assert_eq!(memo.num_groups(), (1 << 5) - 1);
        assert_eq!(memo.root().0 as usize, memo.num_groups() - 1);
    }

    #[test]
    fn build_memo_expressions_are_well_formed() {
        let (_, query, memo) = JoinGraphSpec::new(Topology::Cycle, 6, 11).build_memo();
        assert!(memo.num_physical() > memo.num_groups());
        for group in memo.groups() {
            for expr in &group.physical {
                assert!(expr.local_cost.is_finite() && expr.local_cost > 0.0);
                assert!(expr.out_card >= 1.0);
                // Join children are strictly smaller relation sets.
                if let plansample_memo::PhysicalOp::HashJoin { left, right }
                | plansample_memo::PhysicalOp::NestedLoopJoin { left, right } = &expr.op
                {
                    let own = group.scope(&query);
                    let l = memo.group(*left).scope(&query);
                    let r = memo.group(*right).scope(&query);
                    assert_eq!(l.union(r), own);
                    assert!(l.is_disjoint(r));
                }
            }
        }
    }

    #[test]
    fn build_memo_is_deterministic() {
        let spec = JoinGraphSpec::new(Topology::Star, 6, 21);
        let (_, _, a) = spec.build_memo();
        let (_, _, b) = spec.build_memo();
        assert_eq!(a.num_groups(), b.num_groups());
        assert_eq!(a.num_physical(), b.num_physical());
        let render = |m: &plansample_memo::Memo| {
            m.groups()
                .map(|g| format!("{:?}", g.physical.iter().map(|e| &e.op).collect::<Vec<_>>()))
                .collect::<Vec<_>>()
        };
        assert_eq!(render(&a), render(&b));
    }

    #[test]
    fn build_memo_scales_to_ten_plus_relations() {
        let (_, _, memo) = JoinGraphSpec::new(Topology::Cycle, 12, 7).build_memo();
        // Cycle-n connected subsets: the full set plus n·(n−1) proper
        // arcs.
        assert_eq!(memo.num_groups(), 12 * 11 + 1);
        assert!(memo.num_physical() > 1000);
    }
}
