//! Targeted (sub-space) enumeration and sampling.
//!
//! §1 of the paper: "Starting from a query [with] specific properties
//! … an 'area' of the optimizer and execution code is targeted and
//! exercised in a variety of combinations." Beyond whole-space
//! operations, the counts support the same bijection for the sub-space
//! of plans *rooted in a chosen expression*: `N(v)` plans, ranks
//! `0 … N(v)-1`. This lets a tester aim at, say, exactly the plans whose
//! top join is a merge join, with uniform coverage inside that slice.

use crate::count::with_tier;
use crate::word::Word;
use crate::{PlanSpace, SpaceError};
use plansample_bignum::Nat;
use plansample_memo::{PhysId, PlanNode};
use rand::Rng;

impl PlanSpace {
    /// Builds plan number `rank` *within the sub-space rooted at `v`*
    /// (`rank < count_rooted(v)`). The root of the result is always `v`.
    pub fn unrank_rooted(&self, v: PhysId, rank: &Nat) -> Result<PlanNode, SpaceError> {
        let d = self.links.ids().dense(v);
        let total = self.counts.rooted(d);
        if rank >= &total {
            return Err(SpaceError::RankOutOfRange {
                rank: rank.clone(),
                total,
            });
        }
        Ok(with_tier!(self.counts, c => {
            let rank = Word::from_nat(rank).expect("a rank below N(v) fits the tier");
            self.unrank_tree(c, d, rank)
        }))
    }

    /// Uniform sample from the sub-space rooted at `v`.
    ///
    /// # Panics
    /// Panics when the sub-space is empty (`count_rooted(v) == 0`).
    pub fn sample_rooted<R: Rng + ?Sized>(&self, rng: &mut R, v: PhysId) -> PlanNode {
        let d = self.links.ids().dense(v);
        assert!(
            !self.counts.rooted(d).is_zero(),
            "expression {v} roots no complete plan"
        );
        with_tier!(self.counts, c => {
            self.unrank_tree(c, d, Word::random_below(rng, c.rooted(d)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;
    use crate::PlanSpace;
    use plansample_memo::validate_plan;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rooted_unranking_is_a_bijection_per_expression() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        for (v, expect) in [
            (ex.merge_join_ab, 2u64),
            (ex.hash_join_ab, 6),
            (ex.root_c_ab, 16),
            (ex.sort_a, 1),
        ] {
            assert_eq!(space.count_rooted(v).to_u64(), Some(expect));
            let mut seen = std::collections::HashSet::new();
            for r in 0..expect {
                let plan = space.unrank_rooted(v, &Nat::from(r)).unwrap();
                assert_eq!(plan.id, v, "root is pinned");
                assert!(validate_plan(&ex.memo, &ex.query, &plan).is_empty());
                assert_eq!(space.rank_rooted(&plan).unwrap(), Nat::from(r));
                assert!(seen.insert(format!("{:?}", plan.preorder_ids())));
            }
            assert!(space.unrank_rooted(v, &Nat::from(expect)).is_err());
        }
    }

    #[test]
    fn rooted_sampling_targets_the_chosen_operator() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let plan = space.sample_rooted(&mut rng, ex.merge_join_ab);
            assert_eq!(plan.id, ex.merge_join_ab);
            // Plans under the merge join use only sorted providers.
            assert_ne!(plan.children[0].id, ex.table_scan_a);
        }
    }

    #[test]
    fn rooted_sampling_covers_the_subspace_uniformly() {
        let ex = paper_example::build();
        let space = PlanSpace::build(&ex.memo, &ex.query).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let mut freq = [0usize; 6];
        let draws = 6000;
        for _ in 0..draws {
            let plan = space.sample_rooted(&mut rng, ex.hash_join_ab);
            let r = space.rank_rooted(&plan).unwrap().to_u64().unwrap() as usize;
            freq[r] += 1;
        }
        // Chi-square, 5 dof, p=0.001 critical ≈ 20.5.
        let expected = draws as f64 / 6.0;
        let chi2: f64 = freq
            .iter()
            .map(|&o| (o as f64 - expected).powi(2) / expected)
            .sum();
        assert!(chi2 < 20.5, "chi2 {chi2}: {freq:?}");
    }

    #[test]
    #[should_panic(expected = "roots no complete plan")]
    fn sampling_a_dead_subspace_panics() {
        // Build a memo where a merge join is dead (no sorted providers).
        use plansample_catalog::{table, ColType};
        use plansample_memo::{GroupKey, Memo, PhysicalExpr, PhysicalOp};
        use plansample_query::{ColRef, QueryBuilder, RelId, RelSet};

        let mut catalog = plansample_catalog::Catalog::new();
        catalog
            .add_table(table("a", 5).col("k", ColType::Int, 5).build())
            .unwrap();
        catalog
            .add_table(table("b", 5).col("k", ColType::Int, 5).build())
            .unwrap();
        let mut qb = QueryBuilder::new(&catalog);
        qb.rel("a", None).unwrap();
        qb.rel("b", None).unwrap();
        qb.join(("a", "k"), ("b", "k")).unwrap();
        let query = qb.build().unwrap();

        let mut memo = Memo::new();
        let ga = memo.add_group(GroupKey::Rels(RelSet::singleton(RelId(0))));
        let gb = memo.add_group(GroupKey::Rels(RelSet::singleton(RelId(1))));
        let gab = memo.add_group(GroupKey::Rels(RelSet::all(2)));
        memo.add_physical(
            ga,
            PhysicalExpr::new(PhysicalOp::TableScan { rel: RelId(0) }, 1.0, 5.0),
        )
        .unwrap();
        memo.add_physical(
            gb,
            PhysicalExpr::new(PhysicalOp::TableScan { rel: RelId(1) }, 1.0, 5.0),
        )
        .unwrap();
        let dead = memo
            .add_physical(
                gab,
                PhysicalExpr::new(
                    PhysicalOp::MergeJoin {
                        left: ga,
                        right: gb,
                        left_key: ColRef {
                            rel: RelId(0),
                            col: 0,
                        },
                        right_key: ColRef {
                            rel: RelId(1),
                            col: 0,
                        },
                    },
                    1.0,
                    5.0,
                ),
            )
            .unwrap();
        memo.set_root(gab);
        let space = PlanSpace::build(&memo, &query).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        space.sample_rooted(&mut rng, dead);
    }
}
