//! The sampler-core workloads: `sample_q8cp`, `sample_cycle16` (flat,
//! allocation-free path on the `u64` and the `u128` tier) and
//! `tree_roundtrip_q8cp` (the tree/`Nat` path the flat one bypasses).

use super::{check_total, digest_plans, Ctx, Library, Metrics};
use super::{SPEC_SEED, TOTAL_CLIQUE10, TOTAL_CYCLE16, TOTAL_Q8CP};
use crate::alloc;
use crate::trace::Tracer;
use plansample_bignum::Nat;
use plansample_core::{CountTier, PlanBatch, PlanSpace, PreparedQuery};
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_memo::PhysId;
use plansample_optimizer::OptimizerConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;

/// Plans per `sample_batch_flat` call in the timed op.
const BATCH: usize = 1024;
/// Rank draws per `bignum.random_below_*` span (one draw is shorter
/// than reading the clock twice).
const DRAWS_PER_SPAN: usize = 1024;
/// Plans per `core.sample.flat_b*` span, whatever the batch size, so
/// the spans are comparable.
const PLANS_PER_SPAN: usize = 4096;
/// Spans per micro measurement.
const MICRO_REPS: usize = 15;

/// TPC-H Q8 with cross products: the paper's largest memo.
pub fn prepare_q8cp() -> Result<PreparedQuery, String> {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let query = plansample_query::tpch::q8(&catalog);
    PreparedQuery::prepare(&catalog, &query, &OptimizerConfig::with_cross_products())
        .map_err(|e| format!("Q8+CP does not prepare: {e}"))
}

/// The plan space over the complete memo of a synthetic join graph,
/// synthesized directly: running the optimizer on sixteen relations, or
/// on ten fully connected ones, takes minutes.
fn synthesized(topology: Topology, relations: usize) -> Result<PlanSpace, String> {
    let (_, query, memo) = JoinGraphSpec::new(topology, relations, SPEC_SEED).build_memo();
    PlanSpace::build_shared(Arc::new(memo), Arc::new(query))
        .map_err(|e| format!("{}-{relations} space does not build: {e}", topology.name()))
}

/// Where a sampler's plan space came from.
enum Space {
    /// From the optimizer (Q8+CP): also carries the cost model
    /// `scaled_cost_ids` needs.
    Prepared(PreparedQuery),
    /// From a directly synthesized memo (cycle-16).
    Bare(PlanSpace),
}

impl Space {
    fn get(&self) -> &PlanSpace {
        match self {
            Space::Prepared(p) => p.space(),
            Space::Bare(s) => s,
        }
    }
}

/// The flat sampler over one space; `sample_q8cp` and `sample_cycle16`
/// differ only in the space (and so in the tier the sampler runs on).
pub struct FlatSampling {
    space: Space,
    rng: StdRng,
    batch: PlanBatch,
    seed: u64,
    label: &'static str,
    tier: CountTier,
    pinned_total: &'static str,
}

impl FlatSampling {
    fn fill(&mut self, k: usize) {
        self.space
            .get()
            .sample_batch_flat(&mut self.rng, k, &mut self.batch);
        black_box(self.batch.total_nodes());
    }
}

impl Library for FlatSampling {
    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let (space, label, tier, pinned_total) = match ctx.name.as_str() {
            "sample_q8cp" => (
                Space::Prepared(prepare_q8cp()?),
                "Q8+CP",
                CountTier::U64,
                TOTAL_Q8CP,
            ),
            "sample_cycle16" => (
                Space::Bare(synthesized(Topology::Cycle, 16)?),
                "cycle-16",
                CountTier::U128,
                TOTAL_CYCLE16,
            ),
            other => return Err(format!("{other} is not a flat-sampling workload")),
        };
        Ok(FlatSampling {
            space,
            rng: StdRng::seed_from_u64(ctx.seed),
            batch: PlanBatch::new(),
            seed: ctx.seed,
            label,
            tier,
            pinned_total,
        })
    }

    fn op(&mut self) -> Result<u64, String> {
        self.fill(BATCH);
        if self.batch.len() == BATCH {
            Ok(BATCH as u64)
        } else {
            Err(format!("asked for {BATCH} plans, got {}", self.batch.len()))
        }
    }

    /// One public call is the whole op: there is nothing to take apart
    /// from outside the sampler.
    fn traced_op(&mut self, tr: &mut Tracer) -> Result<u64, String> {
        tr.span("core.sample.flat_b1024", || self.op())
    }

    fn resident(&self) -> (usize, usize) {
        let bytes = match &self.space {
            Space::Prepared(p) => p.size_bytes(),
            Space::Bare(s) => s.size_bytes(),
        };
        (bytes, self.space.get().memo().num_physical())
    }

    fn verify(&mut self) -> Vec<String> {
        let mut misses = Vec::new();
        let space = self.space.get();
        misses.extend(check_total(self.label, space.total(), self.pinned_total));
        if space.counts().tier() != self.tier {
            misses.push(format!(
                "{}: expected the {} tier, got {}",
                self.label,
                self.tier.as_str(),
                space.counts().tier().as_str()
            ));
        }
        // The flat path must draw exactly the plans the tree path draws
        // from the same seed.
        let mut flat = PlanBatch::new();
        space.sample_batch_flat(&mut StdRng::seed_from_u64(self.seed), BATCH, &mut flat);
        let trees = space.sample_batch(&mut StdRng::seed_from_u64(self.seed), BATCH);
        let tree_ids: Vec<Vec<PhysId>> = trees.iter().map(|t| t.preorder_ids()).collect();
        let (a, b) = (
            digest_plans(flat.iter()),
            digest_plans(tree_ids.iter().map(Vec::as_slice)),
        );
        if a != b {
            misses.push(format!(
                "{}: flat batch digest {a:016x} != tree batch digest {b:016x}",
                self.label
            ));
        }
        misses
    }

    fn layers(&mut self, tr: &mut Tracer, m: &mut Metrics) -> Result<(), String> {
        // The rank draw alone, at this space's total.
        let total = self.space.get().total().clone();
        for _ in 0..MICRO_REPS {
            tr.next_op();
            if let Some(bound) = total.to_u64() {
                tr.span("bignum.random_below_u64", || {
                    for _ in 0..DRAWS_PER_SPAN {
                        black_box(Nat::random_below_u64(&mut self.rng, black_box(bound)));
                    }
                });
            } else if let Some(bound) = total.to_u128() {
                tr.span("bignum.random_below_u128", || {
                    for _ in 0..DRAWS_PER_SPAN {
                        black_box(Nat::random_below_u128(&mut self.rng, black_box(bound)));
                    }
                });
            }
        }

        // Per-call overhead (batch of 1) against steady state (4096).
        for (name, k) in [
            ("core.sample.flat_b1", 1usize),
            ("core.sample.flat_b64", 64),
            ("core.sample.flat_b4096", 4096),
        ] {
            self.fill(k); // capacity
            for _ in 0..MICRO_REPS {
                tr.next_op();
                let open = tr.enter(name);
                for _ in 0..PLANS_PER_SPAN / k {
                    self.fill(k);
                }
                tr.exit(open);
            }
        }

        // Exact counts over one seeded 4096-plan batch.
        self.rng = StdRng::seed_from_u64(self.seed);
        self.fill(4096);
        m.set(
            "core.sample.nodes_per_plan",
            self.batch.total_nodes() as f64 / 4096.0,
        );
        let ((), allocs) = alloc::count(|| self.fill(4096));
        m.set("core.sample.allocs_per_plan", allocs as f64 / 4096.0);

        if let Space::Prepared(prepared) = &self.space {
            // What the server adds per sampled plan before encoding.
            for _ in 0..MICRO_REPS {
                tr.next_op();
                tr.span("core.prepared.scaled_cost_ids", || {
                    for ids in self.batch.iter() {
                        black_box(prepared.scaled_cost_ids(ids));
                    }
                });
            }
            // The exact-Nat rung on the same space: what the fixed-width
            // tiers are worth, kept live as a fallback baseline.
            let mut forced = prepared.space().clone();
            forced.force_tier(CountTier::Nat);
            let mut out = PlanBatch::new();
            forced.sample_batch_flat(&mut self.rng, 64, &mut out);
            for _ in 0..MICRO_REPS {
                tr.next_op();
                tr.span("core.sample.forced_nat", || {
                    forced.sample_batch_flat(&mut self.rng, 64, &mut out);
                    black_box(out.total_nodes());
                });
            }
        } else {
            // The same tier where the counts fit no cache: clique-10,
            // 709 620 expressions and 93 MB. How fast that runs is up to
            // the host's shared last-level cache and memory (ten runs of
            // unchanged code spread 27 % on the host that checks this
            // benchmark), so it is a layer's number here and not a
            // workload with a bound.
            let clique = synthesized(Topology::Clique, 10)?;
            if let Some(miss) = check_total("clique-10", clique.total(), TOTAL_CLIQUE10) {
                return Err(miss);
            }
            if clique.counts().tier() != CountTier::U128 {
                return Err("clique-10 is not on the u128 tier".into());
            }
            clique.sample_batch_flat(&mut self.rng, BATCH, &mut self.batch);
            for _ in 0..MICRO_REPS {
                tr.next_op();
                tr.span("core.sample.clique10", || {
                    clique.sample_batch_flat(&mut self.rng, BATCH, &mut self.batch);
                    black_box(self.batch.total_nodes());
                });
            }
        }
        Ok(())
    }

    fn span_metrics() -> &'static [(&'static str, &'static str, f64)] {
        const PER_SPAN: f64 = PLANS_PER_SPAN as f64;
        &[
            (
                "bignum.random_below_u64_ns",
                "bignum.random_below_u64",
                DRAWS_PER_SPAN as f64,
            ),
            (
                "bignum.random_below_u128_ns",
                "bignum.random_below_u128",
                DRAWS_PER_SPAN as f64,
            ),
            (
                "core.sample.flat_b1_ns_per_plan",
                "core.sample.flat_b1",
                PER_SPAN,
            ),
            (
                "core.sample.flat_b64_ns_per_plan",
                "core.sample.flat_b64",
                PER_SPAN,
            ),
            (
                "core.sample.flat_b1024_ns_per_plan",
                "core.sample.flat_b1024",
                BATCH as f64,
            ),
            (
                "core.sample.flat_b4096_ns_per_plan",
                "core.sample.flat_b4096",
                PER_SPAN,
            ),
            (
                "core.sample.forced_nat_ns_per_plan",
                "core.sample.forced_nat",
                64.0,
            ),
            (
                "core.sample.clique10_ns_per_plan",
                "core.sample.clique10",
                BATCH as f64,
            ),
            (
                "core.prepared.scaled_cost_ids_ns_per_plan",
                "core.prepared.scaled_cost_ids",
                4096.0,
            ),
        ]
    }
}

/// `sample` → `rank` → `unrank` through plan trees and `Nat` ranks.
pub struct TreeRoundtrip {
    prepared: PreparedQuery,
    rng: StdRng,
}

impl Library for TreeRoundtrip {
    fn setup(ctx: &Ctx) -> Result<Self, String> {
        Ok(TreeRoundtrip {
            prepared: prepare_q8cp()?,
            rng: StdRng::seed_from_u64(ctx.seed),
        })
    }

    fn op(&mut self) -> Result<u64, String> {
        let p = &self.prepared;
        let plan = p.sample(&mut self.rng);
        let rank = p.rank(&plan).map_err(|e| format!("rank: {e}"))?;
        let back = p.unrank(&rank).map_err(|e| format!("unrank: {e}"))?;
        if back == plan {
            Ok(1)
        } else {
            Err(format!(
                "unrank(rank(plan)) differs from plan at rank {rank}"
            ))
        }
    }

    fn traced_op(&mut self, tr: &mut Tracer) -> Result<u64, String> {
        let p = &self.prepared;
        let rng = &mut self.rng;
        let plan = tr.span("core.sample.tree", || p.sample(rng));
        let rank = tr
            .span("core.rank", || p.rank(&plan))
            .map_err(|e| format!("rank: {e}"))?;
        let back = tr
            .span("core.unrank.tree", || p.unrank(&rank))
            .map_err(|e| format!("unrank: {e}"))?;
        if tr.span("harness.check", || back == plan) {
            Ok(1)
        } else {
            Err(format!(
                "unrank(rank(plan)) differs from plan at rank {rank}"
            ))
        }
    }

    fn resident(&self) -> (usize, usize) {
        (
            self.prepared.size_bytes(),
            self.prepared.memo().num_physical(),
        )
    }

    fn verify(&mut self) -> Vec<String> {
        check_total("Q8+CP", self.prepared.total(), TOTAL_Q8CP)
            .into_iter()
            .collect()
    }

    fn layers(&mut self, _tr: &mut Tracer, m: &mut Metrics) -> Result<(), String> {
        const TRIPS: u64 = 256;
        let (result, allocs) = alloc::count(|| (0..TRIPS).try_for_each(|_| self.op().map(drop)));
        result?;
        m.set(
            "core.tree.allocs_per_roundtrip",
            allocs as f64 / TRIPS as f64,
        );
        Ok(())
    }

    fn span_metrics() -> &'static [(&'static str, &'static str, f64)] {
        &[
            ("core.sample.tree_us_per_plan", "core.sample.tree", 1000.0),
            ("core.rank.us_per_plan", "core.rank", 1000.0),
            ("core.unrank.tree_us_per_plan", "core.unrank.tree", 1000.0),
        ]
    }
}
