//! The performance contracts of `docs/DESIGN.md`, asserted.
//!
//! These are ratios between two ways of doing the same work on the same
//! host; what the program's speed *is* lives in the tracked benchmark
//! (`BENCHMARK.json`, `crates/benchmark`). Every contract needs an
//! optimized build (clique-10 alone is ~700k expressions) and is
//! skipped with a notice in a debug one, so run
//!
//! ```text
//! cargo test --release -p plansample --test perf_contracts -- --nocapture
//! ```
//!
//! Contracts time things, so they take turns ([`contract`]) instead of
//! running on the test harness's parallel threads.

use plansample::{CountTier, PlanBatch, PlanSpace, PreparedQuery};
use plansample_bignum::Nat;
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_optimizer::OptimizerConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

const SEED: u64 = 20000;
const CLIQUE10: JoinGraphSpec = JoinGraphSpec {
    topology: Topology::Clique,
    relations: 10,
    seed: SEED,
};

/// The turn to run one contract, or `None` (with a notice) in a debug
/// build.
fn contract(name: &str) -> Option<MutexGuard<'static, ()>> {
    static TURN: Mutex<()> = Mutex::new(());
    if cfg!(debug_assertions) {
        eprintln!("{name}: skipped in a debug build");
        return None;
    }
    // A failed contract must not fail the ones after it.
    Some(TURN.lock().unwrap_or_else(PoisonError::into_inner))
}

fn cold_clique10() -> PlanSpace {
    let (_, query, memo) = CLIQUE10.build_memo();
    PlanSpace::build_shared(Arc::new(memo), Arc::new(query)).expect("clique-10 builds")
}

/// The ~700k-expression two-limb space, built once for every contract
/// that reads it.
fn clique10() -> &'static PlanSpace {
    static SPACE: OnceLock<PlanSpace> = OnceLock::new();
    SPACE.get_or_init(cold_clique10)
}

fn q8_cp() -> PreparedQuery {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let query = plansample_query::tpch::q8(&catalog);
    PreparedQuery::prepare(&catalog, &query, &OptimizerConfig::with_cross_products())
        .expect("Q8+CP optimizes")
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median wall time of `runs` calls of `f`, in seconds. The clock stops
/// before the value `f` built is dropped, so tearing a ~90 MB space
/// down is not part of what it cost to build.
fn median_secs<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    median(
        (0..runs)
            .map(|_| {
                let t = Instant::now();
                let built = f();
                let secs = t.elapsed().as_secs_f64();
                drop(built);
                secs
            })
            .collect(),
    )
}

/// Plans/sec of repeated fixed-seed `batch` calls for ~150 ms after one
/// warm-up call, median of 3 runs. `batch` draws one batch and returns
/// how many plans it held.
fn plans_per_sec(mut batch: impl FnMut(&mut StdRng) -> usize) -> f64 {
    median(
        (0..3)
            .map(|_| {
                let mut rng = StdRng::seed_from_u64(SEED);
                batch(&mut rng); // warm caches + capacity
                let mut plans = 0usize;
                let t = Instant::now();
                while t.elapsed() < Duration::from_millis(150) {
                    plans += batch(&mut rng);
                }
                plans as f64 / t.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// Plans/sec of the serving path: `sample_batch_flat` into one reused
/// [`PlanBatch`].
fn flat_per_sec(space: &PlanSpace, k: usize) -> f64 {
    let mut out = PlanBatch::new();
    plans_per_sec(|rng| {
        space.sample_batch_flat(rng, k, &mut out);
        std::hint::black_box(out.total_nodes());
        out.len()
    })
}

/// A serve-fleet restart pays one disk read + checksum + decode per
/// resident query instead of the cold path (synthesize the memo,
/// rebuild the plan space). That is the artifact's whole reason to
/// exist: load must beat the cold path, and the loaded space must answer
/// identically. The bar follows what moved: it was ≥ 20× while
/// `build_memo` eliminated duplicates quadratically and the eligibility
/// scan hashed (cold ≈ 3.8 s against a ≈ 170 ms load), ≥ 2.25× while the
/// scan tested every expression of a group for every slot on it (cold
/// ≈ 0.5 s), ≥ 1.25× with the scan deciding per delivered order (cold
/// ≈ 0.3 s). Since then both sides fell: memo synthesis reads a group's
/// cardinality instead of re-deriving it per split (cold ≈ 0.23 s, a
/// third of it `build_memo`), and the load verifies both
/// checksums in one pass and decodes into exactly-sized vectors (≈ 135
/// ms, a quarter of it `Memo::from_parts` re-checking 709 620 operators
/// for duplicates through std's keyed hasher — stored bytes are outside
/// input). Twelve readings on a 2-core container read 1.33–2.40×,
/// median 1.69× (EXPERIMENTS §E24). Then the cold side fell again:
/// implementation appends a group's alternatives without hashing them
/// and the count folds in `u128` directly (cold ≈ 0.17–0.24 s). Nine
/// readings since: 1.01–1.75×, median 1.38× (§E33), one of them within
/// 15 % of the bar. Then format v3 dropped the stored counts (a load
/// folds them again, ≈ 20 ms here), summed on four lanes and checked
/// for duplicate operators by sorting packed keys: a 44 MB file instead
/// of 56 MB, and eight readings of 1.51–1.97×, median 1.77× (load
/// 106–133 ms), beside the parent's 1.23–1.69× (load 134–150 ms) on the
/// same host (§E34). The bar stays at 1.0, which is where "load must
/// not lose to the cold path" is.
#[test]
fn artifact_load_outruns_a_cold_prepare_and_answers_identically() {
    const LOAD_BAR: f64 = 1.0;
    let name = "artifact load (clique-10)";
    let Some(_turn) = contract(name) else { return };
    let space = clique10().clone();
    let best = space.unrank(&Nat::zero()).unwrap();
    let cost = best.total_cost(space.memo());
    let prepared =
        PreparedQuery::from_parts(space, best, cost, OptimizerConfig::default()).unwrap();
    let path = std::env::temp_dir().join(format!(
        "plansample-contract-clique10-{}.plan",
        std::process::id()
    ));
    let bytes = plansample_artifact::save(&prepared, &path).expect("artifact saves");

    // Seven readings a side, interleaved, so a host that slows down
    // mid-reading slows both.
    let (mut cold, mut load) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        cold.push(median_secs(1, || {
            let space = cold_clique10();
            std::hint::black_box(space.total().clone());
            space
        }));
        load.push(median_secs(1, || {
            let loaded = plansample_artifact::load(&path).expect("artifact loads");
            std::hint::black_box(loaded.total().clone());
            loaded
        }));
    }
    let (cold, load) = (median(cold), median(load));
    let speedup = cold / load.max(1e-12);
    println!(
        "{name}: cold prepare {:.0} ms vs load {:.1} ms ({speedup:.2}x, {bytes} bytes on disk)",
        cold * 1e3,
        load * 1e3
    );
    let loaded = plansample_artifact::load(&path).expect("artifact loads");
    let _ = std::fs::remove_file(&path);

    assert_eq!(loaded.total(), prepared.total(), "loaded total diverged");
    assert_eq!(
        loaded.best().1.to_bits(),
        prepared.best().1.to_bits(),
        "loaded best cost diverged"
    );
    assert_eq!(
        format!("{:?}", loaded.unrank(&Nat::zero()).unwrap()),
        format!("{:?}", prepared.unrank(&Nat::zero()).unwrap()),
        "loaded unrank(0) diverged"
    );
    assert!(
        speedup >= LOAD_BAR,
        "loading a clique-10 artifact must be >= {LOAD_BAR}x faster than cold preparation; \
         measured {speedup:.2}x"
    );
}

#[test]
fn clique10_counts_a_multi_limb_total_and_round_trips_its_boundary_ranks() {
    let Some(_turn) = contract("clique-10 round trip") else {
        return;
    };
    let space = clique10();
    assert!(
        space.total().limbs().len() >= 2,
        "clique-10 total must exceed u64: {}",
        space.total()
    );
    let mut last = space.total().clone();
    last.decr();
    for rank in [Nat::zero(), last] {
        let plan = space.unrank(&rank).unwrap();
        assert_eq!(space.rank(&plan).unwrap(), rank, "clique-10 round trip");
    }
}

/// Everything downstream of exploration is linear in the memo (paper
/// §3), and a prepare scans its memo once: `PreparedQuery::prepare` is
/// `optimize` — whose best-plan extraction makes the scan, the one link
/// table and its topological order — plus the root list the links add
/// to that table, and the count pass over it. So on one thread a whole
/// Q8+CP prepare may cost at most `PREPARE_BAR` times the `optimize`
/// inside it. Ten readings on a
/// 2-core container: 1.39–1.45× (EXPERIMENTS §E26); the bar sits a
/// quarter over the highest. A prepare that scans the memo a second time
/// for its links read 1.79–1.88× in ten readings taken alongside. Since
/// the count folds in the tier's own word (0.2–0.4 ms where it took
/// 1.2–1.7), nine readings: 0.97–1.15×, against 1.19–1.29× in five
/// readings of the parent taken alternately (§E33).
#[test]
fn prepare_costs_little_more_than_its_optimize_on_q8cp() {
    const PREPARE_BAR: f64 = 1.81;
    let name = "prepare vs optimize (Q8+CP)";
    let Some(_turn) = contract(name) else { return };
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let query = plansample_query::tpch::q8(&catalog);
    let config = OptimizerConfig::with_cross_products();
    // Interleaved, so a host that slows down mid-reading slows both.
    let (mut optimize, mut prepare) = (Vec::new(), Vec::new());
    for _ in 0..15 {
        optimize.push(median_secs(1, || {
            plansample_optimizer::optimize(&catalog, &query, &config).expect("Q8+CP optimizes")
        }));
        prepare.push(median_secs(1, || {
            PreparedQuery::prepare(&catalog, &query, &config).expect("Q8+CP prepares")
        }));
    }
    let (optimize, prepare) = (median(optimize), median(prepare));
    let ratio = prepare / optimize.max(1e-12);
    println!(
        "{name}: prepare {:.2} ms vs optimize {:.2} ms ({ratio:.2}x)",
        prepare * 1e3,
        optimize * 1e3
    );
    assert!(
        ratio <= PREPARE_BAR,
        "preparing Q8+CP must cost <= {PREPARE_BAR}x optimizing it; measured {ratio:.2}x"
    );
}

/// `PreparedQuery::prepare` pays optimize + links + counts once; 1000 draws
/// and three resumed enumeration pages served from that one artifact
/// must cost, per draw, ≥ 100× less than one per-call rebuild (a
/// throw-away `prepare` read for its `total()`).
#[test]
fn prepared_sampling_is_100x_cheaper_than_a_per_call_rebuild_and_optimizes_once() {
    let Some(_turn) = contract("prepared amortization") else {
        return;
    };
    const DRAWS: usize = 1000;
    let q8_cp = {
        let (catalog, _) = plansample_catalog::tpch::catalog();
        let query = plansample_query::tpch::q8(&catalog);
        (catalog, query, OptimizerConfig::with_cross_products())
    };
    let clique6 = {
        let (catalog, query) = JoinGraphSpec::new(Topology::Clique, 6, 42).build();
        (catalog, query, OptimizerConfig::default())
    };
    for (label, (catalog, query, config)) in [("Q8+CP", q8_cp), ("clique-6", clique6)] {
        let prepare = || PreparedQuery::prepare(&catalog, &query, &config).unwrap();
        let t = Instant::now();
        let per_call = prepare().total().clone();
        let rebuild = t.elapsed();

        let before = plansample_optimizer::thread_optimizations_performed();
        let t = Instant::now();
        let prepared = prepare();
        let mut rng = StdRng::seed_from_u64(SEED);
        let batch = prepared.sample_batch(&mut rng, DRAWS);
        let (third, _) = prepared.total().div_rem(&Nat::from(3u64));
        let (half, _) = prepared.total().div_rem(&Nat::from(2u64));
        for start in [Nat::zero(), third, half] {
            assert_eq!(prepared.enumerate_from(start).take(16).count(), 16);
        }
        let amortized = t.elapsed() / DRAWS as u32;
        assert_eq!(batch.len(), DRAWS);
        assert_eq!(
            plansample_optimizer::thread_optimizations_performed() - before,
            1,
            "{label}: {DRAWS} samples + 3 pages must optimize exactly once"
        );
        assert_eq!(per_call, *prepared.total());

        let speedup = rebuild.as_secs_f64() / amortized.as_secs_f64().max(1e-12);
        println!(
            "prepared amortization ({label}): per-call rebuild {rebuild:.2?} vs \
             amortized per-sample {amortized:.2?} ({speedup:.0}x)"
        );
        assert!(
            speedup >= 100.0,
            "{label}: amortized per-sample cost must be >= 100x cheaper than \
             a per-call prepare; measured {speedup:.1}x"
        );
    }
}

/// `sample_batch` is `sample_batch_flat` plus one lifted tree per plan,
/// so the flat path cannot be the slower one.
#[test]
fn flat_sampling_is_no_slower_than_tree_sampling_on_q8cp() {
    let name = "flat vs tree (Q8+CP)";
    let Some(_turn) = contract(name) else { return };
    let q8 = q8_cp();
    let space = q8.space();
    assert_eq!(
        space.counts().tier(),
        CountTier::U64,
        "Q8+CP total {} must stay single-limb",
        space.total()
    );
    let tree = plans_per_sec(|rng| space.sample_batch(rng, 4096).len());
    let flat = flat_per_sec(space, 4096);
    println!(
        "{name}: flat {flat:.0} vs tree {tree:.0} plans/sec, 1 thread ({:.1}x)",
        flat / tree
    );
    assert!(
        flat >= tree,
        "the flat path must not be slower than the tree path on Q8+CP"
    );
}

/// The reason the tier ladder exists: machine-word arithmetic must beat
/// the exact fallback on the same space. Each tier's best single-thread
/// batch size is compared, so the bar is about the arithmetic and not
/// cache pressure on the output CSR. Both tiers make the same
/// selections by the same binary search over stored running sums and
/// differ only in what a compare, a subtract and a divide cost, so the
/// ratio is small: ten runs read 1.9–2.2× on a 2-core container
/// (EXPERIMENTS §E18), and the bar leaves that a margin.
#[test]
fn u128_tier_outruns_the_forced_nat_tier_on_clique10() {
    let name = "u128 vs forced Nat (clique-10)";
    let Some(_turn) = contract(name) else { return };
    let peak = |space: &PlanSpace, batches: &[usize]| {
        batches
            .iter()
            .map(|&k| flat_per_sec(space, k))
            .fold(0.0f64, f64::max)
    };
    assert_eq!(
        clique10().counts().tier(),
        CountTier::U128,
        "clique-10 total {} must land on the u128 tier",
        clique10().total()
    );
    // Built, not cloned from the shared space: a clone's arrays are laid
    // out back to back and exactly sized, which no space a caller builds
    // is, and the `Nat` tier reads 5–10 % faster over them.
    let mut forced = cold_clique10();
    forced.force_tier(CountTier::Nat);
    assert_eq!(forced.counts().tier(), CountTier::Nat);
    let u128_tier = peak(clique10(), &[1, 64, 4096]);
    let nat = peak(&forced, &[64, 4096]);
    let speedup = u128_tier / nat.max(1e-12);
    println!("{name}: {u128_tier:.0} vs {nat:.0} plans/sec, peak single-thread ({speedup:.2}x)");
    assert!(
        speedup >= 1.5,
        "the u128 tier must sample clique-10 >= 1.5x faster than the exact-Nat \
         fallback; measured {speedup:.2}x"
    );
}

/// Ranking is unranking run backwards — the same nodes, the same lists,
/// a multiply where the other divides — except that it must *find* each
/// operator in its alternative list where unranking selects it from the
/// running sums. Both are binary searches (lists ascend in dense id),
/// so on clique-10, whose widest list holds 25 084 alternatives, ranking
/// 512 sampled trees may cost no more than unranking their ranks back
/// to trees. It reads ≈ 0.45×; a ranker that scans each list for its
/// operator read 3.96× (EXPERIMENTS §E20).
#[test]
fn ranking_costs_no_more_than_unranking_on_clique10() {
    let name = "rank vs unrank (clique-10, 512 trees)";
    let Some(_turn) = contract(name) else { return };
    let space = clique10();
    let trees = space.sample_batch(&mut StdRng::seed_from_u64(SEED), 512);
    let ranks: Vec<Nat> = trees.iter().map(|t| space.rank(t).unwrap()).collect();
    let rank = median_secs(7, || -> Vec<Nat> {
        trees.iter().map(|t| space.rank(t).unwrap()).collect()
    });
    let unrank = median_secs(7, || -> Vec<_> {
        ranks.iter().map(|r| space.unrank(r).unwrap()).collect()
    });
    for (r, tree) in ranks.iter().zip(&trees) {
        assert_eq!(space.unrank(r).unwrap(), *tree, "clique-10 round trip");
    }
    let ratio = rank / unrank.max(1e-12);
    println!(
        "{name}: rank {:.2} ms vs unrank {:.2} ms ({ratio:.2}x)",
        rank * 1e3,
        unrank * 1e3
    );
    assert!(
        ratio <= 1.0,
        "ranking 512 clique-10 trees must cost <= unranking them; measured {ratio:.2}x"
    );
}

/// DESIGN §8 keeps two executors because they are different programs,
/// and says which is which: the Volcano engine hands every row of every
/// operator to its parent as an owned `Vec<Datum>`, `execute` hands up
/// row numbers and clones a value where an aggregate or the result
/// needs one. Over the same 128 lowered Q10 plans on the tiny database
/// that is ≈ 4× (EXPERIMENTS §E22); an `execute` that copies rows
/// between operators read ≈ 1.3×. Both must return the same multisets.
#[test]
fn execute_outruns_the_volcano_oracle_on_q10() {
    const EXECUTE_BAR: f64 = 1.5;
    let name = "execute vs execute_pipelined (Q10, 128 plans)";
    let Some(_turn) = contract(name) else { return };
    let (catalog, tables) = plansample_catalog::tpch::catalog();
    let query = plansample_query::tpch::q10(&catalog);
    let prepared = PreparedQuery::prepare(&catalog, &query, &OptimizerConfig::default())
        .expect("Q10 optimizes");
    let db = plansample_datagen::generate(
        &catalog,
        &tables,
        &plansample_datagen::MicroScale::tiny(),
        7,
    );
    let space = prepared.space();
    let mut rng = StdRng::seed_from_u64(SEED);
    let plans: Vec<_> = (0..128)
        .map(|_| {
            let plan = space.sample(&mut rng);
            plansample::lower::lower(space.memo(), space.query(), &catalog, &plan)
        })
        .collect();
    let run = median_secs(15, || -> Vec<_> {
        plans.iter().map(|p| p.execute(&db).unwrap()).collect()
    });
    let volcano = median_secs(15, || -> Vec<_> {
        plans
            .iter()
            .map(|p| p.execute_pipelined(&db).unwrap())
            .collect()
    });
    for plan in &plans {
        let (a, b) = (
            plan.execute(&db).unwrap(),
            plan.execute_pipelined(&db).unwrap(),
        );
        assert_eq!(a.len(), 13, "Q10 returns 13 rows on the tiny database");
        assert!(a.multiset_eq(&b), "the engines disagree on {plan:?}");
    }
    let speedup = volcano / run.max(1e-12);
    println!(
        "{name}: execute {:.2} ms vs execute_pipelined {:.2} ms ({speedup:.2}x)",
        run * 1e3,
        volcano * 1e3
    );
    assert!(
        speedup >= EXECUTE_BAR,
        "execute must be >= {EXECUTE_BAR}x faster than the Volcano engine over \
         128 sampled Q10 plans; measured {speedup:.2}x"
    );
}
