//! Experiment E11 — sampling at memory speed, measured.
//!
//! The paper's sampler is only useful if drawing 10 000 plans is cheap
//! next to preparing the space. This bench pins the serving-path
//! throughput (`sample_batch_flat`: the fixed-width unranking tiers of
//! DESIGN.md §11) in plans-per-second on the ladder's regimes:
//!
//! * **Q8 + cross products** — the paper's largest memo, whose total
//!   (~1.76 × 10¹⁸) fits a single limb: the `u64` tier;
//! * **clique-10** — a ~700k-expression synthetic space with a two-limb
//!   total (~5.6 × 10²³): the `u128` tier, measured both natively and
//!   *forced* onto the exact-`Nat` rung (`PlanSpace::force_tier`) so the
//!   artifact keeps a live fallback baseline.
//!
//! Each regime is measured at 1 and 4 pool threads and batch sizes
//! 1 / 64 / 4096, and the numbers are written to `BENCH_sampling.json`
//! (the same hand-rolled schema family as `BENCH_serving.json`; each
//! workload row carries its `tier`). Three acceptance checks are
//! **asserted** so a sampling regression fails CI:
//!
//! 1. the flat path is no slower than the tree path on Q8+CP,
//!    single-threaded. (`sample_batch` is `sample_batch_flat` plus one
//!    lifted tree per plan, so the ratio — ~2× — is the price of the
//!    trees; the ≥ 3× bar this replaces compared against a separate
//!    recursive `Nat` unranker that no longer exists. The tree row is
//!    ratcheted by `--prev` instead, like every other row.)
//! 2. the `u128` tier samples clique-10 ≥ 20× faster than the
//!    exact-`Nat` fallback on the same space, single-threaded;
//! 3. on machines with ≥ 4 cores, the 4-thread batched fast path is
//!    ≥ 2× faster than 1-thread (skipped with a notice where the
//!    hardware cannot exhibit a speedup).
//!
//! When `--prev BENCH_sampling.json` names the committed artifact, each
//! fresh samples/sec figure is compared against the stored one at the
//! same (workload, tier, threads, batch) coordinate, and a > 30% drop
//! fails the run — the sampling-perf trajectory only ratchets forward.
//! Stored workloads from before the `tier` field are skipped, the same
//! one-round migration earlier artifact schema changes used.
//! `--validate <path>` parses an artifact and checks its schema instead
//! of measuring (used by CI after the measuring run rewrites the file).
//!
//! Like `build_scaling`, the `PLANSAMPLE_THREADS=1` CI job runs only
//! the sequential measurements and assertions 1–2; the `=4` job measures
//! both thread counts (via `with_threads`, which overrides the env
//! var), asserts the scaling bar, and owns the JSON artifact.

use plansample::{CountTier, PlanBatch, PlanSpace};
use plansample_bench::{prepare, EXPERIMENT_SEED};
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_serve::json::{self, Json, ObjWriter};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One measured coordinate: samples/sec at (threads, batch).
struct Sample {
    threads: usize,
    batch: usize,
    per_sec: f64,
}

/// One workload's measurements plus its space metadata. The same
/// workload name may appear once per unranking tier (clique-10 is
/// measured natively on `u128` and forced onto `nat`), so (name, tier)
/// is the row key.
struct WorkloadReport {
    name: &'static str,
    exprs: usize,
    limbs: usize,
    fast_path: bool,
    tier: &'static str,
    results: Vec<Sample>,
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Samples/sec of the flat batched sampler: repeated fixed-seed
/// `sample_batch_flat` calls into one reused `PlanBatch` for ~150 ms,
/// median of 3 runs.
fn measure_flat(space: &PlanSpace, threads: usize, batch: usize) -> f64 {
    threadpool::with_threads(threads, || {
        median(
            (0..3)
                .map(|_| {
                    let mut out = PlanBatch::new();
                    let mut rng = StdRng::seed_from_u64(EXPERIMENT_SEED);
                    space.sample_batch_flat(&mut rng, batch, &mut out); // warm caches + capacity
                    let mut plans = 0usize;
                    let t = Instant::now();
                    while t.elapsed() < Duration::from_millis(150) {
                        space.sample_batch_flat(&mut rng, batch, &mut out);
                        plans += out.len();
                        std::hint::black_box(out.total_nodes());
                    }
                    plans as f64 / t.elapsed().as_secs_f64()
                })
                .collect(),
        )
    })
}

/// Samples/sec of the tree-returning path (`sample_batch`): the
/// `tree_baseline` row, and what assertion 1 compares against.
fn measure_tree(space: &PlanSpace, threads: usize, batch: usize) -> f64 {
    threadpool::with_threads(threads, || {
        median(
            (0..3)
                .map(|_| {
                    let mut rng = StdRng::seed_from_u64(EXPERIMENT_SEED);
                    let mut plans = 0usize;
                    let t = Instant::now();
                    while t.elapsed() < Duration::from_millis(150) {
                        let batch_plans = space.sample_batch(&mut rng, batch);
                        plans += batch_plans.len();
                        std::hint::black_box(batch_plans.len());
                    }
                    plans as f64 / t.elapsed().as_secs_f64()
                })
                .collect(),
        )
    })
}

fn measure_workload(
    name: &'static str,
    space: &PlanSpace,
    thread_counts: &[usize],
) -> WorkloadReport {
    let mut results = Vec::new();
    for &threads in thread_counts {
        for batch in [1usize, 64, 4096] {
            let per_sec = measure_flat(space, threads, batch);
            println!(
                "sampling_throughput/{name}: threads={threads} batch={batch}: \
                 {per_sec:.0} samples/sec"
            );
            results.push(Sample {
                threads,
                batch,
                per_sec,
            });
        }
    }
    WorkloadReport {
        name,
        exprs: space.memo().num_physical(),
        limbs: space.total().limbs().len(),
        fast_path: space.counts().tier() == CountTier::U64,
        tier: space.counts().tier().as_str(),
        results,
    }
}

/// Renders the artifact (schema family of `BENCH_serving.json`).
fn render(reports: &[WorkloadReport], tree_per_sec: f64, flat_speedup: f64) -> String {
    let mut w = ObjWriter::new();
    w.str("bench", "sampling").int("seed", EXPERIMENT_SEED);
    w.arr("workloads");
    for r in reports {
        w.elem_obj()
            .str("name", r.name)
            .int("exprs", r.exprs as u64)
            .int("limbs", r.limbs as u64)
            .int("fast_path", u64::from(r.fast_path))
            .str("tier", r.tier)
            .arr("results");
        for s in &r.results {
            w.elem_obj()
                .int("threads", s.threads as u64)
                .int("batch", s.batch as u64)
                .float("samples_per_sec", s.per_sec)
                .end();
        }
        w.end().end();
    }
    w.end();
    w.obj("tree_baseline")
        .str("name", "Q8_CP")
        .int("threads", 1)
        .int("batch", 4096)
        .float("samples_per_sec", tree_per_sec)
        .end();
    w.float("flat_speedup", flat_speedup);
    w.finish()
}

/// Schema check for one artifact (`--validate`); returns an error
/// message naming the missing piece.
fn validate(doc: &Json) -> Result<(), String> {
    if doc.get("bench") != Some(&Json::Str("sampling".into())) {
        return Err("`bench` is not \"sampling\"".into());
    }
    let workloads = match doc.get("workloads") {
        Some(Json::Arr(items)) if !items.is_empty() => items,
        _ => return Err("`workloads` missing or empty".into()),
    };
    for wl in workloads {
        let name = match wl.get("name") {
            Some(Json::Str(s)) => s.clone(),
            _ => return Err("workload without a `name`".into()),
        };
        for key in ["exprs", "limbs", "fast_path"] {
            if wl.get(key).and_then(Json::as_num).is_none() {
                return Err(format!("workload {name}: `{key}` missing"));
            }
        }
        match wl.get("tier") {
            Some(Json::Str(t)) if ["u64", "u128", "nat"].contains(&t.as_str()) => {}
            _ => {
                return Err(format!(
                    "workload {name}: `tier` missing or not one of u64/u128/nat"
                ))
            }
        }
        let results = match wl.get("results") {
            Some(Json::Arr(items)) if !items.is_empty() => items,
            _ => return Err(format!("workload {name}: `results` missing or empty")),
        };
        for s in results {
            for key in ["threads", "batch", "samples_per_sec"] {
                if s.get(key).and_then(Json::as_num).is_none() {
                    return Err(format!("workload {name}: result `{key}` missing"));
                }
            }
            let per_sec = s.get("samples_per_sec").and_then(Json::as_num).unwrap();
            if !per_sec.is_finite() || per_sec <= 0.0 {
                return Err(format!("workload {name}: non-positive samples/sec"));
            }
        }
    }
    for key in ["tree_baseline", "flat_speedup"] {
        if doc.get(key).is_none() {
            return Err(format!("`{key}` missing"));
        }
    }
    Ok(())
}

/// Trajectory compare: the tree baseline and every (workload, tier,
/// threads, batch) coordinate present in both runs must stay within 30%
/// of the stored samples/sec. Rows are matched by tier as well as name because the
/// same workload legitimately appears once per tier — comparing a
/// `u128` row against a stored `nat` row would make a 300× improvement
/// look like a schema-level identity and a future `nat` regression
/// invisible. Stored workloads without a `tier` (pre-tier artifacts)
/// are skipped for one migration round.
fn compare_prev(prev: &Json, reports: &[WorkloadReport], tree_per_sec: f64) -> Result<(), String> {
    let Some(Json::Arr(prev_workloads)) = prev.get("workloads") else {
        return Err("previous artifact has no `workloads`".into());
    };
    let stored_tree = prev
        .get("tree_baseline")
        .and_then(|t| t.get("samples_per_sec"))
        .and_then(Json::as_num);
    if let Some(stored) = stored_tree {
        println!("sampling_throughput/Q8_CP: tree {tree_per_sec:.0} vs stored {stored:.0}");
        if tree_per_sec < stored * 0.7 {
            return Err(format!(
                "Q8_CP tree path regressed >30%: {tree_per_sec:.0} samples/sec vs stored {stored:.0}"
            ));
        }
    }
    for r in reports {
        let Some(prev_wl) = prev_workloads.iter().find(|wl| {
            wl.get("name") == Some(&Json::Str(r.name.into()))
                && wl.get("tier") == Some(&Json::Str(r.tier.into()))
        }) else {
            continue; // new workload/tier or pre-tier artifact: no trajectory yet
        };
        let Some(Json::Arr(prev_results)) = prev_wl.get("results") else {
            continue;
        };
        for s in &r.results {
            let stored = prev_results.iter().find_map(|p| {
                let threads = p.get("threads").and_then(Json::as_num)?;
                let batch = p.get("batch").and_then(Json::as_num)?;
                if threads == s.threads as f64 && batch == s.batch as f64 {
                    p.get("samples_per_sec").and_then(Json::as_num)
                } else {
                    None
                }
            });
            if let Some(stored) = stored {
                let floor = stored * 0.7;
                println!(
                    "sampling_throughput/{}: threads={} batch={}: {:.0} vs stored {:.0}",
                    r.name, s.threads, s.batch, s.per_sec, stored
                );
                if s.per_sec < floor {
                    return Err(format!(
                        "{} at threads={} batch={} regressed >30%: \
                         {:.0} samples/sec vs stored {:.0}",
                        r.name, s.threads, s.batch, s.per_sec, stored
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Resolves an artifact path against the workspace root (`cargo bench`
/// sets the cwd to the *package* dir, but `BENCH_sampling.json` lives
/// next to `BENCH_serving.json` at the repo root).
fn resolve(path: &str) -> std::path::PathBuf {
    let p = std::path::Path::new(path);
    if p.is_absolute() {
        return p.into();
    }
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate sits two levels below the workspace root")
        .join(p)
}

fn main() {
    // `cargo bench` forwards `--bench`; only our own flags take values.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };

    if let Some(path) = flag_value("--validate") {
        let file = resolve(&path);
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{path} is not JSON: {e}"));
        if let Err(e) = validate(&doc) {
            panic!("{path} fails schema validation: {e}");
        }
        println!("{path}: schema OK");
        return;
    }

    // --- Prepare both regimes once. -------------------------------------
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let q8 = prepare(
        &catalog,
        "Q8_CP",
        plansample_query::tpch::q8(&catalog),
        true,
    );
    let q8_space = q8.space();
    assert_eq!(
        q8_space.counts().tier(),
        CountTier::U64,
        "Q8+CP total {} must stay single-limb for the fast-path regime",
        q8_space.total()
    );

    let sequential_only = std::env::var("PLANSAMPLE_THREADS").as_deref() == Ok("1");
    let thread_counts: &[usize] = if sequential_only { &[1] } else { &[1, 4] };

    // --- Acceptance assertion 1: flat >= the tree path, 1 thread. -------
    let tree_per_sec = measure_tree(q8_space, 1, 4096);
    let flat_per_sec = measure_flat(q8_space, 1, 4096);
    let flat_speedup = flat_per_sec / tree_per_sec.max(1e-12);
    println!(
        "sampling_throughput/Q8_CP: flat {flat_per_sec:.0} vs tree {tree_per_sec:.0} \
         samples/sec single-threaded ({flat_speedup:.1}x)"
    );
    assert!(
        flat_speedup >= 1.0,
        "sample_batch is sample_batch_flat plus a tree per plan, so the flat path \
         cannot be the slower one on Q8+CP; measured {flat_speedup:.1}x"
    );

    let mut reports = vec![measure_workload("Q8_CP", q8_space, thread_counts)];

    // --- clique-10: the two-limb u128-tier regime. ----------------------
    let spec = JoinGraphSpec::new(Topology::Clique, 10, 20000);
    let (_, query, memo) = spec.build_memo();
    let mut clique10 =
        PlanSpace::build_shared(Arc::new(memo), Arc::new(query)).expect("clique-10 builds");
    assert_eq!(
        clique10.counts().tier(),
        CountTier::U128,
        "clique-10 total {} must land on the u128 tier",
        clique10.total()
    );
    reports.push(measure_workload("clique-10", &clique10, thread_counts));
    // Peak single-thread throughput: both tiers unrank identically per
    // draw, but clique-10's ~4096-plan batches are large enough that the
    // biggest batch size measures cache pressure on the output CSR, not
    // the unranker. Comparing each tier's best single-thread coordinate
    // keeps the assertion about the arithmetic.
    let u128_per_sec = reports
        .last()
        .unwrap()
        .results
        .iter()
        .filter(|s| s.threads == 1)
        .map(|s| s.per_sec)
        .fold(0.0f64, f64::max);

    // --- Acceptance assertion 2: u128 tier >= 20x the exact fallback. ---
    // The same space forced onto the Nat rung: the pre-tier regime, kept
    // as a measured artifact row and as this assertion's live baseline.
    clique10.force_tier(CountTier::Nat);
    assert_eq!(clique10.counts().tier(), CountTier::Nat);
    let nat_samples: Vec<Sample> = [64usize, 4096]
        .iter()
        .map(|&batch| {
            let per_sec = measure_flat(&clique10, 1, batch);
            println!(
                "sampling_throughput/clique-10: forced-nat threads=1 batch={batch}: \
                 {per_sec:.0} samples/sec"
            );
            Sample {
                threads: 1,
                batch,
                per_sec,
            }
        })
        .collect();
    let nat_per_sec = nat_samples.iter().map(|s| s.per_sec).fold(0.0f64, f64::max);
    reports.push(WorkloadReport {
        name: "clique-10",
        exprs: clique10.memo().num_physical(),
        limbs: clique10.total().limbs().len(),
        fast_path: false,
        tier: clique10.counts().tier().as_str(),
        results: nat_samples,
    });
    let tier_speedup = u128_per_sec / nat_per_sec.max(1e-12);
    println!(
        "sampling_throughput/clique-10: u128 tier {u128_per_sec:.0} vs exact-Nat \
         {nat_per_sec:.0} samples/sec, peak single-thread ({tier_speedup:.1}x)"
    );
    assert!(
        tier_speedup >= 20.0,
        "the u128 tier must sample clique-10 >= 20x faster than the exact-Nat \
         fallback; measured {tier_speedup:.1}x"
    );

    // --- Acceptance assertion 3: parallel scaling (>= 4 cores only). ----
    if sequential_only {
        println!(
            "sampling_throughput: PLANSAMPLE_THREADS=1 — sequential-pool job; \
             the multi-thread measurements and the JSON artifact belong to the \
             multi-thread job"
        );
    } else {
        let one = reports[0]
            .results
            .iter()
            .find(|s| s.threads == 1 && s.batch == 4096)
            .expect("1-thread coordinate measured")
            .per_sec;
        let four = reports[0]
            .results
            .iter()
            .find(|s| s.threads == 4 && s.batch == 4096)
            .expect("4-thread coordinate measured")
            .per_sec;
        let scaling = four / one.max(1e-12);
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        println!(
            "sampling_throughput/Q8_CP: 4-thread scaling {scaling:.2}x at batch 4096 \
             ({cores} core(s) available)"
        );
        if cores >= 4 {
            assert!(
                scaling >= 2.0,
                "4-thread batched sampling must be >= 2x the 1-thread rate on Q8+CP; \
                 measured {scaling:.2}x on {cores} cores"
            );
        } else {
            println!(
                "sampling_throughput/Q8_CP: SKIPPING the >= 2x scaling assertion — only \
                 {cores} core(s); a parallel speedup is not physically observable here"
            );
        }
    }

    // --- Trajectory compare + artifact. ---------------------------------
    if let Some(path) = flag_value("--prev") {
        let file = resolve(&path);
        match std::fs::read_to_string(&file) {
            Ok(text) => {
                let prev = json::parse(&text).unwrap_or_else(|e| panic!("{path} is not JSON: {e}"));
                if let Err(e) = compare_prev(&prev, &reports, tree_per_sec) {
                    panic!("sampling-perf trajectory check failed: {e}");
                }
            }
            Err(e) => println!(
                "sampling_throughput: no previous artifact at {} ({e})",
                file.display()
            ),
        }
    }
    if let Some(path) = flag_value("--out") {
        let file = resolve(&path);
        let text = render(&reports, tree_per_sec, flat_speedup);
        validate(&json::parse(&text).expect("rendered artifact parses"))
            .expect("rendered artifact passes its own schema check");
        std::fs::write(&file, text + "\n")
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", file.display()));
        println!("sampling_throughput: wrote {}", file.display());
    }
}
