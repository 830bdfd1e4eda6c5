//! Experiment E10 — the flat plan-space layout, measured.
//!
//! `PlanSpace::build` (link materialization §3.1 + counting §3.2) runs
//! on a flat CSR arena with interned alternative lists, dense `u32`
//! expression ids, and an iterative count over a precomputed topological
//! order. This bench measures it on:
//!
//! * the paper's largest space (Q8 + cross products, ~22k physical
//!   expressions), and
//! * directly synthesized 10–12-relation join graphs — the regime the
//!   plan-enumeration literature treats as interesting — where counts
//!   need multiple `u64` limbs.
//!
//! Four acceptance checks are **asserted** so layout regressions fail CI
//! (the `bench-smoke` job runs this bench in release, at both
//! `PLANSAMPLE_THREADS=1` and `=4`):
//!
//! 1. the prepared Q8+CP space fits in ≤ 120 bytes per physical
//!    expression (inline-`Nat` counts + derived delivered orders +
//!    shrunken memo; was 216 bytes/expr before the memory refactor);
//! 2. a clique-10 synthetic space (~700k expressions) builds, counts a
//!    multi-limb total, and round-trips ranks at its boundaries;
//! 3. loading the clique-10 plan space from a persistent artifact
//!    (`plansample-artifact`) is ≥ 20× faster than cold preparation and
//!    answers `total`/`best`/`unrank` bit-identically;
//! 4. on machines with ≥ 4 cores, the parallel build is ≥ 2× faster at
//!    4 threads than at 1 thread on that clique-10 memo (skipped — with
//!    a notice — where the hardware cannot exhibit a speedup).
//!
//! Measured numbers — including the ≥ 5× build speedup over the nested
//! `Vec` layout this one replaced — are recorded in
//! `docs/EXPERIMENTS.md` §E10; the per-expression count identity that
//! comparison also checked is checked by the `NaiveReference` oracle in
//! `tests/flat_layout.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use plansample::PlanSpace;
use plansample_bench::prepare;
use plansample_bignum::Nat;
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use std::sync::Arc;
use std::time::Instant;

fn median_secs(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn bench_build_scaling(c: &mut Criterion) {
    // --- Q8 + cross products (the paper's largest memo) and clique-6. ---
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let q8 = prepare(
        &catalog,
        "Q8_CP",
        plansample_query::tpch::q8(&catalog),
        true,
    );
    let memo = Arc::clone(q8.space().memo_shared());
    let query = Arc::clone(q8.space().query_shared());

    let clique6 = {
        let (catalog, query) = JoinGraphSpec::new(Topology::Clique, 6, 42).build();
        plansample::PreparedQuery::prepare(
            &catalog,
            &query,
            &plansample_optimizer::OptimizerConfig::default(),
        )
        .expect("clique-6 optimizes")
    };

    for (label, memo, query) in [
        ("Q8_CP", &memo, &query),
        (
            "clique6",
            clique6.space().memo_shared(),
            clique6.space().query_shared(),
        ),
    ] {
        let mut group = c.benchmark_group(format!("build_layout/{label}"));
        group.sample_size(10);
        group.bench_function("flat", |b| {
            b.iter(|| {
                let space = PlanSpace::build_shared(Arc::clone(memo), Arc::clone(query)).unwrap();
                std::hint::black_box(space.total().clone())
            })
        });
        group.finish();
    }

    // --- Synthetic 10–12-relation join graphs, built directly. ----------
    let mut group = c.benchmark_group("build_scaling/synthetic");
    group.sample_size(10);
    for spec in [
        JoinGraphSpec::new(Topology::Cycle, 12, 20000),
        JoinGraphSpec::new(Topology::Star, 11, 20000),
        JoinGraphSpec::new(Topology::Clique, 10, 20000),
    ] {
        let (_, query, memo) = spec.build_memo();
        let (memo, query) = (Arc::new(memo), Arc::new(query));
        group.bench_function(
            format!("{} ({} exprs)", spec.label(), memo.num_physical()),
            |b| {
                b.iter(|| {
                    let space =
                        PlanSpace::build_shared(Arc::clone(&memo), Arc::clone(&query)).unwrap();
                    std::hint::black_box(space.total().clone())
                })
            },
        );
    }
    group.finish();

    // --- Acceptance assertion 1: <= 120 bytes/expr on Q8+CP. ------------
    // The memory refactor's contract: inline-`Nat` counts, derived
    // delivered orders, and the shrunken memo bring the whole prepared
    // space (links + counts + memo) under 120 bytes per physical
    // expression (216 before; docs/EXPERIMENTS.md §E10).
    let space = PlanSpace::build_shared(Arc::clone(&memo), Arc::clone(&query)).unwrap();
    let bytes_per_expr = space.size_bytes() as f64 / memo.num_physical() as f64;
    assert!(
        bytes_per_expr <= 120.0,
        "prepared Q8+CP space must stay <= 120 bytes/expr; measured {bytes_per_expr:.1}"
    );

    // --- Acceptance assertion 2: clique-10 multi-limb round trip. -------
    let spec = JoinGraphSpec::new(Topology::Clique, 10, 20000);
    let t = Instant::now();
    let (_, query, memo) = spec.build_memo();
    let synth_memo = t.elapsed();
    let (memo, query) = (Arc::new(memo), Arc::new(query));
    let t = Instant::now();
    let space = PlanSpace::build_shared(Arc::clone(&memo), Arc::clone(&query)).unwrap();
    let synth_build = t.elapsed();
    assert!(
        space.total().limbs().len() >= 2,
        "clique-10 total must exceed u64: {}",
        space.total()
    );
    let mut last = space.total().clone();
    last.decr();
    for rank in [Nat::zero(), last] {
        let plan = space.unrank(&rank).unwrap();
        assert_eq!(&space.rank(&plan).unwrap(), &rank, "clique-10 round trip");
    }
    println!(
        "build_scaling/clique-10: {} exprs, N = {} ({} limbs), memo {synth_memo:.2?}, \
         space {synth_build:.2?}, {:.1} bytes/expr",
        space.memo().num_physical(),
        space.total(),
        space.total().limbs().len(),
        space.size_bytes() as f64 / space.memo().num_physical() as f64,
    );

    // --- Acceptance assertion 3: artifact load >= 20x cold prepare. -----
    // A serve-fleet restart used to pay the cold path — synthesize the
    // memo and rebuild the plan space — for every resident query. With
    // persistent artifacts it pays one disk read + checksum + decode.
    // This measures both on clique-10 and pins the artifact's whole
    // reason to exist: load must be at least 20x faster than cold
    // preparation, and the loaded space must answer identically.
    let prepared = {
        let s = PlanSpace::build_shared(Arc::clone(&memo), Arc::clone(&query)).unwrap();
        let best = s.unrank(&Nat::zero()).unwrap();
        let cost = best.total_cost(s.memo());
        plansample::PreparedQuery::from_parts(
            s,
            best,
            cost,
            plansample_optimizer::OptimizerConfig::default(),
        )
        .unwrap()
    };
    let artifact_path = std::env::temp_dir().join(format!(
        "plansample-bench-clique10-{}.plan",
        std::process::id()
    ));
    let artifact_bytes =
        plansample_artifact::save(&prepared, &artifact_path).expect("artifact saves");
    let cold_secs = median_secs(
        (0..3)
            .map(|_| {
                let t = Instant::now();
                let (_, query, memo) = spec.build_memo();
                let s = PlanSpace::build_shared(Arc::new(memo), Arc::new(query)).unwrap();
                std::hint::black_box(s.total().clone());
                t.elapsed().as_secs_f64()
            })
            .collect(),
    );
    let load_secs = median_secs(
        (0..7)
            .map(|_| {
                let t = Instant::now();
                let p = plansample_artifact::load(&artifact_path).expect("artifact loads");
                std::hint::black_box(p.total().clone());
                t.elapsed().as_secs_f64()
            })
            .collect(),
    );
    let loaded = plansample_artifact::load(&artifact_path).expect("artifact loads");
    let _ = std::fs::remove_file(&artifact_path);
    assert_eq!(
        loaded.total(),
        space.total(),
        "loaded artifact counts identically"
    );
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
    let load_speedup = cold_secs / load_secs.max(1e-12);
    println!(
        "build_scaling/clique-10: cold prepare {:.0} ms vs artifact load {:.1} ms \
         ({load_speedup:.0}x, {artifact_bytes} bytes on disk)",
        cold_secs * 1e3,
        load_secs * 1e3,
    );
    assert!(
        load_speedup >= 20.0,
        "loading a clique-10 artifact must be >= 20x faster than cold preparation; \
         measured {load_speedup:.1}x ({cold_secs:.3}s cold, {load_secs:.4}s load)"
    );

    // --- Acceptance assertion 4: parallel build speedup on clique-10. ---
    // 1-thread vs 4-thread wall time over the same memo (median of 3;
    // totals re-checked bit-identical). `with_threads` pins the counts
    // explicitly, overriding PLANSAMPLE_THREADS — so when CI runs this
    // bench twice (env=1 and env=4), the expensive speedup measurement
    // runs only in the env=4 job instead of duplicating in both. The
    // >= 2x bar additionally applies only where the hardware can express
    // it — on < 4 cores the measurement is printed but the assertion is
    // skipped with a notice instead of failing vacuously.
    if std::env::var("PLANSAMPLE_THREADS").as_deref() == Ok("1") {
        println!(
            "build_scaling/clique-10: PLANSAMPLE_THREADS=1 — sequential-pool job; \
             the parallel-speedup measurement runs in the multi-thread job"
        );
        return;
    }
    let timed_build = |threads: usize| {
        let secs = median_secs(
            (0..3)
                .map(|_| {
                    let t = Instant::now();
                    let s = threadpool::with_threads(threads, || {
                        PlanSpace::build_shared(Arc::clone(&memo), Arc::clone(&query)).unwrap()
                    });
                    assert_eq!(
                        s.total(),
                        space.total(),
                        "{threads}-thread build must count identically"
                    );
                    t.elapsed().as_secs_f64()
                })
                .collect(),
        );
        println!(
            "build_scaling/clique-10 threads={threads}: {:.0} ms",
            secs * 1e3
        );
        secs
    };
    let one = timed_build(1);
    let four = timed_build(4);
    let parallel_speedup = one / four.max(1e-12);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "build_scaling/clique-10: parallel speedup {parallel_speedup:.2}x at 4 threads \
         ({cores} core(s) available)"
    );
    if cores >= 4 {
        assert!(
            parallel_speedup >= 2.0,
            "parallel build must be >= 2x faster at 4 threads on clique-10; \
             measured {parallel_speedup:.2}x on {cores} cores"
        );
    } else {
        println!(
            "build_scaling/clique-10: SKIPPING the >= 2x assertion — only {cores} core(s); \
             a parallel speedup is not physically observable here"
        );
    }
}

criterion_group!(benches, bench_build_scaling);
criterion_main!(benches);
