//! The seven workloads and the runner the library ones share.
//!
//! Every workload is deterministic in `--seed`: the seed feeds the
//! sampler's RNG and the request streams, never the *definition* of a
//! workload (query texts, join-graph specs and database scale are fixed
//! here, so plan-space totals can be pinned as constants).

pub mod build;
pub mod sampling;
pub mod serve;
pub mod validate;

use crate::harness::{self, RunPlan, SetupTimes, Summary};
use crate::manifest;
use crate::trace::{self, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Plan-space sizes, pinned as decimals so the output checks do not
/// take their reference from the code under test at run time. Q8+CP and
/// Q10 are the figures of `docs/EXPERIMENTS.md` Table 1; the clique
/// totals were recorded at commit 82bc0b0 for spec seed [`SPEC_SEED`]
/// (the seed places the indexes, and with them the index-scan
/// alternatives) — clique-8 through the optimizer as the server
/// prepares it, cycle-16 and clique-10 from the directly synthesized
/// memo.
pub const TOTAL_Q8CP: &str = "1758007804933702272";
pub const TOTAL_Q10: &str = "3427680";
pub const TOTAL_CLIQUE8: &str = "272574639657308160";
pub const TOTAL_CYCLE16: &str = "1005040503879831676114962481152";
pub const TOTAL_CLIQUE10: &str = "563336646302110140334080";

/// Seed of the synthetic join-graph *specs* (fixed: part of the
/// workload definition, not of the run).
pub const SPEC_SEED: u64 = 20000;

/// The traced stretch is a fifth of the run, capped: two seconds of
/// spans is plenty and keeps the trace file small.
const MAX_TRACED_STRETCH: Duration = Duration::from_secs(2);

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload's name in `BENCHMARK.json`.
    pub name: String,
    pub seed: u64,
    pub plan: RunPlan,
    pub trace: bool,
    /// Whether set-up is repeated for a steady `setup_s` (off for the
    /// smoke run).
    pub setups: harness::Setups,
    /// Where `trace-<workload>.json` and temp artifacts go.
    pub out_dir: PathBuf,
}

impl Ctx {
    pub fn traced_stretch(&self) -> Duration {
        (self.plan.measure / 5).min(MAX_TRACED_STRETCH)
    }

    /// The plan of the bare and traced passes of a traced run.
    pub fn traced_plan(&self) -> RunPlan {
        RunPlan {
            warmup: self.plan.warmup,
            measure: self.traced_stretch(),
        }
    }
}

/// Metric values by name; units come from the manifest.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            manifest::unit_of(name).is_some(),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `value = median self time of span / divisor_ns` for each
    /// `(metric, span, divisor_ns)` row whose span was recorded.
    pub fn set_from_spans(
        &mut self,
        own: &BTreeMap<&'static str, Vec<u64>>,
        rows: &[(&'static str, &'static str, f64)],
    ) {
        for &(metric, span, divisor_ns) in rows {
            if let Some(times) = own.get(span) {
                self.set(metric, harness::percentile(times, 0.5) / divisor_ns);
            }
        }
    }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Run-level output checks that missed (empty = all held).
    pub check_failures: Vec<String>,
    pub metrics: Metrics,
    /// Human-readable lines printed above the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }

    /// Records every end-to-end metric.
    pub fn set_end_to_end(
        &mut self,
        summary: &Summary,
        setups: &SetupTimes,
        resident_bytes: usize,
        exprs: usize,
    ) {
        self.count(summary);
        self.notes.push(format!(
            "throughput_per_s: {:.1} in the best of {} windows of {} ms or more ({:.1} in the median window), {} ops",
            summary.throughput_per_s,
            summary.windows,
            harness::WINDOW.as_millis(),
            summary.median_window_per_s,
            summary.lat_ns.len()
        ));
        self.notes.push(format!(
            "op latency: p50 {:.2} us, {} {:.2} us over the whole run, the host's interference included ({} samples)",
            summary.lat_p50_us,
            tail_label(summary.lat_ns.len()),
            harness::percentile(
                &summary.lat_ns,
                harness::highest_supported_percentile(summary.lat_ns.len())
            ) / 1e3,
            summary.lat_ns.len()
        ));
        self.notes.push(format!(
            "setup_s: {:.6} at the median of {} set-ups (the first, cold one: {:.6})",
            setups.median_s(),
            setups.0.len(),
            setups.cold_s()
        ));
        self.metrics
            .set("throughput_per_s", summary.throughput_per_s);
        self.metrics.set("setup_s", setups.median_s());
        self.metrics.set("peak_rss_mb", summary.peak_rss_mb);
        self.metrics.set(
            "resident_bytes_per_expr",
            resident_bytes as f64 / exprs as f64,
        );
    }

    /// Adds a pass's op counts; its first failure becomes a check miss.
    pub fn count(&mut self, pass: &Summary) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        if let Some(e) = &pass.first_error {
            self.check_failures.push(format!("first failed op: {e}"));
        }
    }

    /// Records what a traced run's two passes over the same stretch —
    /// the op bare, then inside an `op` span with its layers' spans —
    /// say about the op and about the harness itself. `cpu_ms` is the
    /// process's busy time over the traced pass, `coverage` the share of
    /// an `op` span its child spans cover.
    pub fn set_passes(&mut self, bare: &Summary, traced: &Summary, cpu_ms: f64, coverage: f64) {
        self.count(bare);
        self.count(traced);
        let m = &mut self.metrics;
        m.set("harness.op_p50_us", bare.lat_p50_us);
        // Median window ÷ best window: below 1 by the host's
        // interference; a change that moves it further down while the
        // gated throughput holds has added stalls or a slow mode of its
        // own.
        m.set(
            "harness.median_to_quiet_ratio",
            bare.median_window_per_s / bare.throughput_per_s,
        );
        // Busy time (user + system, all threads) per op, warm-up ops
        // included on both sides of the division: catches spinning or
        // extra wake-ups that wall-clock hides.
        m.set("proc.cpu_ms_per_op", cpu_ms / traced.attempted as f64);
        m.set(
            "harness.trace_overhead_ratio",
            bare.throughput_per_s / traced.throughput_per_s,
        );
        m.set("harness.op_child_coverage", coverage);
        m.set("harness.traced_ops", traced.lat_ns.len() as f64);
    }
}

/// "p99.9"-style label of the highest percentile `samples` support.
fn tail_label(samples: usize) -> String {
    format!(
        "p{}",
        harness::highest_supported_percentile(samples) * 100.0
    )
}

/// A single-threaded workload over the library API.
pub trait Library: Sized {
    fn setup(ctx: &Ctx) -> Result<Self, String>;
    /// One operation; returns the units of work delivered.
    fn op(&mut self) -> Result<u64, String>;
    /// The same operation, decomposed into spans per layer entered.
    fn traced_op(&mut self, tr: &mut Tracer) -> Result<u64, String>;
    /// `(bytes, exprs)` of the resident plan space.
    fn resident(&self) -> (usize, usize);
    /// Run-level output checks; each miss is one line.
    fn verify(&mut self) -> Vec<String>;
    /// Extra per-layer measurements that are not part of the op; record
    /// spans into `tr`, exact counts into `m`.
    fn layers(&mut self, tr: &mut Tracer, m: &mut Metrics) -> Result<(), String>;
    /// `(metric, span, divisor_ns)`: which span's median self time
    /// becomes which metric.
    fn span_metrics() -> &'static [(&'static str, &'static str, f64)];
}

/// Runs a [`Library`] workload, untraced or traced per `ctx.trace`,
/// with the worker pool pinned to one thread.
pub fn run_library<W: Library>(ctx: &Ctx) -> Result<Outcome, String> {
    threadpool::with_threads(1, || {
        if ctx.trace {
            run_library_traced::<W>(ctx)
        } else {
            run_library_untraced::<W>(ctx)
        }
    })
}

fn run_library_untraced<W: Library>(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut state, setups) = harness::repeat_setup(ctx.setups, || W::setup(ctx))?;
    out.check_failures.extend(state.verify());
    let run = harness::run_timed(&ctx.plan, Instant::now(), || state.op())?;
    let summary = harness::summarize(&[&run]);
    let (bytes, exprs) = state.resident();
    out.set_end_to_end(&summary, &setups, bytes, exprs);
    Ok(out)
}

fn run_library_traced<W: Library>(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut state, setups) = harness::repeat_setup(harness::Setups::Once, || W::setup(ctx))?;
    out.metrics.set("harness.cold_setup_s", setups.cold_s());
    out.check_failures.extend(state.verify());

    let plan = ctx.traced_plan();
    let bare = harness::run_timed(&plan, Instant::now(), || state.op())?;
    let mut tr = Tracer::new(Instant::now());
    let cpu_before = harness::cpu_time_ms()?;
    let traced = harness::run_timed(&plan.without_warmup(), Instant::now(), || {
        tr.next_op();
        let open = tr.enter("op");
        let work = state.traced_op(&mut tr);
        tr.exit(open);
        work
    })?;
    let cpu_ms = harness::cpu_time_ms()? - cpu_before;
    out.set_passes(
        &harness::summarize(&[&bare]),
        &harness::summarize(&[&traced]),
        cpu_ms,
        tr.child_coverage("op"),
    );

    state.layers(&mut tr, &mut out.metrics)?;
    out.metrics
        .set_from_spans(&tr.self_times_ns(), W::span_metrics());
    finish_trace(ctx, &[tr], &mut out)?;
    Ok(out)
}

/// Writes `trace-<workload>.json` and records the span counts.
pub fn finish_trace(ctx: &Ctx, tracers: &[Tracer], out: &mut Outcome) -> Result<(), String> {
    let spans: usize = tracers.iter().map(|t| t.spans().len()).sum();
    let dropped: u64 = tracers.iter().map(|t| t.dropped).sum();
    out.metrics.set("harness.spans", spans as f64);
    out.metrics.set("harness.spans_dropped", dropped as f64);
    std::fs::create_dir_all(&ctx.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", ctx.out_dir.display()))?;
    let path = ctx.out_dir.join(format!("trace-{}.json", ctx.name));
    std::fs::write(&path, trace::encode(&ctx.name, tracers))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    out.notes
        .push(format!("trace: {spans} spans -> {}", path.display()));
    Ok(())
}

/// Stack of the thread a workload runs on (the main thread's default).
const WORKLOAD_STACK: usize = 8 << 20;

/// Runs the workload `ctx.name`, on a thread of its own.
///
/// Not on the main thread: the kernel starts that stack at an offset
/// within its page that it draws per process, and the allocation-heavy
/// tree path runs a fifth faster or slower depending on the draw (about
/// 15.5 k or 19.7 k round trips/s, fixed for the life of a process: ten
/// runs spread 22 %). A spawned thread's stack is a page-aligned mapping,
/// so every run of one binary sees the same layout (twelve runs: 3 %).
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(WORKLOAD_STACK)
            .spawn_scoped(scope, || match ctx.name.as_str() {
                "sample_q8cp" | "sample_cycle16" => run_library::<sampling::FlatSampling>(ctx),
                "tree_roundtrip_q8cp" => run_library::<sampling::TreeRoundtrip>(ctx),
                "validate_q10" => run_library::<validate::ValidateQ10>(ctx),
                "build_q8cp" => run_library::<build::BuildQ8cp>(ctx),
                "serve_point_mix" => serve::run(serve::Kind::PointMix, ctx),
                "serve_sample_bulk" => serve::run(serve::Kind::SampleBulk, ctx),
                other => Err(format!("unknown workload {other:?}")),
            })
            .map_err(|e| format!("cannot spawn the workload's thread: {e}"))?
            .join()
            .map_err(|_| "the workload's thread panicked".to_string())?
    })
}

/// FNV-1a over a plan batch's `(group, index)` ids, plan boundaries
/// included — the digest the flat and tree samplers must agree on.
pub fn digest_plans<'a>(plans: impl Iterator<Item = &'a [plansample_memo::PhysId]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for plan in plans {
        eat(plan.len() as u64);
        for id in plan {
            eat(id.group.0 as u64);
            eat(id.index as u64);
        }
    }
    h
}

/// Checks a space's total against its pinned decimal.
pub fn check_total(what: &str, total: &plansample_bignum::Nat, pinned: &str) -> Option<String> {
    let got = total.to_decimal();
    (got != pinned).then(|| format!("{what}: total {got}, pinned {pinned}"))
}
