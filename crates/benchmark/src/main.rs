//! `plansample-benchmark`: the instrument behind `BENCHMARK.json`.
//!
//! ```text
//! plansample-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one run of one workload; the last stdout line is the result
//! plansample-benchmark [--seed N] [--seconds S] [--repeat N] [--check]
//!     every workload, untraced then traced, each in a fresh child
//!     process; writes <target>/benchmark/result-<k>.json
//!     (--repeat N: N sets, odd against even by their medians, A/A)
//! plansample-benchmark --compare A.json[,A2.json...] B.json[,B2.json...]
//!     per-workload x per-metric table of the two sides' medians;
//!     exit 1 when B is worse beyond any bound
//! ```
//!
//! See `README.md` beside this crate's manifest for the workloads, the
//! metrics, and how the layers are expected to interact.

mod alloc;
mod harness;
mod manifest;
mod report;
mod trace;
mod workloads;

use harness::RunPlan;
use plansample_serve::json;
use report::{Group, Host};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::Ctx;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// `--check`: half a second of measuring per pass, one set-up; long
/// enough for every output check to run.
const CHECK_SECONDS: f64 = 0.55;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    repeat: usize,
    check: bool,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        repeat: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--check" => args.check = true,
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// `<target>/benchmark`: trace files, temp artifacts, full-set results.
/// Relative to the working directory, so it stays inside the checkout.
fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("benchmark")
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// One workload, one pass, in this process.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    if !manifest::WORKLOADS.contains(&name) {
        return Err(format!(
            "unknown workload {name:?}; known: {}",
            manifest::WORKLOADS.join(", ")
        ));
    }
    let seconds = args.seconds.unwrap_or(manifest::RUN_SECONDS as f64);
    let ctx = Ctx {
        name: name.to_string(),
        seed: args.seed.unwrap_or(manifest::DEFAULT_SEED),
        plan: RunPlan::from_seconds(seconds),
        trace: args.trace,
        setups: if args.check {
            harness::Setups::Once
        } else {
            harness::Setups::Repeated
        },
        out_dir: out_dir(),
    };
    println!(
        "host: {} core(s), {}; seed {}, {seconds} s = warm-up {:.2} s + {:.2} s in windows of {} ms or more, {}",
        harness::cores(),
        cpu_model(),
        ctx.seed,
        ctx.plan.warmup.as_secs_f64(),
        ctx.plan.measure.as_secs_f64(),
        harness::WINDOW.as_millis(),
        if ctx.trace { "traced" } else { "untraced" }
    );
    let outcome = workloads::run(&ctx)?;
    for note in &outcome.notes {
        println!("{note}");
    }
    for (metric, value) in &outcome.metrics.0 {
        println!(
            "{metric} = {value} {}",
            manifest::unit_of(metric).unwrap_or("?")
        );
    }
    for miss in &outcome.check_failures {
        println!("CHECK FAILED: {miss}");
    }
    println!("{}", report::result_line(&outcome, ctx.trace)?);
    Ok(outcome.correct())
}

/// Runs `--workload name` in a fresh child of this binary (so peak RSS
/// and allocator state are the workload's own); returns its validated
/// result line.
fn run_child(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if check {
        cmd.arg("--check");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child for {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    for line in stdout.lines().filter(|l| *l != last) {
        println!("  {line}");
    }
    let doc = json::parse(last).map_err(|e| {
        format!(
            "{name}: child exited with {} without a result line ({e})",
            output.status
        )
    })?;
    report::validate_result(&doc, trace).map_err(|e| format!("{name}: {e}"))?;
    Ok(last.to_string())
}

/// Every workload, untraced then traced.
fn run_full_set(host: &Host, seed: u64, seconds: f64, check: bool) -> Result<String, String> {
    let mut rows = Vec::new();
    for name in manifest::WORKLOADS {
        println!("== {name} ==");
        let untraced = run_child(name, seed, seconds, false, check)?;
        let traced = run_child(name, seed, seconds, true, check)?;
        rows.push((name.to_string(), untraced, traced));
    }
    Ok(report::full_set(host, seed, seconds, &rows))
}

fn run_sets(args: &Args) -> Result<bool, String> {
    let seed = args.seed.unwrap_or(manifest::DEFAULT_SEED);
    let seconds = if args.check {
        CHECK_SECONDS
    } else {
        args.seconds.unwrap_or(manifest::RUN_SECONDS as f64)
    };
    let host = Host {
        cores: harness::cores(),
        cpu: cpu_model(),
        commit: tool_line("git", &["rev-parse", "HEAD"]),
        rustc: tool_line("rustc", &["-V"]),
    };
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    // Odd-numbered sets are side A and even-numbered ones side B, so a
    // drift of the host over the session lands on both sides.
    let mut sides: [Vec<json::Json>; 2] = [Vec::new(), Vec::new()];
    for k in 1..=args.repeat {
        let set = run_full_set(&host, seed, seconds, args.check)?;
        let path = dir.join(format!("result-{k}.json"));
        std::fs::write(&path, &set).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("set {k} of {} -> {}", args.repeat, path.display());
        sides[(k + 1) % 2].push(json::parse(&set).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    let [a, b] = sides;
    let a = Group::new(a)?;
    let mut ok = report_failures(&a);
    if !b.is_empty() {
        // A/A: neither side is "the change", so a difference beyond the
        // bound in either direction is a disagreement.
        let b = Group::new(b)?;
        ok &= report_failures(&b);
        let diffs = report::compare(&a, &b)?;
        print!("{}", report::table(&diffs, report::Diff::disagrees));
        ok &= !diffs.iter().any(report::Diff::disagrees);
    }
    Ok(ok)
}

fn report_failures(group: &Group) -> bool {
    let failures = group.failures();
    for failure in &failures {
        println!("FAILED: {failure}");
    }
    failures.is_empty()
}

fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let (a, b) = (Group::read(a)?, Group::read(b)?);
    let diffs = report::compare(&a, &b)?;
    print!("{}", report::table(&diffs, report::Diff::regressed));
    let regressed = diffs.iter().any(report::Diff::regressed);
    Ok(report_failures(&a) & report_failures(&b) & !regressed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        if let Some((a, b)) = &args.compare {
            run_compare(a, b)
        } else if let Some(name) = &args.workload {
            run_one(name, &args)
        } else {
            run_sets(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("plansample-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse_args(&argv(&[
            "--workload",
            "sample_q8cp",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("sample_q8cp"));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (Some(7), Some(10.0), true)
        );
        assert!(parse_args(&argv(&["--trace", "yes"])).is_err());
        assert!(parse_args(&argv(&["--seconds", "0"])).is_err());
        assert!(parse_args(&argv(&["--repeat", "0"])).is_err());
        assert!(parse_args(&argv(&["--compare", "a.json"])).is_err());
        assert!(parse_args(&argv(&["--frobnicate"])).is_err());
    }
}
