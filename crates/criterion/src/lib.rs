//! Workspace-internal stand-in for the subset of the crates.io `criterion`
//! bench API this repository uses.
//!
//! The build environment has no crates.io access, so this crate implements
//! just enough of the criterion surface for the `crates/bench` suites:
//! [`criterion_group!`] / [`criterion_main!`], [`Criterion`] with
//! [`Criterion::bench_function`] and [`Criterion::benchmark_group`], group
//! [`BenchmarkGroup::sample_size`], and [`Bencher::iter`].
//!
//! Measurement is deliberately simple: after one warm-up call, each sample
//! times a single invocation of the routine, and the bench reports the
//! median, minimum, and maximum over the samples to stdout. There are no
//! HTML reports, statistical regressions, or plots. Passing `--test` (as
//! `cargo test --benches` does) runs every routine exactly once without
//! timing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Default number of timed samples per benchmark.
const DEFAULT_SAMPLE_SIZE: usize = 50;

/// Collects and runs benchmarks; the stand-in for criterion's manager type.
#[derive(Debug, Default)]
pub struct Criterion {
    test_mode: bool,
    filter: Option<String>,
}

impl Criterion {
    /// Builds a manager configured from the process arguments: `--test`
    /// switches to run-once mode, and the first free-standing argument is a
    /// substring filter on benchmark names.
    pub fn from_args() -> Self {
        let mut c = Criterion::default();
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" => c.test_mode = true,
                "--bench" => {}
                s if !s.starts_with('-') && c.filter.is_none() => {
                    c.filter = Some(s.to_string());
                }
                _ => {}
            }
        }
        c
    }

    /// Benchmarks `f` under `id` with the default sample size.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        run_one(self, &id, DEFAULT_SAMPLE_SIZE, f);
        self
    }

    /// Starts a named group of benchmarks sharing a sample size.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: DEFAULT_SAMPLE_SIZE,
        }
    }

    /// Prints the trailing summary (a no-op in this stand-in).
    pub fn final_summary(&mut self) {}
}

/// A named group of benchmarks; stand-in for criterion's `BenchmarkGroup`.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples for subsequent benchmarks.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Benchmarks `f` under `group-name/id`.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = format!("{}/{}", self.name, id.into());
        run_one(self.criterion, &id, self.sample_size, f);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

fn run_one<F>(criterion: &Criterion, id: &str, sample_size: usize, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    if let Some(filter) = &criterion.filter {
        if !id.contains(filter.as_str()) {
            return;
        }
    }
    let mut bencher = Bencher {
        samples: if criterion.test_mode { 0 } else { sample_size },
        times: Vec::new(),
    };
    f(&mut bencher);
    if criterion.test_mode {
        println!("test {id} ... ok");
        return;
    }
    bencher.times.sort();
    match bencher.times.as_slice() {
        [] => println!("{id}: no measurements (Bencher::iter never called)"),
        times => println!(
            "{id}: median {:>12} (min {}, max {}, {} samples)",
            format_duration(times[times.len() / 2]),
            format_duration(times[0]),
            format_duration(times[times.len() - 1]),
            times.len(),
        ),
    }
}

fn format_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    match nanos {
        0..=9_999 => format!("{nanos} ns"),
        10_000..=9_999_999 => format!("{:.2} µs", nanos as f64 / 1e3),
        10_000_000..=9_999_999_999 => format!("{:.2} ms", nanos as f64 / 1e6),
        _ => format!("{:.3} s", nanos as f64 / 1e9),
    }
}

/// Times one benchmark routine; stand-in for criterion's `Bencher`.
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    times: Vec<Duration>,
}

impl Bencher {
    /// Runs the routine once as warm-up, then `sample_size` timed times
    /// (or exactly once, untimed, in `--test` mode).
    pub fn iter<O, F>(&mut self, mut routine: F)
    where
        F: FnMut() -> O,
    {
        std::hint::black_box(routine());
        for _ in 0..self.samples {
            let start = Instant::now();
            std::hint::black_box(routine());
            self.times.push(start.elapsed());
        }
    }
}

/// Bundles benchmark functions into a group runnable by [`criterion_main!`].
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(criterion: &mut $crate::Criterion) {
            $($target(criterion);)+
        }
    };
}

/// Generates `fn main` running the given [`criterion_group!`] groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::from_args();
            $($group(&mut criterion);)+
            criterion.final_summary();
        }
    };
}
