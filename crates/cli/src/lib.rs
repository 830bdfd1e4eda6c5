//! Implementation of the `plansample` command-line tool.
//!
//! The CLI wraps the full pipeline — SQL parsing, one-shot query
//! preparation, plan counting, USEPLAN execution, uniform sampling,
//! plan ranking, and differential validation — over the built-in TPC-H
//! catalog (SF-1 statistics) and a seeded synthetic micro database. It
//! is the paper's §4 "scripting primitives" experience as a standalone
//! binary:
//!
//! ```text
//! plansample-cli count    "SELECT ... FROM ... WHERE ..."
//! plansample-cli run      "SELECT ... OPTION (USEPLAN 8)"
//! plansample-cli sample   1000 "SELECT ..."
//! plansample-cli validate 200  "SELECT ..."
//! plansample-cli enumerate 20  "SELECT ..."
//! plansample-cli rank     "7.7 4.3 3.4 2.3 1.3" "SELECT ..."
//! plansample-cli memo     "SELECT ..."
//! ```
//!
//! Every invocation prepares the query **once**
//! ([`plansample::PreparedQuery::prepare`]) and serves all of its
//! sub-steps — counting, sampling, paging, execution — from that one
//! artifact; only `run` and `validate`, which execute plans, generate
//! the micro database. `stats` instead routes through a
//! [`plansample::PlanService`] and reports the cache counters plus the
//! prepared artifact's exact byte footprint (links / counts / memo).
//!
//! Global flags: `--cross-products`, `--seed N`, `--orders N` (micro
//! database size), `--threads N` (a server's request workers, shared
//! by its reactors).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use plansample::PreparedQuery;
use plansample_catalog::Catalog;
use plansample_datagen::MicroScale;
use plansample_exec::render_table;
use plansample_memo::{GroupId, PhysId, PlanNode};
use plansample_optimizer::OptimizerConfig;
use plansample_stats::{Histogram, Summary};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The action to perform.
    pub command: Command,
    /// Allow Cartesian products in the plan space.
    pub cross_products: bool,
    /// Seed for data generation and sampling.
    pub seed: u64,
    /// Orders in the micro database (other tables scale along).
    pub orders: usize,
    /// `--threads`: request workers, shared by the reactors, for
    /// `serve`/`loadgen` servers (`None`: 4).
    pub threads: Option<usize>,
    /// Reactor (event-loop) threads for `serve`/`loadgen` servers
    /// (`0`: one per available core).
    pub reactors: usize,
    /// Persistent artifact store directory for `serve`: the cache is
    /// warmed from it at startup and every TPC-H preparation is written
    /// through to it.
    pub artifact_dir: Option<String>,
}

/// The `artifact` subcommands: move prepared plan spaces on and off
/// disk and examine the on-disk format.
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactAction {
    /// Prepare the query and publish it into a store directory.
    Save {
        /// Store directory (created if missing).
        dir: String,
        /// The query to prepare.
        sql: String,
    },
    /// Load the query's artifact from a store and prove it serves.
    Load {
        /// Store directory.
        dir: String,
        /// The query whose artifact to look up.
        sql: String,
    },
    /// Print one artifact file's section-level byte breakdown.
    Inspect {
        /// The `.plan` file to inspect.
        file: String,
    },
    /// Fully decode one artifact file, reporting the typed error on
    /// any corruption.
    Verify {
        /// The `.plan` file to verify.
        file: String,
    },
}

/// CLI actions.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Count the plans of a query.
    Count(String),
    /// Execute the optimizer's plan (or `OPTION (USEPLAN n)` if present).
    Run(String),
    /// Sample `k` plans and report the scaled-cost distribution.
    Sample(usize, String),
    /// Differentially validate `k` sampled plans.
    Validate(usize, String),
    /// List the first `k` plans with costs.
    Enumerate(usize, String),
    /// Rank a `USEPLAN`-style plan given as preorder expression ids.
    Rank(String, String),
    /// Dump the memo structure (Figure-2 style).
    Memo(String),
    /// Report serving-cache stats and the artifact's byte footprint.
    Stats(String),
    /// Serve the plan service over TCP at the given address (blocks).
    Serve(String),
    /// Load-test a server: connections, requests per connection, and
    /// the target address (`None` starts a throwaway in-process server).
    Loadgen(usize, usize, Option<String>),
    /// Persist, load, inspect, or verify on-disk plan-space artifacts.
    Artifact(ArtifactAction),
    /// Print usage.
    Help,
}

/// Errors from argument parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}\n\n{}", self.0, USAGE)
    }
}

impl std::error::Error for UsageError {}

/// Errors from executing a CLI command, with [`std::error::Error::source`]
/// chains down to the failing layer (optimizer, plan space, executor).
#[derive(Debug)]
pub enum CliError {
    /// SQL parsing failed; holds the rendered caret diagnostic.
    Sql(String),
    /// The plan argument of `rank` was malformed or not in the space.
    Plan(String),
    /// The pipeline failed (optimize / count / rank / execute).
    Run(plansample::Error),
    /// The network server or load generator failed.
    Serve(String),
    /// An artifact operation failed; the typed error says how.
    Artifact(plansample_artifact::ArtifactError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Sql(rendered) => write!(f, "{rendered}"),
            CliError::Plan(msg) => write!(f, "invalid plan specification: {msg}"),
            CliError::Run(e) => write!(f, "{e}"),
            CliError::Serve(msg) => write!(f, "{msg}"),
            CliError::Artifact(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Sql(_) | CliError::Plan(_) | CliError::Serve(_) => None,
            CliError::Run(e) => e.source(),
            CliError::Artifact(e) => e.source(),
        }
    }
}

impl From<plansample_artifact::ArtifactError> for CliError {
    fn from(e: plansample_artifact::ArtifactError) -> Self {
        CliError::Artifact(e)
    }
}

impl From<plansample::Error> for CliError {
    fn from(e: plansample::Error) -> Self {
        CliError::Run(e)
    }
}

impl From<plansample::SpaceError> for CliError {
    fn from(e: plansample::SpaceError) -> Self {
        CliError::Run(e.into())
    }
}

/// Usage text.
pub const USAGE: &str = "\
plansample-cli — count, enumerate, sample, rank, and validate execution plans
            (Waas & Galindo-Legaria, SIGMOD 2000)

USAGE:
  plansample-cli [FLAGS] count           \"SQL\"
  plansample-cli [FLAGS] run             \"SQL [OPTION (USEPLAN n)]\"
  plansample-cli [FLAGS] sample    K     \"SQL\"
  plansample-cli [FLAGS] validate  K     \"SQL\"
  plansample-cli [FLAGS] enumerate K     \"SQL\"
  plansample-cli [FLAGS] rank     PLAN   \"SQL\"
  plansample-cli [FLAGS] memo            \"SQL\"
  plansample-cli [FLAGS] stats           \"SQL\"
  plansample-cli [FLAGS] serve           [ADDR]
  plansample-cli [FLAGS] loadgen         [CONNS REQS [ADDR]]
  plansample-cli [FLAGS] artifact save    DIR  \"SQL\"
  plansample-cli [FLAGS] artifact load    DIR  \"SQL\"
  plansample-cli [FLAGS] artifact inspect FILE
  plansample-cli [FLAGS] artifact verify  FILE

  PLAN is a plan tree in preorder as space-separated expression ids
  (`group.expr`, as printed by `memo` and `enumerate`), e.g.
  \"7.7 4.3 3.4 2.3 1.3\". `rank` prints the plan's number within the
  sub-space rooted at its root operator and, when the root lies in the
  memo's root group, its whole-space USEPLAN number.

  `stats` prepares the query through the serving cache and prints the
  cache counters plus the artifact's exact byte footprint (links,
  counts, memo — the size the byte-budgeted cache charges).

  `serve` exposes the plan service over TCP (default 127.0.0.1:4141;
  `--reactors` and `--threads` size it, see FLAGS) and blocks until
  killed. `loadgen` drives a mixed TPC-H + synthetic workload — CONNS
  concurrent connections, REQS requests each (default 100 x 50) —
  against ADDR, or against a throwaway in-process server when ADDR is
  omitted, prints the per-reactor counter breakdown from the server's
  stats, and fails unless the run was clean: no protocol or
  application error, a reply for every request, and a balanced
  admission ledger.

  `artifact save` prepares a query once and publishes the plan space
  into a store directory; `load` proves the artifact round-trips;
  `inspect` prints the file's section-level byte breakdown; `verify`
  fully decodes it and reports the typed error on any corruption.
  `serve --artifact-dir DIR` preloads the cache from the store at
  startup and write-through-persists every TPC-H preparation there, so
  restarts skip re-optimization entirely.

FLAGS:
  --cross-products   include Cartesian products in the space
  --seed N           RNG seed (default 42)
  --orders N         orders in the micro database (default 120)
  --threads N        request workers for serve/loadgen servers, shared
                     by the server's reactors (default 4)
  --reactors N       event-loop threads for serve/loadgen servers
                     (default: one per available core)
  --artifact-dir DIR persistent artifact store for `serve` (warms the
                     cache at startup, persists every preparation)

Queries run against the TPC-H schema (region, nation, supplier,
customer, part, partsupp, orders, lineitem) with SF-1 statistics and a
seeded synthetic micro database.";

/// Parses command-line arguments (without the program name).
pub fn parse_args<I, S>(args: I) -> Result<Cli, UsageError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut cross_products = false;
    let mut seed = 42u64;
    let mut orders = 120usize;
    let mut threads: Option<usize> = None;
    let mut reactors = 0usize;
    let mut artifact_dir: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();

    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let arg = arg.as_ref();
        match arg {
            "--cross-products" => cross_products = true,
            "--artifact-dir" => {
                let v = iter
                    .next()
                    .ok_or_else(|| UsageError("--artifact-dir needs a directory".into()))?;
                artifact_dir = Some(v.as_ref().to_string());
            }
            "--threads" => {
                let v = iter
                    .next()
                    .ok_or_else(|| UsageError("--threads needs a value".into()))?;
                let n: usize = v
                    .as_ref()
                    .parse()
                    .map_err(|_| UsageError(format!("bad --threads value `{}`", v.as_ref())))?;
                if n == 0 {
                    return Err(UsageError("--threads needs at least 1".into()));
                }
                threads = Some(n);
            }
            "--reactors" => {
                let v = iter
                    .next()
                    .ok_or_else(|| UsageError("--reactors needs a value".into()))?;
                reactors = v
                    .as_ref()
                    .parse()
                    .map_err(|_| UsageError(format!("bad --reactors value `{}`", v.as_ref())))?;
            }
            "--seed" => {
                let v = iter
                    .next()
                    .ok_or_else(|| UsageError("--seed needs a value".into()))?;
                seed = v
                    .as_ref()
                    .parse()
                    .map_err(|_| UsageError(format!("bad --seed value `{}`", v.as_ref())))?;
            }
            "--orders" => {
                let v = iter
                    .next()
                    .ok_or_else(|| UsageError("--orders needs a value".into()))?;
                orders = v
                    .as_ref()
                    .parse()
                    .map_err(|_| UsageError(format!("bad --orders value `{}`", v.as_ref())))?;
            }
            "--help" | "-h" => {
                return Ok(Cli {
                    command: Command::Help,
                    cross_products,
                    seed,
                    orders,
                    threads,
                    reactors,
                    artifact_dir,
                })
            }
            flag if flag.starts_with("--") => {
                return Err(UsageError(format!("unknown flag `{flag}`")))
            }
            other => positional.push(other.to_string()),
        }
    }

    let command = match positional.first().map(String::as_str) {
        None => Command::Help,
        Some("count") => Command::Count(one_sql(&positional)?),
        Some("run") => Command::Run(one_sql(&positional)?),
        Some("memo") => Command::Memo(one_sql(&positional)?),
        Some("stats") => Command::Stats(one_sql(&positional)?),
        Some("sample") => {
            let (k, sql) = k_and_sql(&positional)?;
            Command::Sample(k, sql)
        }
        Some("validate") => {
            let (k, sql) = k_and_sql(&positional)?;
            Command::Validate(k, sql)
        }
        Some("enumerate") => {
            let (k, sql) = k_and_sql(&positional)?;
            Command::Enumerate(k, sql)
        }
        Some("rank") => match &positional[..] {
            [_, plan, sql] => Command::Rank(plan.clone(), sql.clone()),
            _ => {
                return Err(UsageError(
                    "`rank` takes a plan (preorder expression ids) and one SQL argument".into(),
                ))
            }
        },
        Some("serve") => match &positional[..] {
            [_] => Command::Serve("127.0.0.1:4141".into()),
            [_, addr] => Command::Serve(addr.clone()),
            _ => return Err(UsageError("`serve` takes at most an ADDR argument".into())),
        },
        Some("loadgen") => match &positional[..] {
            [_] => Command::Loadgen(100, 50, None),
            [_, conns, reqs] | [_, conns, reqs, _] => {
                let parse_count = |name: &str, v: &str| {
                    v.parse::<usize>().ok().filter(|n| *n > 0).ok_or_else(|| {
                        UsageError(format!("`loadgen` needs a positive {name}, got `{v}`"))
                    })
                };
                Command::Loadgen(
                    parse_count("CONNS", conns)?,
                    parse_count("REQS", reqs)?,
                    positional.get(3).cloned(),
                )
            }
            _ => {
                return Err(UsageError(
                    "`loadgen` takes CONNS REQS and an optional ADDR".into(),
                ))
            }
        },
        Some("artifact") => {
            let rest: Vec<&str> = positional[1..].iter().map(String::as_str).collect();
            let action = match rest.as_slice() {
                ["save", dir, sql] => ArtifactAction::Save {
                    dir: dir.to_string(),
                    sql: sql.to_string(),
                },
                ["load", dir, sql] => ArtifactAction::Load {
                    dir: dir.to_string(),
                    sql: sql.to_string(),
                },
                ["inspect", file] => ArtifactAction::Inspect {
                    file: file.to_string(),
                },
                ["verify", file] => ArtifactAction::Verify {
                    file: file.to_string(),
                },
                _ => {
                    return Err(UsageError(
                        "`artifact` takes `save DIR SQL`, `load DIR SQL`, \
                         `inspect FILE`, or `verify FILE`"
                            .into(),
                    ))
                }
            };
            Command::Artifact(action)
        }
        Some(other) => return Err(UsageError(format!("unknown command `{other}`"))),
    };
    Ok(Cli {
        command,
        cross_products,
        seed,
        orders,
        threads,
        reactors,
        artifact_dir,
    })
}

fn one_sql(positional: &[String]) -> Result<String, UsageError> {
    match positional {
        [_, sql] => Ok(sql.clone()),
        _ => Err(UsageError(format!(
            "`{}` takes exactly one SQL argument",
            positional[0]
        ))),
    }
}

fn k_and_sql(positional: &[String]) -> Result<(usize, String), UsageError> {
    match positional {
        [cmd, k, sql] => {
            let k = k
                .parse()
                .map_err(|_| UsageError(format!("`{cmd}` needs a numeric count, got `{k}`")))?;
            Ok((k, sql.clone()))
        }
        _ => Err(UsageError(format!(
            "`{}` takes a count and one SQL argument",
            positional[0]
        ))),
    }
}

/// Parses one `group.expr` token in the 1-based display form used by
/// `memo` / `enumerate` output (e.g. `3.4` = group 3, expression 4).
fn parse_phys_id(token: &str, prepared: &PreparedQuery) -> Result<PhysId, CliError> {
    let bad = |what: &str| CliError::Plan(format!("{what} in expression id `{token}`"));
    let (g, e) = token
        .split_once('.')
        .ok_or_else(|| bad("missing `.` separator"))?;
    let group: u32 = g.parse().map_err(|_| bad("non-numeric group"))?;
    let expr: usize = e.parse().map_err(|_| bad("non-numeric expression"))?;
    let memo = prepared.memo();
    if group as usize >= memo.num_groups() {
        return Err(bad("unknown group"));
    }
    let n_exprs = memo.group(GroupId(group)).physical.len();
    if expr == 0 || expr > n_exprs {
        return Err(bad("unknown expression"));
    }
    Ok(PhysId {
        group: GroupId(group),
        index: expr - 1,
    })
}

/// Reconstructs a plan tree from its preorder expression-id listing,
/// using the prepared links for each operator's arity.
fn parse_plan(spec: &str, prepared: &PreparedQuery) -> Result<PlanNode, CliError> {
    let tokens: Vec<PhysId> = spec
        .split_whitespace()
        .map(|t| parse_phys_id(t, prepared))
        .collect::<Result<_, _>>()?;
    if tokens.is_empty() {
        return Err(CliError::Plan("empty plan specification".into()));
    }
    fn build(
        tokens: &[PhysId],
        pos: &mut usize,
        prepared: &PreparedQuery,
    ) -> Result<PlanNode, CliError> {
        let id = tokens[*pos];
        *pos += 1;
        let arity = prepared.space().links().arity_of(id);
        let mut children = Vec::with_capacity(arity);
        for _ in 0..arity {
            if *pos >= tokens.len() {
                return Err(CliError::Plan(format!(
                    "plan ends early: operator {id} expects {arity} child(ren)"
                )));
            }
            children.push(build(tokens, pos, prepared)?);
        }
        Ok(PlanNode { id, children })
    }
    let mut pos = 0;
    let plan = build(&tokens, &mut pos, prepared)?;
    if pos != tokens.len() {
        return Err(CliError::Plan(format!(
            "{} trailing expression id(s) after a complete plan",
            tokens.len() - pos
        )));
    }
    Ok(plan)
}

/// Executes a parsed command, returning the text to print.
pub fn run(cli: &Cli) -> Result<String, CliError> {
    if cli.command == Command::Help {
        return Ok(USAGE.to_string());
    }
    // The network and artifact commands parse their own input (or
    // none); they branch before the shared SQL parse.
    match &cli.command {
        Command::Serve(addr) => return run_serve(cli, addr),
        Command::Loadgen(conns, reqs, addr) => {
            return run_loadgen(cli, *conns, *reqs, addr.as_deref())
        }
        Command::Artifact(action) => return run_artifact(cli, action),
        _ => {}
    }
    let (catalog, tables) = plansample_catalog::tpch::catalog();
    let config = optimizer_config(cli);

    let sql = match &cli.command {
        Command::Count(s)
        | Command::Run(s)
        | Command::Sample(_, s)
        | Command::Validate(_, s)
        | Command::Enumerate(_, s)
        | Command::Rank(_, s)
        | Command::Memo(s)
        | Command::Stats(s) => s.clone(),
        Command::Help | Command::Serve(_) | Command::Loadgen(..) | Command::Artifact(_) => {
            unreachable!("handled above")
        }
    };
    let parsed = parse_sql(&catalog, &sql)?;
    let query = parsed.spec;

    // `stats` routes through the serving cache instead of a one-shot
    // preparation (it reports the cache's own counters).
    if let Command::Stats(_) = &cli.command {
        return run_stats(catalog, config, &query);
    }

    // One preparation serves every sub-step of every command below.
    let prepared = PreparedQuery::prepare(&catalog, &query, &config)?;
    // Only the commands that execute plans read the micro database.
    let micro_db = || {
        let scale = MicroScale {
            orders: cli.orders,
            ..Default::default()
        };
        plansample_datagen::generate(&catalog, &tables, &scale, cli.seed)
    };
    let mut out = String::new();

    match &cli.command {
        Command::Help
        | Command::Stats(_)
        | Command::Serve(_)
        | Command::Loadgen(..)
        | Command::Artifact(_) => {
            unreachable!("handled above")
        }
        Command::Count(_) => {
            let memo = prepared.memo();
            let _ = writeln!(
                out,
                "{} groups, {} physical expressions",
                memo.num_groups(),
                memo.num_physical()
            );
            let _ = writeln!(out, "{} complete execution plans", prepared.total());
        }
        Command::Run(_) => {
            // `OPTION (USEPLAN n)` runs plan n, otherwise the optimizer's.
            let unranked = parsed
                .useplan
                .as_ref()
                .map(|rank| prepared.unrank(rank))
                .transpose()?;
            let plan = unranked.as_ref().unwrap_or(prepared.best().0);
            let table = prepared.execute(&catalog, &micro_db(), plan)?;
            let _ = match &parsed.useplan {
                Some(rank) => writeln!(
                    out,
                    "plan {rank} of {} (scaled cost {:.2}):",
                    prepared.total(),
                    prepared.scaled_cost(plan)
                ),
                None => writeln!(
                    out,
                    "optimizer's plan (cost {:.0}, space of {} plans):",
                    plan.total_cost(prepared.memo()),
                    prepared.total()
                ),
            };
            let _ = writeln!(out, "{}", plan.render(prepared.memo()));
            if !parsed.order_by.is_empty() {
                let verdict = if prepared.satisfies_order(plan, &parsed.order_by) {
                    "delivered"
                } else {
                    "NOT delivered (an explicit sort would be required)"
                };
                let _ = writeln!(out, "requested order: {verdict}");
            }
            let _ = write!(out, "{}", render_table(&table, 20));
        }
        Command::Sample(k, _) => {
            let mut rng = StdRng::seed_from_u64(cli.seed);
            // The flat batch path: unranking on the fastest fixed-width
            // tier the space qualifies for (u64 → u128 → exact Nat), no
            // per-plan tree allocation, each plan costed as it is drawn.
            let mut batch = plansample::PlanBatch::new();
            prepared.sample_batch_scaled(&mut rng, *k, &mut batch);
            let costs = batch.costs();
            let s = Summary::of(costs);
            let _ = writeln!(
                out,
                "{k} uniform samples from {} plans ({} unranking tier)",
                prepared.total(),
                prepared.tier()
            );
            let _ = writeln!(
                out,
                "scaled costs: min {:.2}  mean {:.1}  max {:.1}",
                s.min(),
                s.mean(),
                s.max()
            );
            let _ = writeln!(
                out,
                "within 2x: {:.2}%   within 10x: {:.2}%",
                100.0 * s.fraction_below(2.0),
                100.0 * s.fraction_below(10.0)
            );
            let _ = writeln!(out, "\nlower 50% of sampled costs:");
            let hist = Histogram::lower_fraction(costs, 0.5, 16);
            let _ = write!(out, "{}", hist.render(40));
        }
        Command::Validate(k, _) => {
            let mut rng = StdRng::seed_from_u64(cli.seed);
            let report = prepared.validate_sampled(&catalog, &micro_db(), *k, &mut rng)?;
            let _ = writeln!(out, "{report}");
            for m in &report.mismatches {
                let _ = writeln!(
                    out,
                    "  MISMATCH at plan {} ({} rows vs {} expected) — reproduce with OPTION (USEPLAN {})",
                    m.rank, m.actual_rows, m.expected_rows, m.rank
                );
            }
        }
        Command::Enumerate(k, _) => {
            let _ = writeln!(out, "first {k} of {} plans:", prepared.total());
            for (rank, plan) in prepared.enumerate().take(*k).enumerate() {
                let ops: Vec<String> = plan
                    .preorder_ids()
                    .iter()
                    .map(|id| format!("{}[{id}]", prepared.memo().phys(*id).op.name()))
                    .collect();
                let _ = writeln!(
                    out,
                    "{rank:>6}  cost {:>12.0}  {}",
                    plan.total_cost(prepared.memo()),
                    ops.join(" ")
                );
            }
        }
        Command::Rank(plan_spec, _) => {
            let plan = parse_plan(plan_spec, &prepared)?;
            let rooted = prepared.rank_rooted(&plan)?;
            let _ = writeln!(
                out,
                "plan rooted at {}: rank {rooted} of the {}-plan sub-space",
                plan.id,
                prepared.count_rooted(plan.id)
            );
            if plan.id.group == prepared.memo().root() {
                let whole = prepared.rank(&plan)?;
                let _ = writeln!(
                    out,
                    "whole-space rank {whole} of {} — reproduce with OPTION (USEPLAN {whole})",
                    prepared.total()
                );
            } else {
                let _ = writeln!(
                    out,
                    "(root operator lies in group {}, not the memo root group {} — no \
                     whole-space USEPLAN number)",
                    plan.id.group.0,
                    prepared.memo().root().0
                );
            }
        }
        Command::Memo(_) => {
            let _ = write!(
                out,
                "{}",
                plansample_memo::render_memo(prepared.memo(), prepared.query(), &catalog)
            );
        }
    }
    Ok(out)
}

/// The optimizer configuration `--cross-products` selects.
fn optimizer_config(cli: &Cli) -> OptimizerConfig {
    if cli.cross_products {
        OptimizerConfig::with_cross_products()
    } else {
        OptimizerConfig::default()
    }
}

/// Parses `sql` against `catalog`, rendering a syntax error with a caret
/// under the offending token.
fn parse_sql(catalog: &Catalog, sql: &str) -> Result<plansample_sql::ParsedQuery, CliError> {
    plansample_sql::parse(catalog, sql).map_err(|e| CliError::Sql(e.render(sql)))
}

/// The `serve` command: expose the plan service over TCP and block
/// until the process is killed. Listens on `addr`; `--reactors` sets
/// the event-loop count (0 = one per core), `--threads` the request
/// workers they share, `--cross-products` widens the plan spaces served.
fn run_serve(cli: &Cli, addr: &str) -> Result<String, CliError> {
    let config = plansample_serve::ServerConfig {
        addr: addr.to_string(),
        reactors: cli.reactors,
        workers: cli.threads.unwrap_or(4),
        cross_products: cli.cross_products,
        artifact_dir: cli.artifact_dir.clone().map(Into::into),
        ..Default::default()
    };
    let handle = plansample_serve::server::start(config)
        .map_err(|e| CliError::Serve(format!("cannot listen on {addr}: {e}")))?;
    eprintln!(
        "plansample serving on {} with {} reactor(s)",
        handle.addr(),
        plansample_serve::server::resolve_reactors(cli.reactors)
    );
    handle.join();
    Ok(String::new())
}

/// The `loadgen` command: a thin wrapper over
/// [`plansample_serve::loadgen`] returning the human summary, or an
/// error carrying it when [`LoadReport::check`] says the run was dirty.
///
/// [`LoadReport::check`]: plansample_serve::loadgen::LoadReport::check
fn run_loadgen(
    cli: &Cli,
    connections: usize,
    requests: usize,
    addr: Option<&str>,
) -> Result<String, CliError> {
    let mut inline = None;
    let target = match addr {
        Some(addr) => addr
            .parse()
            .map_err(|e| CliError::Serve(format!("bad address {addr:?}: {e}")))?,
        None => {
            let handle = plansample_serve::server::start(plansample_serve::ServerConfig {
                reactors: cli.reactors,
                workers: cli.threads.unwrap_or(4),
                cross_products: cli.cross_products,
                ..Default::default()
            })
            .map_err(|e| CliError::Serve(format!("cannot start inline server: {e}")))?;
            let addr = handle.addr();
            inline = Some(handle);
            addr
        }
    };
    let report = plansample_serve::loadgen::run(
        target,
        &plansample_serve::loadgen::LoadgenConfig {
            connections,
            requests_per_connection: requests,
            seed: cli.seed,
            ..Default::default()
        },
    );
    if let Some(handle) = inline {
        handle.stop();
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} connections x {requests} requests against {target}",
        report.connections
    );
    let _ = writeln!(
        out,
        "sent {}  ok {}  overloaded {}  app_errors {}  protocol_errors {}",
        report.sent, report.ok, report.overloaded, report.app_errors, report.protocol_errors
    );
    let _ = writeln!(
        out,
        "elapsed {:.3}s  throughput {:.0} req/s  latency us p50 {} p99 {} p999 {}",
        report.elapsed.as_secs_f64(),
        report.throughput(),
        report.latency_us(0.50),
        report.latency_us(0.99),
        report.latency_us(0.999),
    );
    if let Some(s) = &report.server {
        let _ = writeln!(
            out,
            "server: requests {} (admitted {}, queue-shed {}) across {} reactor(s)",
            s.requests,
            s.requests_admitted,
            s.shed_queue,
            s.per_reactor.len()
        );
        for (i, r) in s.per_reactor.iter().enumerate() {
            let _ = writeln!(
                out,
                "  reactor {i}: requests {}  connections {}",
                r.requests, r.connections
            );
        }
    }
    match report.check() {
        Ok(()) => Ok(out),
        Err(why) => Err(CliError::Serve(format!("run was not clean: {why}\n{out}"))),
    }
}

/// The `stats` command: prepare through a [`plansample::PlanService`],
/// touch the cache a second time to demonstrate a hit, and print the
/// service counters plus the artifact's exact byte breakdown — the
/// command-line view of the memory accounting the byte-budgeted cache
/// charges (inline-`Nat` counts, CSR links, shrunken memo).
fn run_stats(
    catalog: plansample_catalog::Catalog,
    config: OptimizerConfig,
    query: &plansample_query::QuerySpec,
) -> Result<String, CliError> {
    let service = plansample::PlanService::new(catalog, config, 4);
    let prepared = service.get_or_prepare(query)?;
    let _hit = service.get_or_prepare(query)?;

    let space = prepared.space();
    let memo = prepared.memo();
    let exprs = memo.num_physical().max(1);
    let per = |bytes: usize| bytes as f64 / exprs as f64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} complete execution plans over {} groups / {} physical expressions",
        prepared.total(),
        memo.num_groups(),
        memo.num_physical()
    );
    let _ = writeln!(out, "\nprepared artifact footprint:");
    let links = space.links();
    let _ = writeln!(
        out,
        "  links   {:>10} bytes  ({:>6.1}/expr)  {} interned lists, {} pooled refs",
        links.size_bytes(),
        per(links.size_bytes()),
        links.num_lists(),
        links.num_pooled_links()
    );
    let _ = writeln!(
        out,
        "  counts  {:>10} bytes  ({:>6.1}/expr)  total N is {} limb(s)",
        space.counts().size_bytes(),
        per(space.counts().size_bytes()),
        prepared.total().limbs().len().max(1)
    );
    let _ = writeln!(
        out,
        "  memo    {:>10} bytes  ({:>6.1}/expr)",
        memo.size_bytes(),
        per(memo.size_bytes())
    );
    let _ = writeln!(
        out,
        "  total   {:>10} bytes  ({:>6.1}/expr)  <- charged by byte-budgeted caches",
        prepared.size_bytes(),
        per(prepared.size_bytes())
    );

    let stats = service.stats();
    let _ = writeln!(
        out,
        "\nservice: {} hit(s), {} miss(es), {} coalesced, {} eviction(s); \
         {} cached artifact(s), {} resident bytes",
        stats.hits,
        stats.misses,
        stats.coalesced,
        stats.evictions,
        stats.entries,
        stats.resident_bytes
    );
    Ok(out)
}

/// The `artifact` command family: publish a prepared plan space into a
/// store directory, load it back, and examine the on-disk format —
/// the operational workflow behind `serve --artifact-dir`.
fn run_artifact(cli: &Cli, action: &ArtifactAction) -> Result<String, CliError> {
    use plansample_artifact::{ArtifactError, ArtifactStore};

    let mut out = String::new();
    match action {
        ArtifactAction::Save { dir, sql } => {
            let (catalog, _) = plansample_catalog::tpch::catalog();
            let parsed = parse_sql(&catalog, sql)?;
            let prepared = PreparedQuery::prepare(&catalog, &parsed.spec, &optimizer_config(cli))?;
            let store = ArtifactStore::open(dir)?;
            let path = store.save(&prepared)?;
            let bytes = std::fs::metadata(&path)
                .map(|m| m.len())
                .map_err(ArtifactError::from)?;
            let _ = writeln!(
                out,
                "published {} ({bytes} bytes, {} plans over {} groups / {} physical expressions)",
                path.display(),
                prepared.total(),
                prepared.memo().num_groups(),
                prepared.memo().num_physical()
            );
        }
        ArtifactAction::Load { dir, sql } => {
            // Preparing here would defeat the point; only the parse and
            // the load run, so a hit proves the artifact alone serves.
            let (catalog, _) = plansample_catalog::tpch::catalog();
            let parsed = parse_sql(&catalog, sql)?;
            let config = optimizer_config(cli);
            let store = ArtifactStore::open(dir)?;
            let loaded = store.load(&parsed.spec, &config)?.ok_or_else(|| {
                CliError::Artifact(ArtifactError::Io(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    format!("no artifact for this query + config under {dir}"),
                )))
            })?;
            let (_, best_cost) = loaded.best();
            let _ = writeln!(
                out,
                "loaded {} plans over {} groups / {} physical expressions \
                 (best cost {best_cost:.0}) without re-optimizing",
                loaded.total(),
                loaded.memo().num_groups(),
                loaded.memo().num_physical()
            );
        }
        ArtifactAction::Inspect { file } => {
            let bytes = std::fs::read(file).map_err(ArtifactError::from)?;
            let info = plansample_artifact::inspect(&bytes)?;
            let _ = writeln!(
                out,
                "{file}: format v{}, {} bytes, fingerprint {}",
                info.version, info.total_bytes, info.fingerprint
            );
            let _ = writeln!(out, "\n  section    offset        bytes      checksum");
            for s in &info.sections {
                let _ = writeln!(
                    out,
                    "  {:<8} {:>8} {:>12}  {:016x}",
                    s.name, s.offset, s.len, s.checksum
                );
            }
        }
        ArtifactAction::Verify { file } => {
            let bytes = std::fs::read(file).map_err(ArtifactError::from)?;
            let prepared = plansample_artifact::decode(&bytes)?;
            let _ = writeln!(
                out,
                "OK: {file} decodes to {} plans over {} groups / {} physical expressions",
                prepared.total(),
                prepared.memo().num_groups(),
                prepared.memo().num_physical()
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags_and_commands() {
        let cli = parse_args([
            "--cross-products",
            "--seed",
            "7",
            "count",
            "SELECT * FROM nation",
        ])
        .unwrap();
        assert!(cli.cross_products);
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.command, Command::Count("SELECT * FROM nation".into()));

        let cli = parse_args(["sample", "100", "SELECT * FROM nation"]).unwrap();
        assert_eq!(
            cli.command,
            Command::Sample(100, "SELECT * FROM nation".into())
        );
        assert_eq!(cli.seed, 42);

        let cli = parse_args(["rank", "1.1 0.1", "SELECT * FROM nation"]).unwrap();
        assert_eq!(
            cli.command,
            Command::Rank("1.1 0.1".into(), "SELECT * FROM nation".into())
        );
    }

    #[test]
    fn parses_threads_flag_and_stats_command() {
        let cli = parse_args(["--threads", "3", "stats", "SELECT * FROM nation"]).unwrap();
        assert_eq!(cli.threads, Some(3));
        assert_eq!(cli.command, Command::Stats("SELECT * FROM nation".into()));
        assert_eq!(parse_args(["count", "S"]).unwrap().threads, None);
        // One flag, one meaning; nothing forks, so there is no width.
        assert_eq!(USAGE.matches("--threads N").count(), 1);
        assert!(USAGE.contains("--threads N        request workers for serve/loadgen servers"));
        assert!(USAGE.contains("shared\n                     by the server's reactors"));
        assert!(!USAGE.contains("taskset"));
        assert!(!USAGE.contains("fork"));
    }

    #[test]
    fn stats_command_reports_footprint_and_cache_counters() {
        let out = run(&cli(Command::Stats(TWO_WAY.into()))).unwrap();
        assert!(out.contains("complete execution plans"), "{out}");
        for section in ["links", "counts", "memo", "total", "/expr"] {
            assert!(out.contains(section), "missing `{section}` in:\n{out}");
        }
        assert!(out.contains("1 hit(s), 1 miss(es)"), "{out}");
        assert!(out.contains("resident bytes"), "{out}");
    }

    #[test]
    fn parses_network_commands() {
        assert_eq!(
            parse_args(["serve"]).unwrap().command,
            Command::Serve("127.0.0.1:4141".into())
        );
        assert_eq!(
            parse_args(["serve", "0.0.0.0:9000"]).unwrap().command,
            Command::Serve("0.0.0.0:9000".into())
        );
        assert_eq!(
            parse_args(["loadgen"]).unwrap().command,
            Command::Loadgen(100, 50, None)
        );
        assert_eq!(
            parse_args(["loadgen", "8", "5"]).unwrap().command,
            Command::Loadgen(8, 5, None)
        );
        assert_eq!(
            parse_args(["loadgen", "8", "5", "127.0.0.1:4141"])
                .unwrap()
                .command,
            Command::Loadgen(8, 5, Some("127.0.0.1:4141".into()))
        );
        assert!(parse_args(["serve", "a", "b"]).is_err());
        assert!(parse_args(["loadgen", "0", "5"]).is_err());
        assert!(parse_args(["loadgen", "8", "none"]).is_err());
    }

    #[test]
    fn reactors_flag_parses_and_defaults_to_per_core() {
        assert_eq!(parse_args(["serve", "127.0.0.1:0"]).unwrap().reactors, 0);
        assert_eq!(
            parse_args(["--reactors", "2", "serve", "127.0.0.1:0"])
                .unwrap()
                .reactors,
            2
        );
        assert!(parse_args(["--reactors"]).is_err());
        assert!(parse_args(["--reactors", "two", "serve", "127.0.0.1:0"]).is_err());
    }

    #[test]
    fn parses_artifact_commands_and_serve_flags() {
        assert_eq!(
            parse_args(["artifact", "save", "/tmp/store", "SELECT * FROM nation"])
                .unwrap()
                .command,
            Command::Artifact(ArtifactAction::Save {
                dir: "/tmp/store".into(),
                sql: "SELECT * FROM nation".into()
            })
        );
        assert_eq!(
            parse_args(["artifact", "inspect", "f.plan"])
                .unwrap()
                .command,
            Command::Artifact(ArtifactAction::Inspect {
                file: "f.plan".into()
            })
        );
        assert_eq!(
            parse_args(["artifact", "verify", "f.plan"])
                .unwrap()
                .command,
            Command::Artifact(ArtifactAction::Verify {
                file: "f.plan".into()
            })
        );
        let cli = parse_args(["--artifact-dir", "/tmp/store", "serve", "127.0.0.1:0"]).unwrap();
        assert_eq!(cli.artifact_dir.as_deref(), Some("/tmp/store"));
        for removed in ["--reuseport", "--warm"] {
            let err = parse_args([removed, "serve", "127.0.0.1:0"]).unwrap_err();
            assert!(err.0.contains("unknown flag"), "got {err:?}");
        }
        assert!(parse_args(["artifact"]).is_err());
        assert!(parse_args(["artifact", "save", "/tmp/x"]).is_err());
        assert!(parse_args(["artifact", "frobnicate", "f"]).is_err());
        assert!(parse_args(["--artifact-dir"]).is_err());
    }

    #[test]
    fn artifact_save_load_inspect_verify_workflow() {
        let dir =
            std::env::temp_dir().join(format!("plansample-cli-artifact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap().to_string();

        // A load before any save is a clean, typed miss.
        let err = run(&cli(Command::Artifact(ArtifactAction::Load {
            dir: dir_s.clone(),
            sql: TWO_WAY.into(),
        })))
        .unwrap_err();
        assert!(err.to_string().contains("no artifact"), "{err}");

        let out = run(&cli(Command::Artifact(ArtifactAction::Save {
            dir: dir_s.clone(),
            sql: TWO_WAY.into(),
        })))
        .unwrap();
        assert!(out.contains("published"), "{out}");
        let path = out
            .split_whitespace()
            .nth(1)
            .expect("published <path> ...")
            .to_string();

        let out = run(&cli(Command::Artifact(ArtifactAction::Load {
            dir: dir_s.clone(),
            sql: TWO_WAY.into(),
        })))
        .unwrap();
        assert!(out.contains("without re-optimizing"), "{out}");

        let out = run(&cli(Command::Artifact(ArtifactAction::Inspect {
            file: path.clone(),
        })))
        .unwrap();
        for section in ["meta", "query", "config", "memo", "best"] {
            assert!(out.contains(section), "missing `{section}` in:\n{out}");
        }

        let out = run(&cli(Command::Artifact(ArtifactAction::Verify {
            file: path.clone(),
        })))
        .unwrap();
        assert!(out.starts_with("OK:"), "{out}");

        // Corrupt the file: verify must fail with the typed checksum
        // error, surfaced through the CLI error chain.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = run(&cli(Command::Artifact(ArtifactAction::Verify {
            file: path,
        })))
        .unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loadgen_command_runs_inline_cleanly() {
        let out = run(&cli(Command::Loadgen(3, 4, None))).unwrap();
        assert!(out.contains("sent 12  ok"), "{out}");
        assert!(out.contains("app_errors 0  protocol_errors 0"), "{out}");
        // The ledger `LoadReport::check` balanced: 12 requests plus the
        // final stats probe, none shed.
        assert!(
            out.contains("requests 13 (admitted 13, queue-shed 0)"),
            "{out}"
        );
        assert!(out.contains("p999"), "{out}");
    }

    #[test]
    fn loadgen_command_rejects_bad_address() {
        let err = run(&cli(Command::Loadgen(1, 1, Some("not-an-addr".into())))).unwrap_err();
        assert!(err.to_string().contains("bad address"), "{err}");
    }

    #[test]
    fn rejects_malformed_invocations() {
        assert!(parse_args(["bogus", "x"]).is_err());
        assert!(parse_args(["--seed"]).is_err());
        assert!(parse_args(["--threads"]).is_err());
        assert!(parse_args(["--threads", "zero", "count", "S"]).is_err());
        assert!(parse_args(["--threads", "0", "count", "S"]).is_err());
        assert!(parse_args(["stats"]).is_err());
        assert!(parse_args(["--seed", "abc", "count", "S"]).is_err());
        assert!(parse_args(["count"]).is_err());
        assert!(parse_args(["sample", "notanumber", "S"]).is_err());
        assert!(parse_args(["--unknown-flag", "count", "S"]).is_err());
        assert!(parse_args(["count", "a", "b"]).is_err());
        assert!(parse_args(["rank", "1.1"]).is_err());
    }

    #[test]
    fn empty_args_and_help() {
        assert_eq!(
            parse_args(Vec::<String>::new()).unwrap().command,
            Command::Help
        );
        assert_eq!(parse_args(["--help"]).unwrap().command, Command::Help);
        let text = run(&parse_args(["--help"]).unwrap()).unwrap();
        assert!(text.contains("USAGE"));
        assert!(text.contains("FLAGS"));
    }

    fn cli(command: Command) -> Cli {
        Cli {
            command,
            cross_products: false,
            seed: 42,
            orders: 60,
            threads: None,
            reactors: 0,
            artifact_dir: None,
        }
    }

    const TWO_WAY: &str = "SELECT * FROM nation n, region r WHERE n.n_regionkey = r.r_regionkey";

    #[test]
    fn count_command_end_to_end() {
        let out = run(&cli(Command::Count(TWO_WAY.into()))).unwrap();
        assert!(out.contains("complete execution plans"));
    }

    #[test]
    fn run_command_with_useplan() {
        let out = run(&cli(Command::Run(format!("{TWO_WAY} OPTION (USEPLAN 5)")))).unwrap();
        assert!(out.contains("plan 5 of"));
        assert!(out.contains("rows)"));
    }

    #[test]
    fn run_command_reports_order_by_satisfaction() {
        // Whether the chosen plan happens to deliver the order varies by
        // plan; the report line must appear either way, and only when an
        // ORDER BY is present.
        let out = run(&cli(Command::Run(format!("{TWO_WAY} ORDER BY n_name")))).unwrap();
        assert!(out.contains("requested order: "), "missing verdict:\n{out}");
        let out = run(&cli(Command::Run(format!(
            "{TWO_WAY} ORDER BY n_name OPTION (USEPLAN 2)"
        ))))
        .unwrap();
        assert!(out.contains("requested order: "), "missing verdict:\n{out}");
        let out = run(&cli(Command::Run(TWO_WAY.into()))).unwrap();
        assert!(!out.contains("requested order"));
    }

    #[test]
    fn run_command_optimizer_plan() {
        let out = run(&cli(Command::Run(
            "SELECT COUNT(*) FROM supplier s, nation n WHERE s.s_nationkey = n.n_nationkey".into(),
        )))
        .unwrap();
        assert!(out.contains("optimizer's plan"));
    }

    #[test]
    fn sample_command_reports_distribution() {
        let out = run(&cli(Command::Sample(
            200,
            "SELECT * FROM supplier s, nation n, region r \
             WHERE s.s_nationkey = n.n_nationkey AND n.n_regionkey = r.r_regionkey"
                .into(),
        )))
        .unwrap();
        assert!(out.contains("within 2x"));
        assert!(out.contains('#'));
    }

    #[test]
    fn validate_command_passes() {
        let out = run(&cli(Command::Validate(25, TWO_WAY.into()))).unwrap();
        assert!(out.contains("all agree"), "{out}");
    }

    #[test]
    fn enumerate_command_lists_plans() {
        let out = run(&cli(Command::Enumerate(5, TWO_WAY.into()))).unwrap();
        assert_eq!(out.lines().count(), 6); // header + 5 plans
        assert!(out.contains("cost"));
    }

    #[test]
    fn rank_command_inverts_enumerate_output() {
        // Take plan 3 from `enumerate`'s listing and feed its preorder
        // ids back through `rank`: the round trip must agree.
        let listing = run(&cli(Command::Enumerate(5, TWO_WAY.into()))).unwrap();
        let line = listing.lines().nth(4).unwrap(); // rank 3
        let ids: Vec<&str> = line
            .split_whitespace()
            .filter(|w| w.contains('[')) // "HashJoin[2.1]" tokens
            .map(|w| {
                let open = w.find('[').unwrap();
                &w[open + 1..w.len() - 1]
            })
            .collect();
        let out = run(&cli(Command::Rank(ids.join(" "), TWO_WAY.into()))).unwrap();
        assert!(out.contains("whole-space rank 3 of"), "{out}");
        assert!(out.contains("OPTION (USEPLAN 3)"), "{out}");
    }

    #[test]
    fn rank_command_rejects_malformed_plans() {
        for (plan, msg) in [
            ("", "empty plan"),
            ("zebra", "missing `.` separator"),
            ("9999.1", "unknown group"),
            ("0.9999", "unknown expression"),
            ("2.1", "ends early"),
            ("0.1 0.1 0.1 0.1 0.1 0.1", "trailing"),
        ] {
            let err = run(&cli(Command::Rank(plan.into(), TWO_WAY.into()))).unwrap_err();
            assert!(
                err.to_string().contains(msg),
                "`{plan}` should fail with `{msg}`, got: {err}"
            );
        }
    }

    #[test]
    fn memo_command_dumps_structure() {
        let out = run(&cli(Command::Memo(TWO_WAY.into()))).unwrap();
        assert!(out.contains("Group 0"));
        assert!(out.contains("(root)"));
        assert!(out.contains("HashJoin"));
    }

    #[test]
    fn sql_errors_are_rendered_with_carets() {
        let err = run(&cli(Command::Count("SELECT * FROM bogus".into()))).unwrap_err();
        assert!(err.to_string().contains('^'));
    }

    #[test]
    fn run_errors_chain_to_the_failing_layer() {
        use std::error::Error as _;
        // USEPLAN far outside the space: CliError → SpaceError chain.
        let err = run(&cli(Command::Run(format!(
            "{TWO_WAY} OPTION (USEPLAN 99999999)"
        ))))
        .unwrap_err();
        let source = err.source().expect("layer error attached");
        assert!(source.to_string().contains("outside the plan space"));
    }
}
