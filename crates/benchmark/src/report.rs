//! Result documents: the one-line result of a single run, the full-set
//! document (every workload × both passes), and the comparison of two
//! groups of full sets.

use crate::harness;
use crate::manifest::{self, Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::workloads::Outcome;
use plansample_serve::json::{self, Json, ObjWriter};

/// The names a run with or without `--trace 1` reports, in order.
fn metric_names(traced: bool) -> Vec<&'static str> {
    if traced {
        PER_LAYER.iter().map(|&(name, _)| name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the metrics being every end-to-end metric (untraced)
/// or every per-layer metric (traced; a layer not entered reads 0).
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let mut metrics = ObjWriter::new();
    for name in metric_names(traced) {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => v,
            Some(v) => return Err(format!("metric {name} is {v}")),
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        let unit = manifest::unit_of(name).expect("declared metric");
        metrics
            .obj(name)
            .float("value", value)
            .str("unit", unit)
            .end();
    }
    // The writer has no booleans; the envelope is four fixed keys.
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.finish()
    ))
}

fn whole_number(doc: &Json, key: &str) -> Result<f64, String> {
    match doc.get(key).and_then(Json::as_num) {
        Some(n) if n.fract() == 0.0 && n >= 0.0 => Ok(n),
        _ => Err(format!("`{key}` is not a whole number")),
    }
}

/// Checks a parsed result line against the contract's shape.
pub fn validate_result(doc: &Json, traced: bool) -> Result<(), String> {
    let Json::Obj(top) = doc else {
        return Err("the result is not an object".into());
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    if !matches!(doc.get("correct"), Some(Json::Bool(_))) {
        return Err("`correct` is not a boolean".into());
    }
    whole_number(doc, "failed")?;
    if whole_number(doc, "attempted")? < 1.0 {
        return Err("`attempted` is below 1".into());
    }
    let Some(Json::Obj(got)) = doc.get("metrics") else {
        return Err("`metrics` is not an object".into());
    };
    let want = metric_names(traced);
    if got.len() != want.len() {
        return Err(format!("{} metrics, expected {}", got.len(), want.len()));
    }
    for name in want {
        let metric = got
            .get(name)
            .ok_or_else(|| format!("metric {name} is missing"))?;
        let unit = manifest::unit_of(name).expect("declared metric");
        if !matches!(metric.get("unit"), Some(Json::Str(u)) if u == unit) {
            return Err(format!("metric {name} is not in {unit}"));
        }
        if metric.get("value").and_then(Json::as_num).is_none() {
            return Err(format!("metric {name} has no numeric value"));
        }
    }
    Ok(())
}

/// Where and on what a full set ran.
pub struct Host {
    pub cores: usize,
    pub cpu: String,
    pub commit: String,
    pub rustc: String,
}

/// The full-set document from each workload's two validated result
/// lines, one workload per line of the file.
pub fn full_set(host: &Host, seed: u64, seconds: f64, rows: &[(String, String, String)]) -> String {
    let mut w = ObjWriter::new();
    w.str("schema", "plansample-benchmark/2")
        // This instrument never claims a gain (the writer's null).
        .float("claim", f64::NAN)
        .obj("host")
        .int("cores", host.cores as u64)
        .str("cpu", &host.cpu)
        .str("commit", &host.commit)
        .str("rustc", &host.rustc)
        .end()
        .int("seed", seed)
        .float("seconds", seconds);
    let mut out = w.finish();
    out.pop(); // reopen the root object for the rows
    out.push_str(",\"workloads\":{\n");
    for (i, (name, untraced, traced)) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!(
            "\"{name}\":{{\"end_to_end\":{untraced},\"per_layer\":{traced}}}{sep}\n"
        ));
    }
    out.push_str("}}\n");
    out
}

/// One or more full sets of one commit on one host: one side of a
/// comparison.
pub struct Group {
    sets: Vec<Json>,
}

impl Group {
    pub fn new(sets: Vec<Json>) -> Result<Group, String> {
        if sets.is_empty() {
            return Err("no result sets".into());
        }
        Ok(Group { sets })
    }

    /// `path[,path…]`: the full-set files of one side.
    pub fn read(paths: &str) -> Result<Group, String> {
        let sets = paths
            .split(',')
            .map(|path| {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                json::parse(&text).map_err(|e| format!("{path}: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Group::new(sets)
    }

    /// Every set's value of one end-to-end metric of one workload. A
    /// workload or metric missing anywhere is an error: silently
    /// skipping it would read as "unchanged".
    fn values(&self, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
        self.sets
            .iter()
            .map(|set| {
                set.get("workloads")
                    .and_then(|ws| ws.get(workload))
                    .and_then(|row| row.get("end_to_end"))
                    .and_then(|line| line.get("metrics"))
                    .and_then(|ms| ms.get(metric))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("a set has no {workload}/{metric}"))
            })
            .collect()
    }

    /// Workloads whose output checks missed or whose operations failed,
    /// in either pass of any set; any of these fails a comparison
    /// whatever the metrics say.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (k, set) in self.sets.iter().enumerate() {
            let Some(Json::Obj(rows)) = set.get("workloads") else {
                out.push(format!("set {}: no workloads", k + 1));
                continue;
            };
            for (name, row) in rows {
                for pass in ["end_to_end", "per_layer"] {
                    let line = row.get(pass);
                    let get = |key: &str| line.and_then(|l| l.get(key));
                    if get("correct") != Some(&Json::Bool(true)) {
                        out.push(format!(
                            "set {}: {name} ({pass}): output checks failed",
                            k + 1
                        ));
                    }
                    let failed = get("failed").and_then(Json::as_num).unwrap_or(f64::NAN);
                    let attempted = get("attempted").and_then(Json::as_num).unwrap_or(1.0);
                    if failed != 0.0 {
                        out.push(format!(
                            "set {}: {name} ({pass}): fail_ratio {}",
                            k + 1,
                            failed / attempted
                        ));
                    }
                }
            }
        }
        out
    }
}

/// One cell of a comparison: the medians of a metric over the sets of
/// each side.
#[derive(Debug, Clone, PartialEq)]
pub struct Diff {
    pub workload: &'static str,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// How much worse `b` is than `a`, as a share of `a` (negative =
    /// better).
    pub worse_by: f64,
    pub bound: f64,
    /// The wider of the two sides' quartile spreads as a share of its
    /// median; `None` with fewer than two sets a side.
    pub spread: Option<f64>,
}

impl Diff {
    /// `b` regressed against `a`.
    pub fn regressed(&self) -> bool {
        self.worse_by > self.bound
    }

    /// The two differ by more than the bound in either direction — the
    /// A/A criterion, where neither side is "the change".
    pub fn disagrees(&self) -> bool {
        self.worse_by.abs() > self.bound
    }

    /// Within the bound, but the runs of one side spread wider than the
    /// bound: not shown to be unchanged.
    pub fn unresolved(&self) -> bool {
        !self.disagrees() && self.spread.is_some_and(|s| s > self.bound)
    }
}

/// Compares the per-side medians of every end-to-end metric of every
/// workload.
pub fn compare(a: &Group, b: &Group) -> Result<Vec<Diff>, String> {
    let mut diffs = Vec::new();
    for workload in WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (a.values(workload, m.name)?, b.values(workload, m.name)?);
            let (ma, mb) = (harness::median(&va), harness::median(&vb));
            let worse_by = match m.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let spread = match (harness::quartile_spread(&va), harness::quartile_spread(&vb)) {
                (Some(sa), Some(sb)) => Some(sa.max(sb)),
                _ => None,
            };
            diffs.push(Diff {
                workload,
                metric: m.name,
                a: ma,
                b: mb,
                worse_by,
                bound: m.bound,
                spread,
            });
        }
    }
    Ok(diffs)
}

/// The per-workload × per-metric table; `beyond` decides which cells
/// are marked as beyond their bound.
pub fn table(diffs: &[Diff], beyond: fn(&Diff) -> bool) -> String {
    let mut out = format!(
        "{:<22} {:<24} {:>16} {:>16} {:>9} {:>7} {:>7}\n",
        "workload", "metric", "median A", "median B", "worse by", "bound", "spread"
    );
    for d in diffs {
        let spread = d
            .spread
            .map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
        let mark = if beyond(d) {
            "  <-- beyond bound"
        } else if d.unresolved() {
            "  <-- unresolved: spread wider than bound"
        } else {
            ""
        };
        out.push_str(&format!(
            "{:<22} {:<24} {:>16.4} {:>16.4} {:>+8.2}% {:>6.1}% {:>7}{mark}\n",
            d.workload,
            d.metric,
            d.a,
            d.b,
            d.worse_by * 100.0,
            d.bound * 100.0,
            spread,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome_with(names: impl Iterator<Item = &'static str>) -> Outcome {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for (i, name) in names.enumerate() {
            outcome.metrics.set(name, 1.5 + i as f64);
        }
        outcome
    }

    #[test]
    fn result_line_round_trips_through_the_validator() {
        let untraced = outcome_with(END_TO_END.iter().map(|m| m.name));
        let line = result_line(&untraced, false).unwrap();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{"));
        validate_result(&json::parse(&line).unwrap(), false).unwrap();

        // A traced run fills the layers it did not enter with 0.
        let traced = outcome_with(PER_LAYER.iter().take(3).map(|&(name, _)| name));
        let doc = json::parse(&result_line(&traced, true).unwrap()).unwrap();
        validate_result(&doc, true).unwrap();
        assert!(validate_result(&doc, false).is_err());
        for (name, _) in PER_LAYER {
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-')),
                "{name}"
            );
        }
    }

    #[test]
    fn a_missing_or_non_finite_end_to_end_metric_is_refused() {
        let partial = outcome_with(END_TO_END.iter().skip(1).map(|m| m.name));
        assert!(result_line(&partial, false).is_err());
        let mut nan = outcome_with(END_TO_END.iter().map(|m| m.name));
        nan.metrics.set("setup_s", f64::NAN);
        assert!(result_line(&nan, false).is_err());
    }

    fn set(scale: f64) -> Json {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for m in &END_TO_END {
            outcome.metrics.set(m.name, 100.0 * scale);
        }
        let untraced = result_line(&outcome, false).unwrap();
        let traced = result_line(&Outcome::default(), true).unwrap();
        let rows: Vec<(String, String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.to_string(), untraced.clone(), traced.clone()))
            .collect();
        let host = Host {
            cores: 2,
            cpu: "test".into(),
            commit: "unknown".into(),
            rustc: "unknown".into(),
        };
        json::parse(&full_set(&host, 7, 10.0, &rows)).expect("the full set parses")
    }

    fn group(scales: &[f64]) -> Group {
        Group::new(scales.iter().map(|&s| set(s)).collect()).unwrap()
    }

    #[test]
    fn compare_is_signed_by_each_metrics_direction() {
        let diffs = compare(&group(&[1.0]), &group(&[1.2])).unwrap();
        assert_eq!(diffs.len(), WORKLOADS.len() * END_TO_END.len());
        for d in &diffs {
            let higher_better = d.metric == "throughput_per_s";
            // +20%: a regression for lower-is-better metrics, a gain
            // for throughput — but a disagreement for an A/A run.
            assert_eq!(d.regressed(), !higher_better && d.bound < 0.2, "{d:?}");
            assert_eq!(d.disagrees(), d.bound < 0.2, "{d:?}");
            assert_eq!(d.spread, None);
        }
        assert!(compare(&group(&[1.0]), &group(&[1.0]))
            .unwrap()
            .iter()
            .all(|d| !d.disagrees()));
        assert!(group(&[1.0]).failures().is_empty());
        assert!(Group::new(Vec::new()).is_err());
    }

    #[test]
    fn sides_are_compared_by_their_medians_and_wide_spreads_are_unresolved() {
        // One slow outlier a side moves neither median.
        let diffs = compare(&group(&[1.0, 1.01, 3.0]), &group(&[0.99, 1.0, 2.5])).unwrap();
        let d = &diffs[0];
        assert_eq!((d.a, d.b), (101.0, 100.0));
        assert!(!d.disagrees());
        // ...but a side that spreads that wide shows nothing either way.
        assert!(d.spread.unwrap() > 1.0 && d.unresolved());
        let steady = compare(&group(&[1.0, 1.001, 1.002]), &group(&[1.0, 1.001, 1.002])).unwrap();
        assert!(steady.iter().all(|d| !d.unresolved() && !d.disagrees()));
    }

    #[test]
    fn a_failed_operation_fails_the_set() {
        let mut failing = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        for m in &END_TO_END {
            failing.metrics.set(m.name, 1.0);
        }
        let line = result_line(&failing, false).unwrap();
        let traced = result_line(&Outcome::default(), true).unwrap();
        let host = Host {
            cores: 2,
            cpu: String::new(),
            commit: String::new(),
            rustc: String::new(),
        };
        let rows = vec![("sample_q8cp".to_string(), line, traced)];
        let doc = json::parse(&full_set(&host, 1, 1.0, &rows)).unwrap();
        let failures = Group::new(vec![doc]).unwrap().failures();
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[1].contains("fail_ratio 0.1"));
    }
}
