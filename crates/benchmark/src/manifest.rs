//! The benchmark's contract as the program needs it: workload names,
//! metric names, units, directions and bounds. `BENCHMARK.json` at the
//! repository root is the published copy (it also carries each
//! workload's `why` and each layer metric's direction); a unit test
//! parses it and keeps the two in step.

/// Seconds one run measures — `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 15;

/// Default `--seed`: SIGMOD 2000.
pub const DEFAULT_SEED: u64 = 20000;

pub const WORKLOADS: [&str; 7] = [
    "sample_q8cp",
    "sample_cycle16",
    "tree_roundtrip_q8cp",
    "validate_q10",
    "build_q8cp",
    "serve_point_mix",
    "serve_sample_bulk",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these, untraced.
pub const END_TO_END: [EndToEndDef; 4] = [
    EndToEndDef {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "resident_bytes_per_expr",
        unit: "B",
        better: Better::Lower,
        bound: 0.005,
    },
];

/// `(name, unit)`: every traced run reports every one of these; a layer
/// the workload does not enter reads 0.
pub const PER_LAYER: [(&str, &str); 80] = [
    // Write side (build_q8cp).
    ("optimizer.optimize_ms", "ms"),
    ("core.links.build_ms", "ms"),
    ("core.count.compute_ms", "ms"),
    ("artifact.encode_ms", "ms"),
    ("artifact.save_ms", "ms"),
    ("artifact.load_ms", "ms"),
    ("artifact.decode_ms", "ms"),
    ("build.allocs_per_cycle", "count"),
    ("core.links.bytes_per_expr", "B"),
    ("core.count.bytes_per_expr", "B"),
    ("artifact.bytes_per_expr", "B"),
    // Sampler core (sample_q8cp, sample_cycle16).
    ("bignum.random_below_u64_ns", "ns"),
    ("bignum.random_below_u128_ns", "ns"),
    ("core.sample.flat_b1_ns_per_plan", "ns"),
    ("core.sample.flat_b64_ns_per_plan", "ns"),
    ("core.sample.flat_b1024_ns_per_plan", "ns"),
    ("core.sample.flat_b4096_ns_per_plan", "ns"),
    ("core.sample.forced_nat_ns_per_plan", "ns"),
    ("core.sample.clique10_ns_per_plan", "ns"),
    ("core.sample.nodes_per_plan", "count"),
    ("core.sample.allocs_per_plan", "count"),
    ("core.prepared.scaled_cost_ids_ns_per_plan", "ns"),
    // Tree / Nat path (tree_roundtrip_q8cp, validate_q10).
    ("core.sample.tree_us_per_plan", "us"),
    ("core.rank.us_per_plan", "us"),
    ("core.unrank.tree_us_per_plan", "us"),
    ("core.tree.allocs_per_roundtrip", "count"),
    // Execution (validate_q10).
    ("core.lower.us_per_plan", "us"),
    ("exec.run.execute_us_per_plan", "us"),
    ("exec.iter.execute_us_per_plan", "us"),
    ("exec.compare.multiset_eq_us_per_plan", "us"),
    ("exec.rows_out_per_plan", "count"),
    // Serving: request resolution and wire codec.
    ("sql.parse_us", "us"),
    ("datagen.joingraph.build_us", "us"),
    ("core.service.hit_ns", "ns"),
    ("serve.wire.request_encode_ns", "ns"),
    ("serve.wire.request_decode_ns", "ns"),
    ("serve.wire.response_encode_ns", "ns"),
    ("serve.wire.response_decode_ns", "ns"),
    ("serve.wire.samples_encode_ns_per_plan", "ns"),
    ("serve.wire.samples_decode_ns_per_plan", "ns"),
    // Serving: the handler inside the timed op, per request class.
    ("serve.state.handle_p50_us", "us"),
    ("serve.state.handle_us.count", "us"),
    ("serve.state.handle_us.best", "us"),
    ("serve.state.handle_us.unrank", "us"),
    ("serve.state.handle_us.sample16", "us"),
    ("serve.state.handle_us.stats", "us"),
    ("serve.state.handle_us.sample4096", "us"),
    // Serving: the clients' view and its split into transport and queueing.
    ("serve.conn1.lat_p50_us", "us"),
    ("serve.transport.overhead_us", "us"),
    ("serve.queueing_us", "us"),
    ("serve.client.encode_us", "us"),
    ("serve.client.write_us", "us"),
    ("serve.client.wait_us", "us"),
    ("serve.client.decode_us", "us"),
    ("serve.client.lat_p50_us.count", "us"),
    ("serve.client.lat_p50_us.best", "us"),
    ("serve.client.lat_p50_us.unrank", "us"),
    ("serve.client.lat_p50_us.sample", "us"),
    ("serve.client.lat_p50_us.stats", "us"),
    ("serve.client.lat_p99_us", "us"),
    ("serve.client.lat_p999_us", "us"),
    ("serve.client.lat_max_us", "us"),
    ("serve.client.lat_tail_pct", "%"),
    ("serve.client.lat_samples", "count"),
    ("serve.client.reply_bytes_per_req", "B"),
    // Serving: Stats-reply deltas over the traced window.
    ("serve.server.requests", "count"),
    ("serve.server.admitted", "count"),
    ("serve.server.shed_queue", "count"),
    ("serve.server.shed_prepare", "count"),
    ("serve.server.cache_hit_ratio", "ratio"),
    ("serve.server.batch_peak_bytes", "B"),
    // Every workload.
    ("harness.cold_setup_s", "s"),
    ("harness.op_p50_us", "us"),
    ("harness.median_to_quiet_ratio", "ratio"),
    ("proc.cpu_ms_per_op", "ms"),
    ("harness.trace_overhead_ratio", "ratio"),
    ("harness.op_child_coverage", "ratio"),
    ("harness.traced_ops", "count"),
    ("harness.spans", "count"),
    ("harness.spans_dropped", "count"),
];

/// The unit a metric name is reported in, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| {
            PER_LAYER
                .iter()
                .find(|(layer, _)| *layer == name)
                .map(|&(_, unit)| unit)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use plansample_serve::json::{self, Json};

    fn text<'a>(row: &'a Json, key: &str) -> &'a str {
        match row.get(key) {
            Some(Json::Str(s)) => s,
            other => panic!("{key} is {other:?}"),
        }
    }

    fn rows<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        match doc.get(key) {
            Some(Json::Arr(rows)) => rows,
            other => panic!("{key} is {other:?}"),
        }
    }

    /// The published contract and the tables the program runs on say
    /// the same thing, and what they say is inside the contract's limits.
    #[test]
    fn benchmark_json_matches_the_tables_and_the_contract() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(committed.len() <= 64 * 1024);
        let doc = json::parse(&committed).expect("BENCHMARK.json parses");
        let Json::Obj(top) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_num),
            Some(RUN_SECONDS as f64)
        );
        assert!((1..=60).contains(&RUN_SECONDS));

        let valid_name = |name: &str| {
            !name.is_empty()
                && name.len() <= 64
                && name.as_bytes()[0].is_ascii_alphanumeric()
                && name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
        };
        let valid_unit = |unit: &str| {
            !unit.is_empty()
                && unit.len() <= 16
                && unit.bytes().all(|b| {
                    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')
                })
        };
        let better = |row: &Json| match text(row, "better") {
            "lower" => Better::Lower,
            "higher" => Better::Higher,
            other => panic!("better is {other:?}"),
        };
        let mut seen = std::collections::BTreeSet::new();

        let workloads = rows(&doc, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        assert!((2..=8).contains(&workloads.len()));
        for (row, name) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(text(row, "name"), name);
            let why = text(row, "why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
            assert!(valid_name(name) && seen.insert(name), "{name}");
        }

        let end_to_end = rows(&doc, "end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        assert!((1..=16).contains(&end_to_end.len()));
        for (row, def) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(text(row, "name"), def.name);
            assert_eq!(text(row, "unit"), def.unit, "{}", def.name);
            assert_eq!(better(row), def.better, "{}", def.name);
            assert_eq!(
                row.get("bound").and_then(Json::as_num),
                Some(def.bound),
                "{}",
                def.name
            );
            assert!(def.bound > 0.0 && def.bound <= 0.25, "{}", def.name);
            assert!(valid_name(def.name) && valid_unit(def.unit), "{}", def.name);
            assert!(seen.insert(def.name), "{} used twice", def.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

        let per_layer = rows(&doc, "per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        assert!((1..=128).contains(&per_layer.len()));
        for (row, (name, unit)) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(text(row, "name"), name);
            assert_eq!(text(row, "unit"), unit, "{name}");
            better(row);
            assert!(valid_name(name) && valid_unit(unit), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
    }
}
