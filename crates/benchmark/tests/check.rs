//! The `--check` smoke run: every workload, both passes, every output
//! check, with half a second of measuring each.
//!
//! Debug builds skip it (the optimizer on Q8+CP and the clique-10 memo
//! are release-only territory): run `cargo test --release -p
//! plansample-benchmark`.

use std::process::Command;

#[test]
#[cfg_attr(debug_assertions, ignore = "needs an optimized build")]
fn check_mode_runs_every_workload_and_every_output_check() {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("check");
    let output = Command::new(env!("CARGO_BIN_EXE_plansample-benchmark"))
        .arg("--check")
        .env("CARGO_TARGET_DIR", &out_dir)
        .output()
        .expect("benchmark binary starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "--check failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    for workload in [
        "sample_q8cp",
        "sample_cycle16",
        "tree_roundtrip_q8cp",
        "validate_q10",
        "build_q8cp",
        "serve_point_mix",
        "serve_sample_bulk",
    ] {
        assert!(
            stdout.contains(&format!("== {workload} ==")),
            "{workload} did not run"
        );
        assert!(
            out_dir
                .join("benchmark")
                .join(format!("trace-{workload}.json"))
                .exists(),
            "{workload} left no trace file"
        );
    }
    assert!(!stdout.contains("CHECK FAILED"), "{stdout}");
    assert!(out_dir.join("benchmark/result-1.json").exists());
    let _ = std::fs::remove_dir_all(&out_dir);
}
