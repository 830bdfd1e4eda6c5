//! Two *processes* publishing one `ArtifactStore` key at once (DESIGN
//! §10, "The store, keying, and crash safety"). The threads of one
//! process are covered by the store's unit tests; here the test binary
//! re-executes itself twice, the environment variable [`CHILD_ROOT`]
//! selecting the child role. Each child prepares Q5, waits at a file
//! barrier so that both publish at the same moment, then saves and
//! reloads the key [`SAVES`] times into the one shared directory. The
//! parent then loads the key itself and asserts the outcome: exactly one
//! published file, nothing quarantined, and every load — both children's
//! and its own — verified with the same total.

use plansample_artifact::ArtifactStore;
use plansample_core::PreparedQuery;
use plansample_optimizer::OptimizerConfig;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Set in a child's environment to the race's root directory.
const CHILD_ROOT: &str = "PLANSAMPLE_PROCESS_RACE_ROOT";
/// This test's name, which a child runs alone.
const TEST: &str = "two_processes_publishing_one_key_leave_one_verified_artifact";
/// Saves (each followed by a load) per child.
const SAVES: usize = 20;
/// How long either side waits for the other before failing.
const PATIENCE: Duration = Duration::from_secs(120);

fn q5() -> (plansample_query::QuerySpec, OptimizerConfig, PreparedQuery) {
    let (catalog, _) = plansample_catalog::tpch::catalog();
    let query = plansample_query::tpch::q5(&catalog);
    let config = OptimizerConfig::default();
    let prepared = PreparedQuery::prepare(&catalog, &query, &config).expect("Q5 optimizes");
    (query, config, prepared)
}

/// The store directory and the barrier directory under `root`.
fn dirs(root: &Path) -> (PathBuf, PathBuf) {
    (root.join("store"), root.join("barrier"))
}

/// Polls `done` until it holds or [`PATIENCE`] runs out.
fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(start.elapsed() < PATIENCE, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One publisher: ready, wait for the go, then save and reload the key
/// [`SAVES`] times, printing the total every load verified.
fn child(root: &Path) {
    let (store_dir, barrier) = dirs(root);
    let (query, config, prepared) = q5();
    let store = ArtifactStore::open(&store_dir).expect("store opens");
    fs::write(barrier.join(format!("ready-{}", std::process::id())), b"").unwrap();
    wait_for("the go", || barrier.join("go").exists());
    for _ in 0..SAVES {
        store.save(&prepared).expect("every save publishes");
        let loaded = store
            .load(&query, &config)
            .expect("every load verifies")
            .expect("a saved key is present");
        assert_eq!(loaded.total(), prepared.total(), "loaded total");
    }
    println!("child total {}", prepared.total());
}

fn spawn(root: &Path) -> Child {
    Command::new(std::env::current_exe().expect("test binary path"))
        .args([TEST, "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD_ROOT, root)
        .stdout(Stdio::piped())
        .spawn()
        .expect("child starts")
}

/// The total a child printed, after checking it passed.
fn child_total(child: Child) -> String {
    let out = child.wait_with_output().expect("child runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "a child failed:\n{stdout}");
    // The harness prints the test's name on the same line.
    let printed = stdout.split("child total ").nth(1);
    printed
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("a child printed no total:\n{stdout}"))
        .to_string()
}

#[test]
fn two_processes_publishing_one_key_leave_one_verified_artifact() {
    if let Some(root) = std::env::var_os(CHILD_ROOT) {
        return child(Path::new(&root));
    }
    let root = std::env::temp_dir().join(format!("plansample-process-race-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let (store_dir, barrier) = dirs(&root);
    fs::create_dir_all(&barrier).unwrap();

    let mut children = [spawn(&root), spawn(&root)];
    wait_for("both children to be ready", || {
        for c in &mut children {
            let status = c.try_wait().expect("child status");
            assert!(status.is_none(), "a child exited before the go: {status:?}");
        }
        fs::read_dir(&barrier).unwrap().count() == 2
    });
    fs::write(barrier.join("go"), b"").unwrap();
    let totals = children.map(child_total);

    let (query, config, _) = q5();
    let store = ArtifactStore::open(&store_dir).unwrap();
    let loaded = store
        .load(&query, &config)
        .expect("the published artifact verifies")
        .expect("the key is published");
    let names: Vec<String> = fs::read_dir(&store_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        names.len(),
        1,
        "one published file, nothing else: {names:?}"
    );
    assert!(names[0].ends_with(".plan"), "{names:?}");
    let total = loaded.total().to_string();
    assert_eq!(
        totals,
        [total.clone(), total],
        "children's and parent's totals"
    );
    let _ = fs::remove_dir_all(&root);
}
