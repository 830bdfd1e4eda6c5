//! Serving smoke test for the artifact store: a server with
//! `--artifact-dir` persists every preparation write-through; a restart
//! on the same directory warms from it and serves the same answers
//! *bit-identically* without re-optimizing; and a version-bumped
//! artifact, or one prepared under another optimizer configuration, is
//! refused at warm time (the restarted server simply re-prepares —
//! availability over reuse).

use plansample_serve::server::{self, ServerConfig};
use plansample_serve::{Client, Request, Response, Workload};
use std::fs;
use std::path::{Path, PathBuf};

const SQL: &str = "SELECT * FROM region r, nation n, supplier s \
                   WHERE n.n_regionkey = r.r_regionkey AND s.s_nationkey = n.n_nationkey";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("plansample-warm-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path) -> ServerConfig {
    ServerConfig {
        reactors: 1,
        workers: 1,
        artifact_dir: Some(dir.to_path_buf()),
        ..Default::default()
    }
}

/// The request battery whose replies must survive a restart unchanged.
fn battery() -> Vec<Request> {
    let workload = Workload::Sql(SQL.to_string());
    vec![
        Request::Count(workload.clone()),
        Request::Best(workload.clone()),
        Request::Unrank(workload.clone(), plansample_bignum::Nat::from(17u64)),
        Request::SampleBatch(workload, 42, 8),
    ]
}

fn stats(client: &mut Client) -> plansample_serve::StatsReply {
    match client.call(&Request::Stats).unwrap() {
        Response::Stats(s) => s,
        other => panic!("expected stats, got {other:?}"),
    }
}

#[test]
fn warm_restart_serves_bit_identical_replies_without_reoptimizing() {
    let dir = temp_dir("roundtrip");

    // --- First life: prepare once, answer the battery, persist. ------
    let handle = server::start(config(&dir)).expect("first server starts");
    let mut client = Client::connect(handle.addr()).unwrap();
    let prepared = client
        .call(&Request::Prepare(Workload::Sql(SQL.to_string())))
        .unwrap();
    let Response::Prepared { cached, .. } = prepared else {
        panic!("expected Prepared, got {prepared:?}");
    };
    assert!(!cached, "first preparation is a cold miss");
    let first: Vec<Response> = battery()
        .iter()
        .map(|req| client.call(req).unwrap())
        .collect();
    for r in &first {
        assert!(!matches!(r, Response::Error { .. }), "got {r:?}");
    }
    // A synthetic preparation is served but not persisted: its store
    // fingerprint would have to name the spec.
    let synthetic = client
        .call(&Request::Prepare(Workload::Synthetic {
            topology: plansample_datagen::joingraph::Topology::Chain,
            relations: 3,
            seed: 1,
        }))
        .unwrap();
    assert!(
        matches!(synthetic, Response::Prepared { cached: false, .. }),
        "got {synthetic:?}"
    );
    drop(client);
    handle.stop();

    let artifacts: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("artifact dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().map(|x| x == "plan").unwrap_or(false))
        .collect();
    assert_eq!(artifacts.len(), 1, "write-through published one artifact");

    // --- Second life: warm from the store, answer identically. -------
    let handle = server::start(config(&dir)).expect("warmed server starts");
    let mut client = Client::connect(handle.addr()).unwrap();
    let s = stats(&mut client);
    assert_eq!(s.entries, 1, "warming admitted the artifact");
    assert_eq!(s.misses, 0, "warming is not a miss");

    let prepared = client
        .call(&Request::Prepare(Workload::Sql(SQL.to_string())))
        .unwrap();
    assert!(
        matches!(prepared, Response::Prepared { cached: true, .. }),
        "warmed entry must be a cache hit, got {prepared:?}"
    );
    let second: Vec<Response> = battery()
        .iter()
        .map(|req| client.call(req).unwrap())
        .collect();
    assert_eq!(
        first, second,
        "replies must be bit-identical across the restart"
    );

    let s = stats(&mut client);
    assert_eq!(s.misses, 0, "the warmed server never re-optimized");
    assert!(s.hits > battery().len() as u64);
    drop(client);
    handle.stop();

    // --- Third life: a version-bumped artifact is refused. -----------
    let path = &artifacts[0];
    let mut bytes = fs::read(path).unwrap();
    let bumped = plansample_artifact::FORMAT_VERSION + 1;
    bytes[8..12].copy_from_slice(&bumped.to_le_bytes());
    fs::write(path, &bytes).unwrap();

    let handle = server::start(config(&dir)).expect("server starts past a bad artifact");
    let mut client = Client::connect(handle.addr()).unwrap();
    let s = stats(&mut client);
    assert_eq!(s.entries, 0, "a future-version artifact must not warm");
    assert!(
        path.with_extension("quarantined").exists(),
        "the refused artifact is quarantined for inspection"
    );
    // Serving is unaffected: the query just re-prepares…
    let prepared = client
        .call(&Request::Prepare(Workload::Sql(SQL.to_string())))
        .unwrap();
    assert!(matches!(prepared, Response::Prepared { cached: false, .. }));
    let third: Vec<Response> = battery()
        .iter()
        .map(|req| client.call(req).unwrap())
        .collect();
    assert_eq!(first, third, "re-prepared replies still match");
    drop(client);
    handle.stop();

    // …and the re-preparation re-published a current-version artifact.
    let healed = fs::read(&artifacts[0]).expect("artifact re-published");
    assert_eq!(
        u32::from_le_bytes(healed[8..12].try_into().unwrap()),
        plansample_artifact::FORMAT_VERSION
    );
    let _ = fs::remove_dir_all(&dir);
}

/// An artifact prepared with `--cross-products` sits in the store of a
/// server with the default configuration: warming decodes it and
/// refuses it, and the query is prepared afresh.
#[test]
fn warming_refuses_an_artifact_of_another_optimizer_configuration() {
    let dir = temp_dir("config");
    let prepare = || Request::Prepare(Workload::Sql(SQL.to_string()));

    let cross = ServerConfig {
        cross_products: true,
        ..config(&dir)
    };
    let handle = server::start(cross).expect("cross-products server starts");
    let mut client = Client::connect(handle.addr()).unwrap();
    let reply = client.call(&prepare()).unwrap();
    assert!(matches!(reply, Response::Prepared { cached: false, .. }));
    drop(client);
    handle.stop();
    assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "one artifact");

    let handle = server::start(config(&dir)).expect("default server starts");
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(stats(&mut client).entries, 0, "the artifact was refused");
    let reply = client.call(&prepare()).unwrap();
    assert!(
        matches!(reply, Response::Prepared { cached: false, .. }),
        "got {reply:?}"
    );
    let s = stats(&mut client);
    assert_eq!((s.misses, s.entries), (1, 1), "prepared afresh");
    drop(client);
    handle.stop();
    let _ = fs::remove_dir_all(&dir);
}
