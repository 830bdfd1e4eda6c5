//! "Reply bytes are a pure function of request bytes", anchored to a
//! fixture instead of a second implementation.
//!
//! The digests are `plansample_artifact::checksum` of the
//! `SampleBatch(seed 0x5EED, k = 600)` reply, request id 42, captured at
//! the commit that still sampled trees through the recursive `Nat`
//! unranker (3441099) — one TPC-H SQL workload on the `u64` tier and
//! one synthetic two-limb workload. Any change to rank draws,
//! unranking order, costing or the wire encoding moves them.

use plansample_datagen::joingraph::Topology;
use plansample_optimizer::OptimizerConfig;
use plansample_serve::{loadgen::TPCH_SQL, AdmissionConfig, Request, ServerState, Workload};

#[test]
fn sample_batch_reply_bytes_match_the_pinned_digests() {
    let sql = Workload::Sql(TPCH_SQL[3].to_string());
    let clique9 = Workload::Synthetic {
        topology: Topology::Clique,
        relations: 9,
        seed: 20000,
    };
    let mut fixtures = vec![(sql, 45_278, 0xb15f_0499_9a6c_2d25_u64)];
    if cfg!(debug_assertions) {
        // Optimizing clique-9 takes ~1 min unoptimized; the
        // serving-tests CI job runs this test in release.
        eprintln!("skipping the two-limb fixture in a debug build");
    } else {
        fixtures.push((clique9, 130_934, 0xf187_f7cd_52df_c1fb));
    }
    let state = ServerState::new(
        OptimizerConfig::default(),
        4,
        None,
        AdmissionConfig::default(),
        1,
    );
    for (workload, len, digest) in fixtures {
        let request = Request::SampleBatch(workload, 0x5EED, 600);
        let bytes = state.handle_encoded(&request, 42);
        assert_eq!(bytes.len(), len, "{request:?}");
        assert_eq!(plansample_artifact::checksum(&bytes), digest, "{request:?}");
    }
}
