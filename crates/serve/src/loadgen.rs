//! The fan-in load generator behind `plansample-cli loadgen`.
//!
//! Drives a configurable number of concurrent connections against a
//! plan server with a deterministic mixed workload — TPC-H SQL and
//! synthetic join graphs, across every request opcode — and reports
//! latency quantiles, throughput, an error breakdown and the server's
//! own counters; [`LoadReport::check`] says whether the run was clean.
//!
//! Every connection runs a closed loop (next request issued when the
//! previous reply lands), so concurrency == connections. The request
//! stream is a pure function of `seed` and the connection index:
//! re-running with the same configuration replays the same workload.

use crate::client::{Client, ClientError};
use crate::wire::{ErrorCode, Request, Response, StatsReply, Workload};
use plansample_bignum::Nat;
use plansample_datagen::joingraph::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// TPC-H SQL half of the workload mix (all parse against the built-in
/// catalog; chosen to span 1–3 relations, filters, and aggregates).
pub const TPCH_SQL: &[&str] = &[
    "SELECT * FROM region WHERE region.r_regionkey < 3",
    "SELECT COUNT(*) FROM nation n1, nation n2 WHERE n1.n_regionkey = n2.n_regionkey",
    "SELECT n_name, COUNT(*) FROM supplier s, nation n, region r \
     WHERE s.s_nationkey = n.n_nationkey AND n.n_regionkey = r.r_regionkey \
     GROUP BY n.n_name",
    "SELECT COUNT(*) FROM lineitem l, orders o, customer c \
     WHERE l.l_orderkey = o.o_orderkey AND o.o_custkey = c.c_custkey",
    "SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem l WHERE l.l_quantity < 10",
    "SELECT n_name FROM nation, region WHERE n_regionkey = r_regionkey AND r_name = 'ASIA'",
];

/// Synthetic half of the workload mix: `(topology, relations, seed)`
/// triples kept small enough that first preparation stays cheap.
pub const SYNTH_SPECS: &[(Topology, u16, u64)] = &[
    (Topology::Chain, 6, 11),
    (Topology::Chain, 8, 12),
    (Topology::Star, 6, 21),
    (Topology::Cycle, 5, 31),
    (Topology::Cycle, 6, 32),
    (Topology::Clique, 5, 41),
];

/// Load-run configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Concurrent connections (one thread each).
    pub connections: usize,
    /// Requests each connection issues.
    pub requests_per_connection: usize,
    /// Workload seed; the whole run is a pure function of it.
    pub seed: u64,
    /// Client receive timeout (a stall beyond this is a protocol error).
    pub recv_timeout: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            connections: 100,
            requests_per_connection: 50,
            seed: 42,
            recv_timeout: Duration::from_secs(60),
        }
    }
}

/// Aggregated outcome of a load run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Connections that participated.
    pub connections: usize,
    /// Requests sent.
    pub sent: u64,
    /// Successful (non-error) replies.
    pub ok: u64,
    /// Typed `Overloaded` replies (admission control working, not a
    /// failure).
    pub overloaded: u64,
    /// Other typed error replies (workload bugs; expected 0).
    pub app_errors: u64,
    /// Client-side failures: socket errors, undecodable bytes, id
    /// mismatches, stalls. Expected 0 — any of these fails acceptance.
    pub protocol_errors: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-request latencies in microseconds, sorted ascending.
    pub latencies_us: Vec<u64>,
    /// Server-side counters snapshot taken after the run, when the
    /// server answered the final `Stats` probe.
    pub server: Option<StatsReply>,
}

impl LoadReport {
    /// Replies received (any kind).
    pub fn replies(&self) -> u64 {
        self.ok + self.overloaded + self.app_errors
    }

    /// Replies per wall-clock second.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.replies() as f64 / secs
        } else {
            0.0
        }
    }

    /// The `q`-quantile latency in microseconds (`q` in `[0, 1]`).
    pub fn latency_us(&self, q: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let rank = (q * (self.latencies_us.len() - 1) as f64).round() as usize;
        self.latencies_us[rank.min(self.latencies_us.len() - 1)]
    }

    /// Whether the run was clean: no client-side failure, no typed
    /// error other than `Overloaded`, a reply for every request, and —
    /// when the server answered the final `Stats` probe — a balanced
    /// admission ledger (every decoded request either admitted or
    /// queue-shed) that the per-reactor shares reproduce exactly
    /// (connections are pinned to one reactor for life).
    pub fn check(&self) -> Result<(), String> {
        if self.protocol_errors > 0 {
            return Err(format!("{} protocol error(s)", self.protocol_errors));
        }
        if self.app_errors > 0 {
            return Err(format!("{} application error(s)", self.app_errors));
        }
        if self.replies() != self.sent {
            return Err(format!(
                "{} replies for {} requests",
                self.replies(),
                self.sent
            ));
        }
        let Some(s) = &self.server else {
            return Ok(());
        };
        if s.requests != s.requests_admitted + s.shed_queue {
            return Err(format!(
                "admission ledger broken: {} requests != {} admitted + {} queue-shed",
                s.requests, s.requests_admitted, s.shed_queue
            ));
        }
        let shares: u64 = s.per_reactor.iter().map(|r| r.requests).sum();
        if shares != s.requests {
            return Err(format!(
                "per-reactor requests sum to {shares}, server counted {}",
                s.requests
            ));
        }
        Ok(())
    }
}

#[derive(Default)]
struct ThreadTally {
    sent: u64,
    ok: u64,
    overloaded: u64,
    app_errors: u64,
    protocol_errors: u64,
    latencies_us: Vec<u64>,
}

/// Runs the mixed workload against `addr` and aggregates the outcome.
pub fn run(addr: SocketAddr, config: &LoadgenConfig) -> LoadReport {
    let started = Instant::now();
    let tallies: Vec<ThreadTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.connections)
            .map(|i| {
                let config = config.clone();
                scope.spawn(move || drive_connection(addr, &config, i as u64))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ThreadTally {
                    protocol_errors: 1,
                    ..ThreadTally::default()
                })
            })
            .collect()
    });
    let elapsed = started.elapsed();

    let mut report = LoadReport {
        connections: config.connections,
        elapsed,
        ..LoadReport::default()
    };
    for t in tallies {
        report.sent += t.sent;
        report.ok += t.ok;
        report.overloaded += t.overloaded;
        report.app_errors += t.app_errors;
        report.protocol_errors += t.protocol_errors;
        report.latencies_us.extend(t.latencies_us);
    }
    report.latencies_us.sort_unstable();

    // Final server-side snapshot over a fresh connection; optional so a
    // run against a since-stopped server still yields client numbers.
    report.server = Client::connect(addr).ok().and_then(|mut c| {
        c.set_timeout(Some(config.recv_timeout)).ok()?;
        match c.call(&Request::Stats) {
            Ok(Response::Stats(stats)) => Some(stats),
            _ => None,
        }
    });
    report
}

/// One connection's closed loop. The request stream depends only on
/// `(config.seed, index)`.
fn drive_connection(addr: SocketAddr, config: &LoadgenConfig, index: u64) -> ThreadTally {
    let mut tally = ThreadTally::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            tally.protocol_errors += 1;
            return tally;
        }
    };
    if client.set_timeout(Some(config.recv_timeout)).is_err() {
        tally.protocol_errors += 1;
        return tally;
    }
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ index);
    // Plan-space totals learned from Count replies, keyed by workload
    // index, so Unrank can draw in-range ranks.
    let mut totals: HashMap<usize, Nat> = HashMap::new();

    for _ in 0..config.requests_per_connection {
        let (request, workload_idx) = next_request(&mut rng, &totals);
        tally.sent += 1;
        let sent_at = Instant::now();
        match client.call(&request) {
            Ok(response) => {
                tally
                    .latencies_us
                    .push(sent_at.elapsed().as_micros().min(u64::MAX as u128) as u64);
                match response {
                    Response::Error {
                        code: ErrorCode::Overloaded,
                        ..
                    } => tally.overloaded += 1,
                    Response::Error { .. } => tally.app_errors += 1,
                    Response::Count(total) => {
                        if let Some(idx) = workload_idx {
                            totals.insert(idx, total);
                        }
                        tally.ok += 1;
                    }
                    _ => tally.ok += 1,
                }
            }
            Err(ClientError::Closed)
            | Err(ClientError::Io(_))
            | Err(ClientError::Wire(_))
            | Err(ClientError::UnexpectedId(_)) => {
                tally.protocol_errors += 1;
                // The connection is unusable after any client error.
                return tally;
            }
        }
    }
    tally
}

/// Draws the next request in the mix. Returns the workload's index in
/// the combined table (SQL then synthetic) when the request has one.
fn next_request(rng: &mut StdRng, totals: &HashMap<usize, Nat>) -> (Request, Option<usize>) {
    let n_workloads = TPCH_SQL.len() + SYNTH_SPECS.len();
    let idx = rng.gen_range(0..n_workloads);
    let workload = if idx < TPCH_SQL.len() {
        Workload::Sql(TPCH_SQL[idx].to_string())
    } else {
        let (topology, relations, seed) = SYNTH_SPECS[idx - TPCH_SQL.len()];
        Workload::Synthetic {
            topology,
            relations,
            seed,
        }
    };
    let op = rng.gen_range(0..100u32);
    let request = match op {
        0..=24 => Request::Count(workload),
        25..=44 => Request::Prepare(workload),
        45..=64 => Request::Best(workload),
        65..=84 => {
            let k = rng.gen_range(1..=16u32);
            let seed = rng.gen_range(0..u64::MAX);
            Request::SampleBatch(workload, seed, k)
        }
        85..=94 => {
            // Unrank needs an in-range rank; until this connection has
            // learned the workload's total, count instead.
            match totals.get(&idx) {
                Some(total) => {
                    let rank = match total.to_u64() {
                        Some(t) if t > 0 => Nat::from(rng.gen_range(0..t)),
                        // > u64::MAX plans: any u64 is in range.
                        None => Nat::from(rng.gen_range(0..u64::MAX)),
                        _ => Nat::from(0u64),
                    };
                    Request::Unrank(workload, rank)
                }
                None => Request::Count(workload),
            }
        }
        _ => return (Request::Stats, None),
    };
    (request, Some(idx))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_report() -> LoadReport {
        use crate::wire::ReactorStats;
        LoadReport {
            connections: 4,
            sent: 10,
            ok: 9,
            overloaded: 1,
            elapsed: Duration::from_millis(125),
            latencies_us: vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 1000],
            server: Some(StatsReply {
                requests: 10,
                requests_admitted: 8,
                shed_queue: 2,
                per_reactor: vec![
                    ReactorStats {
                        requests: 6,
                        connections: 2,
                    },
                    ReactorStats {
                        requests: 4,
                        connections: 2,
                    },
                ],
                ..StatsReply::default()
            }),
            ..LoadReport::default()
        }
    }

    #[test]
    fn latency_quantiles_round_to_the_nearest_sample() {
        let report = clean_report();
        assert_eq!(report.latency_us(0.0), 10);
        assert_eq!(report.latency_us(1.0), 1000);
        assert_eq!(report.latency_us(0.5), 60); // round(0.5 * 9) = 5
    }

    #[test]
    fn check_passes_a_clean_run_and_names_each_way_a_run_is_dirty() {
        clean_report().check().unwrap();
        // No server snapshot (the final probe failed): client side only.
        let mut probe_failed = clean_report();
        probe_failed.server = None;
        probe_failed.check().unwrap();

        type Spoil = fn(&mut LoadReport);
        let dirty: [(&str, Spoil); 5] = [
            ("protocol error", |r| r.protocol_errors = 1),
            ("application error", |r| {
                r.ok -= 1;
                r.app_errors = 1;
            }),
            ("replies for", |r| r.ok -= 1),
            // Queue-shed requests not counted.
            ("admission ledger", |r| {
                let s = r.server.as_mut().unwrap();
                s.requests = 8;
                s.per_reactor[0].requests = 4;
            }),
            // A reactor's share miscounted (PR 15's `Stats` miscount).
            ("per-reactor", |r| {
                r.server.as_mut().unwrap().per_reactor[1].requests = 3
            }),
        ];
        for (needle, spoil) in dirty {
            let mut report = clean_report();
            spoil(&mut report);
            let err = report.check().unwrap_err();
            assert!(err.contains(needle), "wanted {needle:?}, got: {err}");
        }
    }

    #[test]
    fn request_stream_is_deterministic() {
        let totals = HashMap::new();
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            let (ra, _) = next_request(&mut a, &totals);
            let (rb, _) = next_request(&mut b, &totals);
            assert_eq!(ra.encode(1), rb.encode(1));
        }
    }
}
