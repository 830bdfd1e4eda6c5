//! An asynchronous network front end for plan counting, unranking, and
//! sampling.
//!
//! The paper's artifact — a prepared plan space that answers count /
//! unrank / sample queries in microseconds — only pays for itself when
//! many consumers share it. This crate puts one [`plansample_core`]
//! `ArtifactCache` behind a TCP server so that sharing crosses process
//! boundaries: one resident MEMO per distinct query, any number of
//! clients.
//!
//! The pieces, bottom-up:
//!
//! * [`wire`] — the length-prefixed binary protocol: versioned frames,
//!   request ids, typed errors. Decoding is total (never panics) and
//!   encoding is deterministic, which is what makes the network path
//!   byte-for-byte reproducible.
//! * `reactor` (private) — a minimal readiness poller over `poll(2)`
//!   (vendored so the event loops need nothing beyond `std`), and the
//!   thread-per-core reactor built on it.
//! * `conn` (private) — the per-connection state machine: partial-frame
//!   reassembly, partial-write buffering, slow-loris deadlines.
//! * [`state`] — workload resolution (TPC-H SQL and synthetic join
//!   graphs), request execution, and the two-layer admission control
//!   that sheds with a typed `Overloaded` reply instead of queueing
//!   unboundedly — globally, across every reactor.
//! * [`server`] — N reactors and one worker set they share. Reactor 0
//!   also owns the listener and deals connections round-robin to the
//!   reactors. A reactor answers small requests on cached workloads
//!   itself, in the loop round that read them; the workers take the
//!   rest (first preparations, bulk sample batches) from one job queue.
//! * [`client`] — a blocking reference client.
//! * [`loadgen`] — the closed-loop fan-in load generator behind
//!   `plansample-cli loadgen`, with the clean-run check over its report.
//! * [`json`] — the hand-rolled JSON writer and parser the tracked
//!   benchmark's result files go through.
//!
//! # Determinism contract
//!
//! For a given server configuration, the bytes of a reply are a pure
//! function of the bytes of its request: plan identity comes from the
//! deterministic optimizer, sampling randomness comes from the
//! client-supplied seed, and floats travel as IEEE-754 bits. Two
//! clients issuing the same request bytes get identical reply bytes —
//! whether or not they share a cached artifact, whether a reactor or a
//! worker answered, and at any reactor or worker count: reactors shard
//! *connections*, never workloads, every reply comes out of one request
//! body, and every preparation routes through the same singleflighted
//! cache.

pub mod client;
mod conn;
pub mod json;
pub mod loadgen;
mod reactor;
pub mod server;
pub mod state;
pub mod wire;

pub use client::{Client, ClientError};
pub use server::{ServerConfig, ServerHandle};
pub use state::{AdmissionConfig, ServerState};
pub use wire::{ErrorCode, ReactorStats, Request, Response, StatsReply, WireError, Workload};
