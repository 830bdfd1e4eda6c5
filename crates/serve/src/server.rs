//! The serving front-end: N thread-per-core reactors and one set of
//! workers they share.
//!
//! Reactor 0 owns the listener besides its own connections: it accepts
//! and deals each connection round-robin across the reactors, adopting
//! those whose turn is its own and posting the others to their
//! reactor's inbox. Each reactor owns its own `poll(2)` set and
//! connection map; a connection is pinned to its reactor for life, so
//! no socket is ever shared between event loops. A reactor answers
//! small requests on cached workloads itself
//! ([`ServerState::handle_inline`]) and puts the rest — first
//! preparations, cache misses and bulk sample batches — on the server's
//! one job queue. The workers spawned here drain it, running
//! [`ServerState::handle_encoded`], and post each reply to the inbox of
//! the reactor its job names. What *is* shared — [`ServerState`] — is
//! shared through atomics and the singleflighted artifact cache, which
//! is exactly why the determinism contract (reply bytes are a pure
//! function of request bytes) holds verbatim at every reactor and
//! worker count and on either path.
//!
//! Connections are addressed by per-reactor monotonically increasing
//! tokens that are never reused, so a completion for a connection that
//! died while its request was in flight is dropped on the floor
//! instead of corrupting a newer connection.
//!
//! Fault handling follows the wire module's recoverability split:
//! frames whose boundary is still trustworthy (unknown opcode,
//! malformed body) get a typed error reply and the connection keeps
//! serving; violations that poison the framing (oversized length
//! prefix, wrong protocol version) get a final typed reply with
//! request id 0 and the connection drains and closes. A partial frame
//! that sits incomplete longer than [`ServerConfig::frame_timeout`]
//! (however slowly it trickles) closes the connection — the
//! slow-loris defense.
//!
//! Persistent `accept(2)` failure (EMFILE/ENFILE during fd exhaustion)
//! gets the same treatment as persistent `poll(2)` failure: reactor 0
//! counts it in `accept_errors` and leaves the still-readable listener
//! out of its poll set for a short backoff instead of spinning on it,
//! and shuts the server down after 100 consecutive failures.

use crate::reactor::{shut_down, Completion, Inbox, Intake, Job, Reactor};
use crate::state::{AdmissionConfig, ServerState};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Reactor (event-loop) threads; `0` means one per available core.
    pub reactors: usize,
    /// Worker threads executing requests, shared by every reactor.
    pub workers: usize,
    /// Entry capacity of the artifact cache, every workload's artifacts
    /// counted alike.
    pub cache_entries: usize,
    /// Byte budget of the artifact cache, enforced by eviction. Set by
    /// library callers only: the CLI has no flag for it.
    pub byte_budget: Option<usize>,
    /// Queue/preparation shedding thresholds.
    pub admission: AdmissionConfig,
    /// Decoded-but-unanswered requests allowed per connection before
    /// the owning reactor stops reading from it (pipelining bound).
    pub max_pipeline: usize,
    /// How long a partial frame may sit incomplete before the
    /// connection is closed (slow-loris defense).
    pub frame_timeout: Duration,
    /// Allow Cartesian products in served plan spaces.
    pub cross_products: bool,
    /// Directory of persistent plan-space artifacts. When set, the
    /// cache is warmed from it at startup and every TPC-H preparation
    /// is written through to it, so the plan space survives the process.
    pub artifact_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            reactors: 0,
            workers: 4,
            cache_entries: 64,
            byte_budget: None,
            admission: AdmissionConfig::default(),
            max_pipeline: 128,
            frame_timeout: Duration::from_secs(10),
            cross_products: false,
            artifact_dir: None,
        }
    }
}

/// Resolves a `reactors` setting: `0` means one per available core.
pub fn resolve_reactors(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A running server; dropping it shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    shutdown: Arc<AtomicBool>,
    /// Every reactor's inbox, to wake them all at shutdown.
    inboxes: Arc<[Inbox]>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared serving state (counters, cache).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Signals shutdown and joins every thread.
    pub fn stop(mut self) {
        self.begin_shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Blocks until the server exits (external shutdown only).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    fn begin_shutdown(&self) {
        shut_down(&self.shutdown, &self.inboxes);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.begin_shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Wires the artifact store to the serving state: the store's current
/// contents warm the cache before the first byte is served, and every
/// TPC-H preparation writes through to disk.
fn attach_store(config: &ServerConfig, state: &mut ServerState) -> io::Result<()> {
    let Some(dir) = &config.artifact_dir else {
        return Ok(());
    };
    let store = plansample_artifact::ArtifactStore::open(dir)
        .map_err(|e| io::Error::other(e.to_string()))?;
    match store.warm(|prepared| state.warm(Arc::new(prepared))) {
        Ok(report) => eprintln!(
            "plansample-serve: warmed {} artifact(s) from {} \
             ({} refused, {} quarantined)",
            report.loaded,
            store.dir().display(),
            report.refused,
            report.quarantined
        ),
        // Warming is an optimization: a failed pass (e.g. the
        // directory vanished) must not keep the server down.
        Err(e) => eprintln!("plansample-serve: cache warming failed: {e}"),
    }
    state.persist_to(store);
    Ok(())
}

/// Binds the listener and spawns the reactors — reactor 0 owning the
/// listener — and the workers they share: `reactors + workers` threads.
pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
    let reactors = resolve_reactors(config.reactors);
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let optimizer = if config.cross_products {
        plansample_optimizer::OptimizerConfig::with_cross_products()
    } else {
        plansample_optimizer::OptimizerConfig::default()
    };
    let mut state = ServerState::new(
        optimizer,
        config.cache_entries,
        config.byte_budget,
        config.admission,
        reactors,
    );
    attach_store(&config, &mut state)?;
    let state = Arc::new(state);
    let shutdown = Arc::new(AtomicBool::new(false));

    let mut inboxes = Vec::with_capacity(reactors);
    let mut wake_ends = Vec::with_capacity(reactors);
    for _ in 0..reactors {
        let (inbox, wake_rx) = Inbox::new()?;
        inboxes.push(inbox);
        wake_ends.push(wake_rx);
    }
    let inboxes: Arc<[Inbox]> = inboxes.into();

    // One job queue for the server: whichever worker is free takes the
    // next job, whatever reactor it came from. It closes when the last
    // reactor exits and drops its sender, and the workers with it.
    let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
    let jobs_rx = Arc::new(Mutex::new(jobs_rx));
    let mut threads = Vec::new();
    for w in 0..config.workers.max(1) {
        let jobs_rx = Arc::clone(&jobs_rx);
        let inboxes = Arc::clone(&inboxes);
        let state = Arc::clone(&state);
        threads.push(
            std::thread::Builder::new()
                .name(format!("plansample-serve-worker-{w}"))
                .spawn(move || loop {
                    // Hold the receiver lock only while dequeuing.
                    let job = match jobs_rx.lock().expect("job queue poisoned").recv() {
                        Ok(job) => job,
                        Err(_) => return,
                    };
                    let payload = state.handle_encoded(&job.request, job.request_id);
                    inboxes[job.reactor].complete(Completion {
                        token: job.token,
                        payload,
                    });
                })?,
        );
    }

    let mut listener = Some(listener);
    for (index, wake_rx) in wake_ends.into_iter().enumerate() {
        let intake = Intake {
            index,
            state: Arc::clone(&state),
            jobs_tx: jobs_tx.clone(),
            max_pipeline: config.max_pipeline.max(1),
        };
        let reactor = Reactor::new(
            intake,
            Arc::clone(&inboxes),
            wake_rx,
            listener.take(),
            Arc::clone(&shutdown),
            config.frame_timeout,
        );
        threads.push(
            std::thread::Builder::new()
                .name(format!("plansample-serve-reactor-{index}"))
                .spawn(move || reactor.run())?,
        );
    }

    Ok(ServerHandle {
        addr,
        state,
        shutdown,
        inboxes,
        threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn resolve_reactors_zero_means_per_core() {
        assert_eq!(resolve_reactors(3), 3);
        assert!(resolve_reactors(0) >= 1);
    }

    /// Every reactor shares one worker set, and no thread but the
    /// reactors accepts.
    #[test]
    fn start_spawns_one_thread_per_reactor_and_per_worker() {
        let handle = start(ServerConfig {
            reactors: 3,
            workers: 2,
            ..Default::default()
        })
        .expect("server starts");
        assert_eq!(handle.threads.len(), 3 + 2);
        handle.stop();
    }

    /// Reactor 0's deal is a strict rotation: with each connection
    /// finishing a round trip before the next one connects, reactor
    /// `i` adopts connections `i`, `i + n`, `i + 2n`, ….
    #[test]
    fn reactor_zero_deals_connections_round_robin() {
        let handle = start(ServerConfig {
            reactors: 3,
            workers: 1,
            ..Default::default()
        })
        .expect("server starts");
        let addr = handle.addr();
        for _ in 0..9 {
            let mut client = crate::client::Client::connect(addr).unwrap();
            let response = client.call(&crate::wire::Request::Stats).unwrap();
            assert!(
                matches!(response, crate::wire::Response::Stats(_)),
                "got {response:?}"
            );
        }
        let state = Arc::clone(handle.state());
        handle.stop();
        assert_eq!(state.connections_total.load(Ordering::Relaxed), 9);
        for (i, reactor) in state.per_reactor.iter().enumerate() {
            assert_eq!(
                reactor.connections.load(Ordering::Relaxed),
                3,
                "reactor {i} must get every third connection"
            );
        }
    }
}
