//! The serving front-end: an acceptor plus N thread-per-core reactors.
//!
//! One acceptor thread owns the listener and nothing else: it accepts
//! connections and deals them round-robin to the reactors through
//! per-reactor mailboxes, waking the target reactor through its
//! socketpair. Each reactor (see [`crate::reactor`]) owns its own
//! `poll(2)` set, connection map, completion queue, and worker pool;
//! a connection is pinned to its reactor for life, so no socket is
//! ever shared between event loops. A reactor answers small requests
//! on cached workloads itself ([`ServerState::handle_inline`]); its
//! workers — the threads spawned here, running
//! [`ServerState::handle_encoded`] — serve only what it declines:
//! first preparations, cache misses and bulk sample batches. What *is*
//! shared — [`ServerState`] — is shared through atomics and the
//! singleflighted artifact cache, which is exactly why the determinism
//! contract (reply bytes are a pure function of request bytes) holds
//! verbatim at every reactor count and on either path.
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
//! gets the same treatment as persistent `poll(2)` failure: the
//! acceptor backs off instead of spinning on the level-triggered
//! readable listener, counts the failure in `accept_errors`, and shuts
//! the server down after `MAX_ACCEPT_ERRORS` consecutive failures.

use crate::reactor::{
    drain_wake_pipe, Completion, Intake, Interest, Job, Poller, Reactor, WakeSet, MAX_POLL_ERRORS,
    POLL_ERROR_BACKOFF, TOKEN_LISTENER, TOKEN_WAKER,
};
use crate::state::{AdmissionConfig, ServerState};
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Reactor (event-loop) threads; `0` means one per available core.
    pub reactors: usize,
    /// Worker threads executing requests, *per reactor*.
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
    wake_set: Arc<WakeSet>,
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
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake_set.wake_all();
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

/// Sleep after a failed `accept(2)` call (the listener stays readable
/// under level-triggered polling, so returning without this backoff
/// spins the acceptor at 100% CPU for as long as the failure — fd
/// exhaustion, typically — persists).
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Consecutive `accept(2)` failures tolerated before the acceptor
/// declares server-wide shutdown (mirrors [`MAX_POLL_ERRORS`]).
const MAX_ACCEPT_ERRORS: u32 = 100;

/// What to do after an `accept(2)` failure.
#[derive(Debug, PartialEq, Eq)]
enum AcceptVerdict {
    /// Transient (so far): sleep [`ACCEPT_ERROR_BACKOFF`], then poll
    /// again.
    Backoff,
    /// Persistent: shut the server down rather than hang half-alive.
    GiveUp,
}

/// The consecutive-failure policy for `accept(2)`, separated from the
/// acceptor's loop so the verdict sequence is unit-testable without
/// forcing real fd exhaustion.
#[derive(Debug, Default)]
struct AcceptBackoff {
    consecutive: u32,
}

impl AcceptBackoff {
    fn on_success(&mut self) {
        self.consecutive = 0;
    }

    fn on_error(&mut self) -> AcceptVerdict {
        self.consecutive += 1;
        if self.consecutive >= MAX_ACCEPT_ERRORS {
            AcceptVerdict::GiveUp
        } else {
            AcceptVerdict::Backoff
        }
    }
}

/// One reactor's intake, as the acceptor sees it: push the stream,
/// poke the waker.
struct ReactorMailbox {
    streams: Arc<Mutex<Vec<TcpStream>>>,
    waker: Mutex<UnixStream>,
}

/// The listener-owning thread: accepts and deals connections
/// round-robin to the reactors.
struct Acceptor {
    listener: TcpListener,
    wake_rx: UnixStream,
    mailboxes: Vec<ReactorMailbox>,
    /// Round-robin cursor over `mailboxes`.
    next: usize,
    state: Arc<ServerState>,
    shutdown: Arc<AtomicBool>,
    wake_set: Arc<WakeSet>,
    backoff: AcceptBackoff,
}

impl Acceptor {
    fn run(mut self) {
        let mut poller = Poller::new();
        let mut poll_errors: u32 = 0;
        while !self.shutdown.load(Ordering::SeqCst) {
            poller.clear();
            poller.register(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ);
            poller.register(self.wake_rx.as_raw_fd(), TOKEN_WAKER, Interest::READ);
            let events = match poller.wait(None) {
                Ok(events) => {
                    poll_errors = 0;
                    events
                }
                Err(e) => {
                    poll_errors += 1;
                    if poll_errors >= MAX_POLL_ERRORS {
                        eprintln!(
                            "plansample-serve: acceptor poll(2) failed {poll_errors} times \
                             in a row ({e}); shutting down"
                        );
                        self.give_up();
                        return;
                    }
                    std::thread::sleep(POLL_ERROR_BACKOFF);
                    continue;
                }
            };
            for event in events {
                match event.token {
                    TOKEN_LISTENER => {
                        if !self.accept_burst() {
                            return;
                        }
                    }
                    _ => drain_wake_pipe(&mut self.wake_rx),
                }
            }
        }
    }

    /// Accepts until `WouldBlock`. Returns `false` when persistent
    /// accept failure forced server-wide shutdown.
    fn accept_burst(&mut self) -> bool {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.backoff.on_success();
                    self.dispatch(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // EMFILE/ENFILE and friends: the listener stays
                    // readable, so without a backoff this would spin.
                    self.state.accept_errors.fetch_add(1, Ordering::Relaxed);
                    match self.backoff.on_error() {
                        AcceptVerdict::Backoff => {
                            std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                            return true;
                        }
                        AcceptVerdict::GiveUp => {
                            eprintln!(
                                "plansample-serve: accept(2) failed {} times in a row \
                                 ({e}); shutting down",
                                self.backoff.consecutive
                            );
                            self.give_up();
                            return false;
                        }
                    }
                }
            }
        }
    }

    /// Hands a fresh connection to the next reactor in rotation.
    fn dispatch(&mut self, stream: TcpStream) {
        let mailbox = &self.mailboxes[self.next % self.mailboxes.len()];
        self.next = self.next.wrapping_add(1);
        mailbox
            .streams
            .lock()
            .expect("mailbox poisoned")
            .push(stream);
        if let Ok(mut w) = mailbox.waker.lock() {
            // WouldBlock is ignored: a full pipe already guarantees
            // the reactor will wake.
            let _ = w.write(&[1]);
        }
    }

    fn give_up(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake_set.wake_all();
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

/// Binds the listener and spawns the acceptor, the reactors, and each
/// reactor's worker pool.
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

    // One socketpair per event-loop thread (acceptor first). Both ends
    // nonblocking: the read side so draining never stalls the loop,
    // the write side so a full wake buffer never blocks a sender
    // (O_NONBLOCK lives on the shared open file description, so
    // per-sender clones inherit it).
    let wake_pair = || -> io::Result<(UnixStream, UnixStream)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((tx, rx))
    };
    let (acceptor_tx, acceptor_rx) = wake_pair()?;
    let mut wakers = vec![Mutex::new(acceptor_tx)];
    // Per reactor: the read end it polls, the mailbox the acceptor
    // fills (with its own clone of the waker), and a waker clone for
    // its workers' completions — cloned before the original moves into
    // the WakeSet.
    let mut mailboxes = Vec::with_capacity(reactors);
    let mut reactor_ends = Vec::with_capacity(reactors);
    for _ in 0..reactors {
        let (tx, rx) = wake_pair()?;
        let streams: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        mailboxes.push(ReactorMailbox {
            streams: Arc::clone(&streams),
            waker: Mutex::new(tx.try_clone()?),
        });
        reactor_ends.push((rx, streams, tx.try_clone()?));
        wakers.push(Mutex::new(tx));
    }
    let wake_set = Arc::new(WakeSet(wakers));

    let mut threads = Vec::new();
    threads.push(
        std::thread::Builder::new()
            .name("plansample-serve-acceptor".into())
            .spawn({
                let acceptor = Acceptor {
                    listener,
                    wake_rx: acceptor_rx,
                    mailboxes,
                    next: 0,
                    state: Arc::clone(&state),
                    shutdown: Arc::clone(&shutdown),
                    wake_set: Arc::clone(&wake_set),
                    backoff: AcceptBackoff::default(),
                };
                move || acceptor.run()
            })?,
    );

    let frame_timeout = config.frame_timeout;
    let max_pipeline = config.max_pipeline.max(1);
    for (index, (wake_rx, mailbox, worker_waker)) in reactor_ends.into_iter().enumerate() {
        let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
        let jobs_rx = Arc::new(Mutex::new(jobs_rx));
        let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));

        for w in 0..config.workers.max(1) {
            let jobs_rx = Arc::clone(&jobs_rx);
            let completions = Arc::clone(&completions);
            let state = Arc::clone(&state);
            let mut waker = worker_waker.try_clone()?;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("plansample-serve-worker-{index}-{w}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only while dequeuing.
                        let job = match jobs_rx.lock().expect("job queue poisoned").recv() {
                            Ok(job) => job,
                            Err(_) => return, // reactor exited, channel closed
                        };
                        let payload = state.handle_encoded(&job.request, job.request_id);
                        completions
                            .lock()
                            .expect("completion queue poisoned")
                            .push(Completion {
                                token: job.token,
                                payload,
                            });
                        let _ = waker.write(&[1]);
                    })?,
            );
        }

        let reactor = Reactor {
            wake_rx,
            mailbox,
            conns: HashMap::new(),
            next_token: crate::reactor::FIRST_CONN_TOKEN,
            intake: Intake {
                index,
                state: Arc::clone(&state),
                jobs_tx,
                max_pipeline,
            },
            completions,
            shutdown: Arc::clone(&shutdown),
            wake_set: Arc::clone(&wake_set),
            frame_timeout,
            clock: Instant::now,
        };
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
        wake_set,
        threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_backoff_gives_up_only_after_the_bound() {
        let mut backoff = AcceptBackoff::default();
        for i in 1..MAX_ACCEPT_ERRORS {
            assert_eq!(
                backoff.on_error(),
                AcceptVerdict::Backoff,
                "failure #{i} must back off, not give up"
            );
        }
        assert_eq!(
            backoff.on_error(),
            AcceptVerdict::GiveUp,
            "failure #{MAX_ACCEPT_ERRORS} exhausts the tolerance"
        );
    }

    #[test]
    fn accept_backoff_resets_on_success() {
        let mut backoff = AcceptBackoff::default();
        for _ in 0..MAX_ACCEPT_ERRORS - 1 {
            backoff.on_error();
        }
        backoff.on_success();
        assert_eq!(
            backoff.on_error(),
            AcceptVerdict::Backoff,
            "one success forgives the whole streak"
        );
    }

    #[test]
    fn resolve_reactors_zero_means_per_core() {
        assert_eq!(resolve_reactors(3), 3);
        assert!(resolve_reactors(0) >= 1);
    }

    /// The acceptor's deal is a strict rotation: with each connection
    /// finishing a round trip before the next one connects, reactor
    /// `i` adopts connections `i`, `i + n`, `i + 2n`, ….
    #[test]
    fn acceptor_deals_connections_round_robin() {
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
