//! The serving front-end: an acceptor plus N thread-per-core reactors.
//!
//! One acceptor thread owns the listener and nothing else: it accepts
//! connections and deals them round-robin to the reactors through
//! per-reactor mailboxes, waking the target reactor through its
//! socketpair. Each reactor (see [`crate::reactor`]) owns its own
//! `poll(2)` set, connection map, completion queue, and worker pool;
//! a connection is pinned to its reactor for life, so no socket is
//! ever shared between event loops. What *is* shared —
//! [`ServerState`] — is shared through atomics and the singleflighted
//! `PlanService`, which is exactly why the determinism contract (reply
//! bytes are a pure function of request bytes) holds verbatim at every
//! reactor count.
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
    Completion, Interest, Job, Poller, Reactor, WakeSet, MAX_POLL_ERRORS, POLL_ERROR_BACKOFF,
    TOKEN_LISTENER, TOKEN_WAKER,
};
use crate::state::{AdmissionConfig, ServerState};
use std::collections::HashMap;
use std::io::{self, Read, Write};
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
    /// TPC-H service entry capacity.
    pub cache_entries: usize,
    /// TPC-H service byte budget (participates in admission control).
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
    /// Directory of persistent plan-space artifacts. When set, every
    /// TPC-H preparation is written through to the store, so the plan
    /// space survives the process.
    pub artifact_dir: Option<PathBuf>,
    /// Load every artifact in `artifact_dir` into the service cache at
    /// startup (no-op without `artifact_dir`).
    pub warm: bool,
    /// Give each reactor its own `SO_REUSEPORT` listener — the kernel
    /// load-balances accepts across them and the acceptor thread
    /// disappears. Falls back to the round-robin acceptor (with a
    /// logged message) where unsupported.
    pub reuseport: bool,
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
            warm: false,
            reuseport: false,
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

    /// The shared serving state (counters, services).
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
pub(crate) const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Consecutive `accept(2)` failures tolerated before the acceptor
/// declares server-wide shutdown (mirrors [`MAX_POLL_ERRORS`]).
pub(crate) const MAX_ACCEPT_ERRORS: u32 = 100;

/// What to do after an `accept(2)` failure.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum AcceptVerdict {
    /// Transient (so far): sleep [`ACCEPT_ERROR_BACKOFF`], then poll
    /// again.
    Backoff,
    /// Persistent: shut the server down rather than hang half-alive.
    GiveUp,
}

/// The consecutive-failure policy for `accept(2)`, separated from the
/// accepting loops (the dedicated acceptor thread, or each reactor in
/// `SO_REUSEPORT` mode) so the verdict sequence is unit-testable
/// without forcing real fd exhaustion.
#[derive(Debug, Default)]
pub(crate) struct AcceptBackoff {
    pub(crate) consecutive: u32,
}

impl AcceptBackoff {
    pub(crate) fn on_success(&mut self) {
        self.consecutive = 0;
    }

    pub(crate) fn on_error(&mut self) -> AcceptVerdict {
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
                    _ => self.drain_waker(),
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

    fn drain_waker(&mut self) {
        let mut sink = [0u8; 64];
        while matches!(self.wake_rx.read(&mut sink), Ok(n) if n > 0) {}
    }

    fn give_up(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake_set.wake_all();
    }
}

/// `SO_REUSEPORT` listener creation. The build has no libc crate, so
/// this declares the four socket-layer entry points it needs (std
/// already links libc) and builds each listener by hand: the option
/// must be set *between* `socket(2)` and `bind(2)`, which
/// `TcpListener::bind` gives no hook for.
#[cfg(target_os = "linux")]
mod reuseport {
    use std::io;
    use std::net::{SocketAddr, TcpListener};
    use std::os::fd::FromRawFd;
    use std::os::raw::{c_int, c_uint};

    /// `struct sockaddr_in` (IPv4 only; v6 addresses take the
    /// acceptor fallback).
    #[repr(C)]
    struct SockAddrIn {
        sin_family: u16,
        /// Big-endian port.
        sin_port: u16,
        /// Big-endian address.
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_int,
            optlen: c_uint,
        ) -> c_int;
        fn bind(fd: c_int, addr: *const SockAddrIn, len: c_uint) -> c_int;
        fn listen(fd: c_int, backlog: c_int) -> c_int;
    }

    const AF_INET: c_int = 2;
    const SOCK_STREAM: c_int = 1;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEPORT: c_int = 15;
    const BACKLOG: c_int = 1024;

    /// One listening socket with `SO_REUSEPORT` set, bound to `addr`.
    pub(super) fn listener(addr: SocketAddr) -> io::Result<TcpListener> {
        let SocketAddr::V4(v4) = addr else {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "SO_REUSEPORT mode supports IPv4 listen addresses only",
            ));
        };
        // SAFETY: `socket(2)` takes three integers and touches no
        // caller memory; the declaration above matches its C prototype.
        let fd = unsafe { socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // From here the fd has an owner: any failure drops (closes) it.
        // SAFETY: `fd` is a fresh, open stream socket (checked above)
        // that nothing else owns, so `sock` becomes its sole owner.
        let sock = unsafe { TcpListener::from_raw_fd(fd) };
        let one: c_int = 1;
        // SAFETY: `fd` is open (owned by `sock`); `optval` points at the
        // live `c_int` `one` and `optlen` is exactly its size.
        let rc = unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                SO_REUSEPORT,
                &one,
                std::mem::size_of::<c_int>() as c_uint,
            )
        };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        let sa = SockAddrIn {
            sin_family: AF_INET as u16,
            sin_port: v4.port().to_be(),
            sin_addr: u32::from_be_bytes(v4.ip().octets()).to_be(),
            sin_zero: [0; 8],
        };
        // SAFETY: `fd` is open; `sa` is a live `#[repr(C)]`
        // `sockaddr_in` and `len` is exactly its size, so the kernel
        // reads only initialized bytes.
        let rc = unsafe { bind(fd, &sa, std::mem::size_of::<SockAddrIn>() as c_uint) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `listen(2)` takes two integers; `fd` is open and bound.
        if unsafe { listen(fd, BACKLOG) } != 0 {
            return Err(io::Error::last_os_error());
        }
        sock.set_nonblocking(true)?;
        Ok(sock)
    }
}

/// Binds one `SO_REUSEPORT` listener per reactor. The first bind
/// resolves an ephemeral port request; its siblings bind the concrete
/// port so the kernel groups all of them into one balancing set.
fn bind_reuseport(addr: &str, reactors: usize) -> io::Result<Vec<TcpListener>> {
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (addr, reactors);
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "SO_REUSEPORT listener groups are Linux-only on this build",
        ))
    }
    #[cfg(target_os = "linux")]
    {
        use std::net::ToSocketAddrs;
        let requested = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing")
        })?;
        let first = reuseport::listener(requested)?;
        let concrete = first.local_addr()?;
        let mut listeners = vec![first];
        for _ in 1..reactors {
            listeners.push(reuseport::listener(concrete)?);
        }
        Ok(listeners)
    }
}

/// How connections reach the reactors: one shared listener drained by
/// a dedicated acceptor thread, or a per-reactor `SO_REUSEPORT` group
/// balanced by the kernel.
enum Intake {
    Shared(TcpListener),
    PerReactor(Vec<TcpListener>),
}

/// Wires the artifact store to the serving state: every TPC-H
/// preparation writes through to disk, and (optionally) the store's
/// current contents warm the cache before the first byte is served.
fn attach_store(config: &ServerConfig, state: &ServerState) -> io::Result<()> {
    let Some(dir) = &config.artifact_dir else {
        return Ok(());
    };
    let store = plansample_artifact::ArtifactStore::open(dir)
        .map_err(|e| io::Error::other(e.to_string()))?;
    if config.warm {
        match store.warm(state.tpch_service()) {
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
    }
    state.tpch_service().set_persist(Arc::new(move |prepared| {
        if let Err(e) = store.save(prepared) {
            eprintln!("plansample-serve: artifact save failed: {e}");
        }
    }));
    Ok(())
}

/// Binds the listener(s) and spawns the reactors, each reactor's
/// worker pool, and (unless every reactor accepts for itself via
/// `SO_REUSEPORT`) the acceptor.
pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
    let reactors = resolve_reactors(config.reactors);
    let intake = if config.reuseport {
        match bind_reuseport(&config.addr, reactors) {
            Ok(listeners) => Intake::PerReactor(listeners),
            Err(e) => {
                eprintln!(
                    "plansample-serve: SO_REUSEPORT unavailable ({e}); \
                     falling back to the round-robin acceptor"
                );
                let listener = TcpListener::bind(&config.addr)?;
                listener.set_nonblocking(true)?;
                Intake::Shared(listener)
            }
        }
    } else {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        Intake::Shared(listener)
    };
    let addr = match &intake {
        Intake::Shared(l) => l.local_addr()?,
        Intake::PerReactor(ls) => ls[0].local_addr()?,
    };

    let optimizer = if config.cross_products {
        plansample_optimizer::OptimizerConfig::with_cross_products()
    } else {
        plansample_optimizer::OptimizerConfig::default()
    };
    let state = Arc::new(ServerState::new(
        optimizer,
        config.cache_entries,
        config.byte_budget,
        config.admission,
        reactors,
    ));
    attach_store(&config, &state)?;
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
    // In SO_REUSEPORT mode each reactor accepts for itself: no shared
    // listener, no acceptor thread, no acceptor waker.
    let (shared_listener, mut reactor_listeners): (Option<TcpListener>, Vec<Option<TcpListener>>) =
        match intake {
            Intake::Shared(l) => (Some(l), (0..reactors).map(|_| None).collect()),
            Intake::PerReactor(ls) => (None, ls.into_iter().map(Some).collect()),
        };
    let acceptor_wake = match &shared_listener {
        Some(_) => Some(wake_pair()?),
        None => None,
    };
    let mut reactor_wake = Vec::with_capacity(reactors);
    for _ in 0..reactors {
        reactor_wake.push(wake_pair()?);
    }

    // The acceptor needs each reactor's waker (for dispatch) and so do
    // that reactor's workers (for completions) — clone before the
    // originals move into the WakeSet.
    let mut mailboxes = Vec::with_capacity(reactors);
    let mut worker_wakers = Vec::with_capacity(reactors);
    let mut mailbox_handles = Vec::with_capacity(reactors);
    for (tx, _) in &reactor_wake {
        let streams: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        mailbox_handles.push(Arc::clone(&streams));
        mailboxes.push(ReactorMailbox {
            streams,
            waker: Mutex::new(tx.try_clone()?),
        });
        worker_wakers.push(tx.try_clone()?);
    }
    let mut wakers = Vec::with_capacity(reactors + 1);
    let acceptor_wake_rx = acceptor_wake.map(|(tx, rx)| {
        wakers.push(Mutex::new(tx));
        rx
    });
    let mut wake_rxs = Vec::with_capacity(reactors);
    for (tx, rx) in reactor_wake {
        wakers.push(Mutex::new(tx));
        wake_rxs.push(rx);
    }
    let wake_set = Arc::new(WakeSet(wakers));

    let mut threads = Vec::new();
    if let (Some(listener), Some(wake_rx)) = (shared_listener, acceptor_wake_rx) {
        threads.push(
            std::thread::Builder::new()
                .name("plansample-serve-acceptor".into())
                .spawn({
                    let state = Arc::clone(&state);
                    let shutdown = Arc::clone(&shutdown);
                    let wake_set = Arc::clone(&wake_set);
                    move || {
                        Acceptor {
                            listener,
                            wake_rx,
                            mailboxes,
                            next: 0,
                            state,
                            shutdown,
                            wake_set,
                            backoff: AcceptBackoff::default(),
                        }
                        .run();
                    }
                })?,
        );
    }

    let frame_timeout = config.frame_timeout;
    let max_pipeline = config.max_pipeline.max(1);
    for (index, wake_rx) in wake_rxs.into_iter().enumerate() {
        let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
        let jobs_rx = Arc::new(Mutex::new(jobs_rx));
        let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));

        for w in 0..config.workers.max(1) {
            let jobs_rx = Arc::clone(&jobs_rx);
            let completions = Arc::clone(&completions);
            let state = Arc::clone(&state);
            let mut waker = worker_wakers[index].try_clone()?;
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

        let mailbox = Arc::clone(&mailbox_handles[index]);
        let listener = reactor_listeners[index].take();
        let state = Arc::clone(&state);
        let shutdown = Arc::clone(&shutdown);
        let wake_set = Arc::clone(&wake_set);
        threads.push(
            std::thread::Builder::new()
                .name(format!("plansample-serve-reactor-{index}"))
                .spawn(move || {
                    Reactor {
                        index,
                        wake_rx,
                        mailbox,
                        listener,
                        accept_backoff: AcceptBackoff::default(),
                        conns: HashMap::new(),
                        next_token: crate::reactor::FIRST_CONN_TOKEN,
                        poller: Poller::new(),
                        state,
                        jobs_tx,
                        completions,
                        shutdown,
                        wake_set,
                        frame_timeout,
                        max_pipeline,
                        clock: Instant::now,
                    }
                    .run();
                })?,
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

    /// `--reuseport` end to end: per-reactor listeners (Linux) or the
    /// logged acceptor fallback (elsewhere) — either way every
    /// connection must be served and counted.
    #[test]
    fn reuseport_mode_serves_requests() {
        let handle = start(ServerConfig {
            reactors: 2,
            workers: 1,
            reuseport: true,
            ..Default::default()
        })
        .expect("reuseport mode (or its fallback) starts");
        let addr = handle.addr();
        let conns = 8;
        for _ in 0..conns {
            let mut client = crate::client::Client::connect(addr).unwrap();
            let response = client.call(&crate::wire::Request::Stats).unwrap();
            assert!(
                matches!(response, crate::wire::Response::Stats(_)),
                "got {response:?}"
            );
        }
        let state = Arc::clone(handle.state());
        handle.stop();
        assert_eq!(
            state.connections_total.load(Ordering::Relaxed),
            conns as u64
        );
        let per_reactor: u64 = state
            .per_reactor
            .iter()
            .map(|r| r.connections.load(Ordering::Relaxed))
            .sum();
        assert_eq!(per_reactor, conns as u64, "every accept lands on a reactor");
    }

    /// On Linux the SO_REUSEPORT bind itself must work, including
    /// ephemeral-port resolution shared across the group.
    #[cfg(target_os = "linux")]
    #[test]
    fn reuseport_group_shares_one_ephemeral_port() {
        let listeners = bind_reuseport("127.0.0.1:0", 3).expect("reuseport binds on linux");
        assert_eq!(listeners.len(), 3);
        let port = listeners[0].local_addr().unwrap().port();
        assert_ne!(port, 0);
        for l in &listeners {
            assert_eq!(l.local_addr().unwrap().port(), port);
        }
    }
}
