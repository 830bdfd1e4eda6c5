//! A minimal readiness reactor over `poll(2)`, and the per-core event
//! loop built on it.
//!
//! The build environment has no crates.io, so instead of `mio`/`tokio`
//! this module declares the one libc entry point the event loop needs
//! (std already links libc on every Unix target) and wraps it in a
//! safe, allocation-reusing API ([`Poller`]). `poll` rather than
//! `epoll` keeps the wrapper portable across Unixes and branch-free to
//! reason about; at the few hundred connections each reactor targets,
//! the O(n) fd scan is far below the cost of the work behind each ready
//! fd.
//!
//! The crate-private `Reactor` is one thread-per-core event loop: it
//! owns a `Poller`, a connection map, a worker handoff (jobs channel +
//! completion queue + socketpair waker), and a mailbox of
//! freshly-accepted sockets the acceptor thread hands it. A server runs
//! N reactors (see `server::start`); a connection lives its whole life
//! on the reactor that adopted it, so no socket is ever shared between
//! threads. All cross-reactor coordination happens through the shared
//! `ServerState` atomics — including the global queue bound, claimed
//! with `ServerState::try_admit` so admission holds server-wide at any
//! reactor count.

use crate::conn::{Conn, ConnPhase};
use crate::state::ServerState;
use crate::wire::{self, ErrorCode, Request, Response, WireError, CONNECTION_REQUEST_ID};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_ulong};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// `struct pollfd` from `poll(2)`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// What a registered fd is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when readable (or the peer hung up).
    pub readable: bool,
    /// Wake when writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
}

/// Readiness reported for one fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered under this round.
    pub token: u64,
    /// Data (or EOF) can be read without blocking.
    pub readable: bool,
    /// The socket can accept writes without blocking.
    pub writable: bool,
    /// The fd is in an error/hangup state; close it.
    pub error: bool,
}

/// One round of readiness polling. The fd set is rebuilt every round
/// from the caller's connection table (`clear` + `register`), which
/// keeps registration trivially consistent with connection lifetimes —
/// no stale-fd bookkeeping, at the cost of an O(n) rebuild the fd scan
/// already pays.
#[derive(Debug, Default)]
pub struct Poller {
    fds: Vec<PollFd>,
    tokens: Vec<u64>,
}

impl Poller {
    /// An empty poller.
    pub fn new() -> Self {
        Poller::default()
    }

    /// Drops every registration (start of a round).
    pub fn clear(&mut self) {
        self.fds.clear();
        self.tokens.clear();
    }

    /// Registers `fd` under `token` for this round.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) {
        let mut events = 0;
        if interest.readable {
            events |= POLLIN;
        }
        if interest.writable {
            events |= POLLOUT;
        }
        self.fds.push(PollFd {
            fd,
            events,
            revents: 0,
        });
        self.tokens.push(token);
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` = wait indefinitely), then returns the ready
    /// events. EINTR retries transparently.
    pub fn wait(&mut self, timeout: Option<Duration>) -> io::Result<Vec<Event>> {
        let timeout_ms: c_int = match timeout {
            // Round up so a sub-millisecond deadline does not spin at 0.
            Some(t) => t.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as c_int,
            None => -1,
        };
        loop {
            // SAFETY: the pointer and length describe `self.fds`'
            // initialized `#[repr(C)]` `pollfd` elements, exclusively
            // borrowed for the call; the kernel writes only their
            // `revents` fields.
            let rc = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as c_ulong, timeout_ms) };
            if rc >= 0 {
                break;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        let events = self
            .fds
            .iter()
            .zip(&self.tokens)
            .filter(|(fd, _)| fd.revents != 0)
            .map(|(fd, &token)| Event {
                token,
                readable: fd.revents & (POLLIN | POLLHUP) != 0,
                writable: fd.revents & POLLOUT != 0,
                error: fd.revents & (POLLERR | POLLNVAL) != 0,
            })
            .collect();
        Ok(events)
    }
}

/// A request in flight to a reactor's worker pool.
pub(crate) struct Job {
    pub(crate) token: u64,
    pub(crate) request_id: u64,
    pub(crate) request: Request,
}

/// An encoded reply on its way back to its reactor.
pub(crate) struct Completion {
    pub(crate) token: u64,
    pub(crate) payload: Vec<u8>,
}

/// Token the listener is registered under in the acceptor's poll set.
/// Reactors never register it; their connection tokens start at
/// [`FIRST_CONN_TOKEN`].
pub(crate) const TOKEN_LISTENER: u64 = 0;

/// Token the reactor's wake pipe is registered under.
pub(crate) const TOKEN_WAKER: u64 = 1;

/// First token handed to a connection.
pub(crate) const FIRST_CONN_TOKEN: u64 = 2;

/// Backoff after a failed `poll(2)` call, and how many consecutive
/// failures are tolerated before the loop gives up: a persistent error
/// (e.g. EINVAL from breaching the fd limit) must not spin the loop at
/// 100% CPU, and if it never clears the server shuts down rather than
/// hang unresponsively. The acceptor applies the same policy to
/// persistent `accept(2)` failures.
pub(crate) const POLL_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Consecutive `poll(2)` failures tolerated before giving up.
pub(crate) const MAX_POLL_ERRORS: u32 = 100;

/// Write ends of every event-loop thread's wake pipe (the acceptor
/// first, then each reactor). Any party declaring server-wide shutdown
/// pokes them all, so no thread stays parked in `poll(2)` holding the
/// shutdown back.
pub(crate) struct WakeSet(pub(crate) Vec<Mutex<UnixStream>>);

impl WakeSet {
    /// Writes one wake byte to every pipe. `WouldBlock` is ignored: a
    /// full pipe already guarantees the owner will wake.
    pub(crate) fn wake_all(&self) {
        for waker in &self.0 {
            if let Ok(mut w) = waker.lock() {
                let _ = w.write(&[1]);
            }
        }
    }
}

/// Empties an event loop's wake pipe, stopping at the first short read:
/// that read emptied the pipe, and a byte written after it makes the
/// level-triggered `poll(2)` report the pipe again, so reading on to
/// `WouldBlock` would only add a syscall to every wake.
pub(crate) fn drain_wake_pipe(wake_rx: &mut UnixStream) {
    let mut sink = [0u8; 64];
    while matches!(wake_rx.read(&mut sink), Ok(n) if n == sink.len()) {}
}

/// One thread-per-core event loop. See the module docs for how it
/// relates to the acceptor and its siblings.
pub(crate) struct Reactor {
    /// This reactor's index (selects its `ServerState::per_reactor`
    /// counter slice).
    pub(crate) index: usize,
    /// Read end of the wake pipe (workers and the acceptor poke it).
    pub(crate) wake_rx: UnixStream,
    /// Freshly-accepted sockets the acceptor handed this reactor,
    /// adopted at the top of every loop round.
    pub(crate) mailbox: Arc<Mutex<Vec<TcpStream>>>,
    pub(crate) conns: HashMap<u64, Conn>,
    pub(crate) next_token: u64,
    pub(crate) poller: Poller,
    pub(crate) state: Arc<ServerState>,
    pub(crate) jobs_tx: mpsc::Sender<Job>,
    pub(crate) completions: Arc<Mutex<Vec<Completion>>>,
    pub(crate) shutdown: Arc<AtomicBool>,
    /// Every thread's waker, for declaring server-wide shutdown.
    pub(crate) wake_set: Arc<WakeSet>,
    pub(crate) frame_timeout: Duration,
    pub(crate) max_pipeline: usize,
    /// Time source for the slow-loris deadlines — `Instant::now` in
    /// production, a stepping fake in the deadline regression tests.
    pub(crate) clock: fn() -> Instant,
}

impl Reactor {
    pub(crate) fn run(mut self) {
        let mut poll_errors: u32 = 0;
        while !self.shutdown.load(Ordering::SeqCst) {
            self.adopt_mailbox();
            self.drain_completions();
            self.reap();

            self.poller.clear();
            self.poller
                .register(self.wake_rx.as_raw_fd(), TOKEN_WAKER, Interest::READ);
            for (&token, conn) in &self.conns {
                self.poller.register(
                    conn.stream().as_raw_fd(),
                    token,
                    Interest {
                        readable: conn.wants_read(self.max_pipeline),
                        writable: conn.wants_write(),
                    },
                );
            }

            let timeout = self
                .nearest_deadline()
                .map(|deadline| deadline.saturating_duration_since((self.clock)()));
            let events = match self.poller.wait(timeout) {
                Ok(events) => {
                    poll_errors = 0;
                    events
                }
                Err(e) => {
                    poll_errors += 1;
                    if poll_errors >= MAX_POLL_ERRORS {
                        eprintln!(
                            "plansample-serve: poll(2) failed {poll_errors} times in a row \
                             ({e}); shutting down"
                        );
                        self.shutdown.store(true, Ordering::SeqCst);
                        self.wake_set.wake_all();
                        break;
                    }
                    std::thread::sleep(POLL_ERROR_BACKOFF);
                    continue;
                }
            };

            let now = (self.clock)();
            for event in events {
                match event.token {
                    TOKEN_WAKER => drain_wake_pipe(&mut self.wake_rx),
                    token => {
                        if event.error {
                            self.close(token);
                            continue;
                        }
                        if event.writable {
                            if let Some(conn) = self.conns.get_mut(&token) {
                                if !conn.flush() {
                                    self.close(token);
                                    continue;
                                }
                            }
                        }
                        if event.readable {
                            self.read_ready(token, now);
                        }
                    }
                }
            }
            self.enforce_frame_deadlines(now);
        }
        // Dropping the sender closes the job channel; this reactor's
        // workers exit.
    }

    /// Adopts every connection the acceptor queued on the mailbox.
    /// From here on the socket belongs to this reactor alone.
    fn adopt_mailbox(&mut self) {
        let adopted: Vec<TcpStream> = {
            let mut mailbox = self.mailbox.lock().expect("mailbox poisoned");
            std::mem::take(&mut *mailbox)
        };
        for stream in adopted {
            let Ok(conn) = Conn::new(stream) else {
                continue;
            };
            let token = self.next_token;
            self.next_token += 1;
            self.conns.insert(token, conn);
            self.state.connections_total.fetch_add(1, Ordering::Relaxed);
            self.state.connections_open.fetch_add(1, Ordering::Relaxed);
            self.state.per_reactor[self.index]
                .connections
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Moves finished replies into their connections' write buffers.
    fn drain_completions(&mut self) {
        let done: Vec<Completion> = {
            let mut queue = self.completions.lock().expect("completion queue poisoned");
            std::mem::take(&mut *queue)
        };
        for completion in done {
            self.state.release_inflight();
            let Some(conn) = self.conns.get_mut(&completion.token) else {
                // The connection died with the request in flight; the
                // reply is dropped, never delivered to a reused token.
                continue;
            };
            conn.inflight -= 1;
            conn.queue_reply(&completion.payload);
            // Opportunistic flush: most replies fit the socket
            // buffer, so this saves a poll round trip per request.
            if !conn.flush() {
                self.close(completion.token);
                continue;
            }
            // The freed pipeline slot may expose complete frames that
            // are already buffered: a client that sent its whole burst
            // (or half-closed) produces no further POLLIN, so this is
            // the only place those frames can re-enter the parse loop.
            // The timestamp must be taken *here*, per completion: the
            // flushes above take real time, and arming a slow-loris
            // deadline with a timestamp captured before the drain began
            // would back-date the partial frame and close a legitimate
            // client early.
            let now = (self.clock)();
            self.parse_frames(completion.token, now);
        }
    }

    /// Closes connections that finished draining.
    fn reap(&mut self) {
        let done: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.phase == ConnPhase::Closed || c.drained())
            .map(|(&t, _)| t)
            .collect();
        for token in done {
            self.close(token);
        }
    }

    fn nearest_deadline(&self) -> Option<Instant> {
        self.conns
            .values()
            .filter_map(|c| c.frame_deadline())
            .map(|started| started + self.frame_timeout)
            .min()
    }

    fn enforce_frame_deadlines(&mut self, now: Instant) {
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.frame_deadline().is_some_and(|started| {
                    now.saturating_duration_since(started) >= self.frame_timeout
                })
            })
            .map(|(&t, _)| t)
            .collect();
        for token in expired {
            // Slow-loris: the partial frame never completed in time.
            self.close(token);
        }
    }

    fn read_ready(&mut self, token: u64, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let alive = conn.fill();
        if !alive {
            // EOF (or read error): no more input will arrive, but every
            // request already buffered is still served and flushed
            // before the connection closes (see `Conn::drained`).
            conn.eof = true;
        }
        self.parse_frames(token, now);
    }

    /// Decodes every complete frame buffered on `token`, enforcing the
    /// pipeline and queue bounds and the wire error policy.
    fn parse_frames(&mut self, token: u64, now: Instant) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.phase != ConnPhase::Open || conn.inflight >= self.max_pipeline {
                return;
            }
            let payload = match conn.next_frame(now) {
                Ok(Some(payload)) => payload,
                Ok(None) => return,
                Err(e) => {
                    // Framing poisoned: typed reply, then drain.
                    self.state.wire_errors.fetch_add(1, Ordering::Relaxed);
                    let reply = wire_error_reply(&e);
                    conn.queue_reply(&reply.encode(CONNECTION_REQUEST_ID));
                    conn.phase = ConnPhase::Draining;
                    return;
                }
            };
            self.handle_payload(token, &payload);
        }
    }

    fn handle_payload(&mut self, token: u64, payload: &[u8]) {
        let header = wire::decode_header(payload);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let (_, request_id) = match header {
            Ok(pair) => pair,
            Err(e) => {
                self.state.wire_errors.fetch_add(1, Ordering::Relaxed);
                let recoverable = e.is_recoverable();
                conn.queue_reply(&wire_error_reply(&e).encode(CONNECTION_REQUEST_ID));
                if !recoverable {
                    conn.phase = ConnPhase::Draining;
                }
                return;
            }
        };
        match Request::decode(payload) {
            Ok((request_id, request)) => {
                // Decoded requests are counted whether they are then
                // admitted or shed, so `requests` always equals
                // `requests_admitted + shed_queue` at quiescence.
                self.state.requests.fetch_add(1, Ordering::Relaxed);
                self.state.per_reactor[self.index]
                    .requests
                    .fetch_add(1, Ordering::Relaxed);
                if !self.state.try_admit() {
                    // Queue bound (global, across every reactor): shed
                    // instead of queueing unboundedly.
                    self.state.shed_queue.fetch_add(1, Ordering::Relaxed);
                    let reply = Response::error(
                        ErrorCode::Overloaded,
                        format!("request queue at its {} bound", self.state.max_inflight()),
                    );
                    conn.queue_reply(&reply.encode(request_id));
                    return;
                }
                conn.inflight += 1;
                // The receiver outlives the loop (workers hold it);
                // send cannot fail until shutdown, where replies are
                // moot anyway.
                let _ = self.jobs_tx.send(Job {
                    token,
                    request_id,
                    request,
                });
            }
            Err(e) => {
                // The frame was well-delimited but the body was not a
                // request: typed reply, connection keeps serving.
                self.state.wire_errors.fetch_add(1, Ordering::Relaxed);
                conn.queue_reply(&wire_error_reply(&e).encode(request_id));
            }
        }
    }

    fn close(&mut self, token: u64) {
        if self.conns.remove(&token).is_some() {
            self.state.connections_open.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// The typed reply for a frame that failed to decode.
pub(crate) fn wire_error_reply(e: &WireError) -> Response {
    let code = match e {
        WireError::Oversized(_) => ErrorCode::Oversized,
        WireError::BadVersion(_) => ErrorCode::BadVersion,
        WireError::UnknownOpcode(_) => ErrorCode::UnknownOpcode,
        _ => ErrorCode::BadRequest,
    };
    Response::error(code, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn reports_readability_on_a_socketpair() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut poller = Poller::new();
        poller.register(b.as_raw_fd(), 7, Interest::READ);
        // Nothing written yet: times out with no events.
        let events = poller.wait(Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty());
        a.write_all(b"x").unwrap();
        let events = poller.wait(Some(Duration::from_millis(1000))).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
    }

    #[test]
    fn reports_hangup_as_readable() {
        let (a, b) = UnixStream::pair().unwrap();
        drop(a);
        let mut poller = Poller::new();
        poller.register(b.as_raw_fd(), 1, Interest::READ);
        let events = poller.wait(Some(Duration::from_millis(1000))).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].readable, "EOF must wake the reader");
    }

    #[test]
    fn wake_pipe_is_emptied_by_bursts_of_any_length() {
        let (mut tx, mut rx) = UnixStream::pair().unwrap();
        rx.set_nonblocking(true).unwrap();
        // Shorter than the sink, an exact multiple of it, and beyond it.
        for pokes in [1, 64, 128, 133] {
            tx.write_all(&vec![1u8; pokes]).unwrap();
            drain_wake_pipe(&mut rx);
            let left = rx.read(&mut [0u8; 1]);
            assert!(
                matches!(&left, Err(e) if e.kind() == io::ErrorKind::WouldBlock),
                "{pokes} pokes left {left:?} in the pipe"
            );
        }
    }

    thread_local! {
        static BASE: std::cell::OnceCell<Instant> = const { std::cell::OnceCell::new() };
        static TICKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// A deterministic clock advancing one millisecond per reading, so
    /// the test can observe *which call site* took the timestamp — the
    /// stale-deadline bug is invisible to a wall clock because the
    /// staleness window is microseconds.
    fn stepping_clock() -> Instant {
        let base = BASE.with(|b| *b.get_or_init(Instant::now));
        let n = TICKS.with(|t| {
            let n = t.get();
            t.set(n + 1);
            n
        });
        base + Duration::from_millis(n)
    }

    /// Regression test: `drain_completions` used to capture one
    /// `Instant::now()` before iterating and re-enter `parse_frames`
    /// with it for every completion, so a partial frame exposed after a
    /// slow flush armed its slow-loris deadline with a stale (earlier)
    /// timestamp — back-dating the client toward an early close. The
    /// fix takes a fresh reading per completion; under the stepping
    /// clock the second connection's deadline must therefore be
    /// strictly later than the first's, where the stale code stamps
    /// them identically.
    #[test]
    fn drain_completions_stamps_each_reentry_freshly() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let setup = |token: u64, reactor: &mut Reactor| -> TcpStream {
            let mut client = TcpStream::connect(addr).unwrap();
            let (server_side, _) = listener.accept().unwrap();
            // One complete frame (so the parse loop consumes something
            // and re-arms the deadline from `now`) followed by the head
            // of a partial one.
            client
                .write_all(&wire::frame(&Request::Stats.encode(token)))
                .unwrap();
            client.write_all(&8u32.to_le_bytes()).unwrap();
            client.write_all(b"par").unwrap();
            client.flush().unwrap();
            std::thread::sleep(Duration::from_millis(20)); // let it land
            let mut conn = Conn::new(server_side).unwrap();
            // Pipeline bound already reached: `read_ready` buffers the
            // bytes but parses nothing, arming no deadline yet.
            conn.inflight = 1;
            reactor.conns.insert(token, conn);
            reactor.read_ready(token, Instant::now());
            assert!(
                reactor.conns[&token].frame_deadline().is_none(),
                "setup must leave the deadline unarmed"
            );
            client // hold the peer open for the caller
        };

        let state = Arc::new(ServerState::new(
            plansample_optimizer::OptimizerConfig::default(),
            4,
            None,
            crate::state::AdmissionConfig::default(),
            1,
        ));
        let (_wake_tx, wake_rx) = UnixStream::pair().unwrap();
        let (jobs_tx, _jobs_rx) = mpsc::channel();
        let mut reactor = Reactor {
            index: 0,
            wake_rx,
            mailbox: Arc::new(Mutex::new(Vec::new())),
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            poller: Poller::new(),
            state: Arc::clone(&state),
            jobs_tx,
            completions: Arc::new(Mutex::new(Vec::new())),
            shutdown: Arc::new(AtomicBool::new(false)),
            wake_set: Arc::new(WakeSet(Vec::new())),
            frame_timeout: Duration::from_secs(10),
            max_pipeline: 1,
            clock: stepping_clock,
        };
        let _clients = (setup(2, &mut reactor), setup(3, &mut reactor));

        // Both requests were admitted before their replies completed.
        assert!(state.try_admit());
        assert!(state.try_admit());
        let reply = Response::error(ErrorCode::BadRequest, "x").encode(7);
        reactor
            .completions
            .lock()
            .unwrap()
            .extend([2u64, 3u64].map(|token| Completion {
                token,
                payload: reply.clone(),
            }));

        reactor.drain_completions();

        let deadline = |token: u64| {
            reactor.conns[&token]
                .frame_deadline()
                .expect("partial frame must arm the deadline")
        };
        assert!(
            deadline(3) > deadline(2),
            "each completion must re-stamp `now` at its own re-entry; \
             equal deadlines mean one stale timestamp served the whole drain"
        );
    }
}
