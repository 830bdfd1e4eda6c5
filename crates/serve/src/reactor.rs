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
//! `Reactor` is one thread-per-core event loop: it owns a connection map
//! and an [`Inbox`] — the connections reactor 0 dealt it and the replies
//! the server's workers finished for it, behind one socketpair waker.
//! Reactor 0 also owns the listener: it accepts until `WouldBlock` and
//! deals each connection round-robin, adopting those whose turn is its
//! own and posting the rest to their reactor's inbox. A server runs N
//! reactors (see `server::start`); a connection lives its whole life on
//! the reactor that adopted it, so no socket is ever shared between
//! threads. All cross-reactor coordination happens through the shared
//! `ServerState` atomics — including the global queue bound, claimed
//! with `ServerState::try_admit` so admission holds server-wide at any
//! reactor count.
//!
//! A request takes one of two paths, chosen per request by
//! `ServerState::handle_inline` from what the request and the caches
//! show (never from configuration):
//!
//! * **answered on the reactor** — `Stats`, and any small request on a
//!   workload whose identity is known and whose artifact is cached: the
//!   reactor that decoded it runs it and writes the reply in the same
//!   loop round (poll → read → handle → write). Two thread crossings a
//!   request, the client's own: client → reactor → client.
//! * **handed to a worker** — everything else (unknown identity, cache
//!   miss, a `SampleBatch` past the inline constant or on the exact
//!   tier): the server's job queue → a worker → the reactor's inbox → a
//!   second loop round. Four crossings: client → reactor → worker →
//!   reactor → client. The reactor itself never parses SQL, builds a
//!   catalog, optimizes or touches the artifact store.
//!
//! Three bounds keep one connection from taking the loop or the heap:
//! the pipeline bound (`max_pipeline` requests at the workers), the
//! round budget (`ROUND_BUDGET` units of reactor work between two
//! polls) and write-side backpressure (no reading or parsing while the
//! peer has replies to take, see `conn`).

use crate::conn::{Conn, ConnPhase};
use crate::state::ServerState;
use crate::wire::{self, ErrorCode, Request, Response, WireError, CONNECTION_REQUEST_ID};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
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
    /// The last `wait`'s ready events (capacity reused every round).
    events: Vec<Event>,
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
    /// events (valid until the next call). EINTR retries transparently.
    pub fn wait(&mut self, timeout: Option<Duration>) -> io::Result<&[Event]> {
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
        self.events.clear();
        self.events.extend(
            self.fds
                .iter()
                .zip(&self.tokens)
                .filter(|(fd, _)| fd.revents != 0)
                .map(|(fd, &token)| Event {
                    token,
                    readable: fd.revents & (POLLIN | POLLHUP) != 0,
                    writable: fd.revents & POLLOUT != 0,
                    error: fd.revents & (POLLERR | POLLNVAL) != 0,
                }),
        );
        Ok(&self.events)
    }
}

/// A request in flight to the server's workers, naming the reactor its
/// reply goes back to.
pub(crate) struct Job {
    pub(crate) reactor: usize,
    pub(crate) token: u64,
    pub(crate) request_id: u64,
    pub(crate) request: Request,
}

/// An encoded reply on its way back to its reactor.
pub(crate) struct Completion {
    pub(crate) token: u64,
    pub(crate) payload: Vec<u8>,
}

/// Token the listener is registered under in reactor 0's poll set.
const TOKEN_LISTENER: u64 = 0;

/// Token the reactor's wake socketpair is registered under.
const TOKEN_WAKER: u64 = 1;

/// First token handed to a connection.
const FIRST_CONN_TOKEN: u64 = 2;

/// Backoff after a failed `poll(2)` call, and how many consecutive
/// failures are tolerated before the loop gives up: a persistent error
/// (e.g. EINVAL from breaching the fd limit) must not spin the loop at
/// 100% CPU, and if it never clears the server shuts down rather than
/// hang unresponsively. Reactor 0 applies the same policy to persistent
/// `accept(2)` failures.
const POLL_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Consecutive `poll(2)` failures tolerated before giving up.
const MAX_POLL_ERRORS: u32 = 100;

/// How long reactor 0 leaves the listener out of its poll set after a
/// failed `accept(2)` call: the listener stays readable under
/// level-triggered polling, so polling it again at once would spin the
/// loop at 100% CPU for as long as the failure — fd exhaustion,
/// typically — persists.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Consecutive `accept(2)` failures tolerated before reactor 0 declares
/// server-wide shutdown (mirrors [`MAX_POLL_ERRORS`]).
const MAX_ACCEPT_ERRORS: u32 = 100;

/// What to do after an `accept(2)` failure.
#[derive(Debug, PartialEq, Eq)]
enum AcceptVerdict {
    /// Transient (so far): leave the listener out of the poll set for
    /// [`ACCEPT_ERROR_BACKOFF`].
    Backoff,
    /// Persistent: shut the server down rather than hang half-alive.
    GiveUp,
}

/// The consecutive-failure policy for `accept(2)`, separated from the
/// accept loop so the verdict sequence is unit-testable without forcing
/// real fd exhaustion.
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

/// Reactor 0's listening socket and what dealing from it takes.
struct Listener {
    socket: TcpListener,
    /// Round-robin cursor over the reactors.
    next: usize,
    backoff: AcceptBackoff,
    /// Set after a failed `accept(2)`: when the listener rejoins the
    /// poll set.
    resume_at: Option<Instant>,
}

/// What other threads hand one reactor: the connections reactor 0 dealt
/// it, the replies workers finished for its jobs, and the write end of
/// the socketpair whose read end the reactor polls. A wake is one byte
/// written through `&UnixStream`, a single `write(2)`, so senders take
/// no lock for it.
pub(crate) struct Inbox {
    streams: Mutex<Vec<TcpStream>>,
    completions: Mutex<Vec<Completion>>,
    waker: UnixStream,
}

impl Inbox {
    /// An empty inbox and the read end of its socketpair, for its
    /// reactor to poll. Both ends are nonblocking: the read side so
    /// draining never stalls the loop, the write side so a full wake
    /// buffer never blocks a sender.
    pub(crate) fn new() -> io::Result<(Inbox, UnixStream)> {
        let (waker, wake_rx) = UnixStream::pair()?;
        waker.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let inbox = Inbox {
            streams: Mutex::default(),
            completions: Mutex::default(),
            waker,
        };
        Ok((inbox, wake_rx))
    }

    /// Wakes the reactor. `WouldBlock` is ignored: a full socket buffer
    /// already guarantees the reactor will wake.
    fn wake(&self) {
        let _ = (&self.waker).write(&[1]);
    }

    /// Hands the reactor a connection reactor 0 dealt it.
    fn deliver(&self, stream: TcpStream) {
        self.streams.lock().expect("inbox poisoned").push(stream);
        self.wake();
    }

    /// Hands the reactor a finished reply.
    pub(crate) fn complete(&self, completion: Completion) {
        self.completions
            .lock()
            .expect("inbox poisoned")
            .push(completion);
        self.wake();
    }
}

/// Declares server-wide shutdown: sets the flag, then wakes every
/// reactor so none stays parked in `poll(2)` holding the shutdown back.
pub(crate) fn shut_down(shutdown: &AtomicBool, inboxes: &[Inbox]) {
    shutdown.store(true, Ordering::SeqCst);
    for inbox in inboxes {
        inbox.wake();
    }
}

/// Empties a reactor's wake socket, stopping at the first short read:
/// that read emptied it, and a byte written after it makes the
/// level-triggered `poll(2)` report the socket again, so reading on to
/// `WouldBlock` would only add a syscall to every wake.
fn drain_wake_pipe(wake_rx: &mut UnixStream) {
    let mut sink = [0u8; 64];
    while matches!(wake_rx.read(&mut sink), Ok(n) if n == sink.len()) {}
}

/// Units of loop time one connection may use between two polls: one
/// per frame parsed, plus one per plan sampled on the reactor. A
/// connection that reaches it keeps its remaining frames buffered and
/// is resumed — without waiting — in the next round, after every other
/// ready connection had its turn.
///
/// A unit is 0.5–2 µs of a frame (decode, `serve.state.handle_us.*`,
/// encode) or 0.3–2.0 µs of a plan (see `INLINE_MAX_SAMPLES` in
/// `state`), so a round gives one connection about 0.1 ms of the loop
/// at the point mix's costs and at most ~0.3 ms at the slowest
/// measured (the last request may overshoot the budget by its own
/// plans, at most `INLINE_MAX_SAMPLES`) — where an unbudgeted 64 KiB
/// burst of 14-byte `Stats` frames would hold it for 4 ms. Four
/// maximal inline batches fit in it, so the budget never splits what a
/// well-behaved closed-loop client sends; the extra rounds a burst
/// takes cost one zero-timeout `poll(2)` each.
const ROUND_BUDGET: u32 = 128;

/// What turns a connection's buffered frames into replies and jobs:
/// everything the parse loop needs except the connection itself, so the
/// loop runs on a `&mut Conn` borrowed out of the reactor's map.
pub(crate) struct Intake {
    /// The owning reactor's index (selects its
    /// `ServerState::per_reactor` counter slice).
    pub(crate) index: usize,
    pub(crate) state: Arc<ServerState>,
    /// Requests the reactor does not answer itself go to the workers.
    pub(crate) jobs_tx: mpsc::Sender<Job>,
    pub(crate) max_pipeline: usize,
}

impl Intake {
    /// Takes in what `conn`'s socket has to read, then parses it.
    fn read_ready(&self, token: u64, conn: &mut Conn, now: Instant) {
        if !conn.fill() {
            // EOF (or read error): no more input will arrive, but every
            // request already buffered is still served and flushed
            // before the connection closes (see `Conn::drained`).
            conn.eof = true;
        }
        self.parse_frames(token, conn, now);
    }

    /// Decodes and serves the complete frames buffered on `conn` until
    /// the input, the pipeline bound or the round budget runs out —
    /// enforcing the queue bound and the wire error policy on the way —
    /// then flushes whatever replies that queued, once.
    ///
    /// A connection still holding replies from an earlier flush attempt
    /// is left alone (write-side backpressure, see `conn`): the
    /// `POLLOUT` arm comes back here when they have drained.
    fn parse_frames(&self, token: u64, conn: &mut Conn, now: Instant) {
        if conn.wants_write() {
            // Not a backlog the next round could work on either.
            conn.backlog = false;
            return;
        }
        let mut out_of_budget = false;
        while conn.phase == ConnPhase::Open && conn.inflight < self.max_pipeline {
            out_of_budget = conn.round_spent >= ROUND_BUDGET;
            if out_of_budget {
                break;
            }
            let frame = match conn.next_frame(now) {
                Ok(Some(payload)) => decode_frame(payload),
                Ok(None) => break,
                // Framing poisoned; the reply is owed to the connection.
                Err(e) => Err((CONNECTION_REQUEST_ID, e)),
            };
            conn.round_spent += 1;
            match frame {
                Ok((request_id, request)) => self.serve(token, conn, request_id, request),
                Err((reply_to, e)) => {
                    // Typed reply; the connection keeps serving when
                    // the frame boundary is still trustworthy, and
                    // drains when it is not.
                    self.state.wire_errors.fetch_add(1, Ordering::Relaxed);
                    conn.queue_reply(&wire_error_reply(&e).encode(reply_to));
                    if !e.is_recoverable() {
                        conn.phase = ConnPhase::Draining;
                    }
                }
            }
        }
        if !conn.flush() {
            conn.phase = ConnPhase::Closed;
        }
        conn.backlog = out_of_budget && !conn.wants_write() && conn.has_parseable_input();
    }

    /// Serves one decoded request: shed at the queue bound, answered
    /// here if [`ServerState::handle_inline`] takes it, or handed to a
    /// worker.
    fn serve(&self, token: u64, conn: &mut Conn, request_id: u64, request: Request) {
        // Decoded requests are counted whether they are then admitted
        // or shed, so `requests` always equals `requests_admitted +
        // shed_queue` at quiescence.
        self.state.requests.fetch_add(1, Ordering::Relaxed);
        self.state.per_reactor[self.index]
            .requests
            .fetch_add(1, Ordering::Relaxed);
        if !self.state.try_admit() {
            // Queue bound (global, across every reactor): shed instead
            // of queueing unboundedly.
            self.state.shed_queue.fetch_add(1, Ordering::Relaxed);
            let reply = Response::error(
                ErrorCode::Overloaded,
                format!("request queue at its {} bound", self.state.max_inflight()),
            );
            conn.queue_reply(&reply.encode(request_id));
            return;
        }
        match self.state.handle_inline(&request, request_id) {
            Some(reply) => {
                self.state.release_inflight();
                conn.queue_reply(&reply);
                if let Request::SampleBatch(_, _, k) = request {
                    conn.round_spent += k;
                }
            }
            None => {
                conn.inflight += 1;
                // The receiver outlives the loop (workers hold it);
                // send cannot fail until shutdown, where replies are
                // moot anyway.
                let _ = self.jobs_tx.send(Job {
                    reactor: self.index,
                    token,
                    request_id,
                    request,
                });
            }
        }
    }
}

/// Decodes one frame payload, reading its header once. On failure, also
/// says which request id the typed error goes to: the frame's own when
/// the header was readable, the connection's otherwise.
fn decode_frame(payload: &[u8]) -> Result<(u64, Request), (u64, WireError)> {
    let (opcode, request_id) =
        wire::decode_header(payload).map_err(|e| (CONNECTION_REQUEST_ID, e))?;
    let request = Request::decode_body(opcode, payload).map_err(|e| (request_id, e))?;
    Ok((request_id, request))
}

/// One thread-per-core event loop. See the module docs for how it
/// relates to its siblings.
pub(crate) struct Reactor {
    /// Read end of this reactor's inbox socketpair.
    wake_rx: UnixStream,
    /// Every reactor's inbox, this one's at `intake.index`: reactor 0
    /// deals connections into the others, and shutdown wakes them all.
    inboxes: Arc<[Inbox]>,
    /// Reactor 0's listener; `None` on every other reactor.
    listener: Option<Listener>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    intake: Intake,
    shutdown: Arc<AtomicBool>,
    frame_timeout: Duration,
    /// Time source for the slow-loris deadlines — `Instant::now` in
    /// production, a stepping fake in the deadline regression tests.
    clock: fn() -> Instant,
}

impl Reactor {
    /// Reactor `intake.index`, polling `wake_rx` (the read end of its
    /// inbox's socketpair) and, when given one, the listener.
    pub(crate) fn new(
        intake: Intake,
        inboxes: Arc<[Inbox]>,
        wake_rx: UnixStream,
        listener: Option<TcpListener>,
        shutdown: Arc<AtomicBool>,
        frame_timeout: Duration,
    ) -> Reactor {
        Reactor {
            wake_rx,
            inboxes,
            listener: listener.map(|socket| Listener {
                socket,
                next: 0,
                backoff: AcceptBackoff::default(),
                resume_at: None,
            }),
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            intake,
            shutdown,
            frame_timeout,
            clock: Instant::now,
        }
    }

    pub(crate) fn run(mut self) {
        let mut poller = Poller::new();
        let mut poll_errors: u32 = 0;
        while !self.shutdown.load(Ordering::SeqCst) {
            match self.turn(&mut poller) {
                Ok(()) => poll_errors = 0,
                Err(e) => {
                    poll_errors += 1;
                    if poll_errors >= MAX_POLL_ERRORS {
                        eprintln!(
                            "plansample-serve: poll(2) failed {poll_errors} times in a row \
                             ({e}); shutting down"
                        );
                        shut_down(&self.shutdown, &self.inboxes);
                        break;
                    }
                    std::thread::sleep(POLL_ERROR_BACKOFF);
                }
            }
        }
        // The connections end with the loop, through the one path that
        // keeps `connections_open` true. Dropping the job sender with
        // the reactor lets the workers exit once every reactor has.
        self.close_where(|_| true);
    }

    /// This reactor's own inbox.
    fn inbox(&self) -> &Inbox {
        &self.inboxes[self.intake.index]
    }

    /// One round of the loop: take in what other threads left (dealt
    /// connections, finished replies), poll, and serve every ready
    /// connection — read, parse, answer or hand off, write — within its
    /// budget; on reactor 0, accept and deal what the listener has.
    /// Fails only when `poll(2)` does.
    fn turn(&mut self, poller: &mut Poller) -> io::Result<()> {
        self.adopt_dealt();
        self.drain_completions();
        self.reap();

        // A new round: every connection gets a fresh budget, and one
        // that ran out of the last with frames left over is owed a turn
        // whether or not its socket has news.
        poller.clear();
        poller.register(self.wake_rx.as_raw_fd(), TOKEN_WAKER, Interest::READ);
        if let Some(listener) = &mut self.listener {
            // After a failed accept the listener sits out until its
            // backoff ends.
            if listener.resume_at.is_none_or(|at| (self.clock)() >= at) {
                listener.resume_at = None;
                poller.register(listener.socket.as_raw_fd(), TOKEN_LISTENER, Interest::READ);
            }
        }
        let mut backlog = false;
        for (&token, conn) in &mut self.conns {
            conn.round_spent = 0;
            backlog |= conn.backlog;
            poller.register(
                conn.stream().as_raw_fd(),
                token,
                Interest {
                    readable: conn.wants_read(self.intake.max_pipeline),
                    writable: conn.wants_write(),
                },
            );
        }
        let timeout = if backlog {
            Some(Duration::ZERO)
        } else {
            self.nearest_deadline()
                .map(|deadline| deadline.saturating_duration_since((self.clock)()))
        };

        let events = poller.wait(timeout)?;
        let now = (self.clock)();
        for &event in events {
            if event.token == TOKEN_WAKER {
                drain_wake_pipe(&mut self.wake_rx);
                continue;
            }
            if event.token == TOKEN_LISTENER {
                self.accept_burst(now);
                continue;
            }
            let Some(conn) = self.conns.get_mut(&event.token) else {
                continue;
            };
            if event.error || (event.writable && !conn.flush()) {
                conn.phase = ConnPhase::Closed;
            } else if event.readable {
                self.intake.read_ready(event.token, conn, now);
            } else if event.writable {
                // The peer took the replies that were holding this
                // connection back: parsing resumes here.
                self.intake.parse_frames(event.token, conn, now);
            }
        }
        if backlog {
            for (&token, conn) in &mut self.conns {
                if conn.backlog {
                    self.intake.parse_frames(token, conn, now);
                }
            }
        }
        self.enforce_frame_deadlines(now);
        Ok(())
    }

    /// Reactor 0's listener is readable: accepts until `WouldBlock`,
    /// dealing connection `i` to reactor `i mod n` — adopted here when
    /// that is this reactor, posted to the target's inbox otherwise. A
    /// failed `accept(2)` takes the listener out of the poll set until
    /// a backoff deadline, or shuts the server down when failures
    /// persist.
    fn accept_burst(&mut self, now: Instant) {
        let Some(listener) = &mut self.listener else {
            return;
        };
        let mut own = Vec::new();
        loop {
            match listener.socket.accept() {
                Ok((stream, _)) => {
                    listener.backoff.on_success();
                    let to = listener.next % self.inboxes.len();
                    listener.next = listener.next.wrapping_add(1);
                    if to == self.intake.index {
                        own.push(stream);
                    } else {
                        self.inboxes[to].deliver(stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.intake
                        .state
                        .accept_errors
                        .fetch_add(1, Ordering::Relaxed);
                    match listener.backoff.on_error() {
                        AcceptVerdict::Backoff => {
                            listener.resume_at = Some(now + ACCEPT_ERROR_BACKOFF);
                        }
                        AcceptVerdict::GiveUp => {
                            eprintln!(
                                "plansample-serve: accept(2) failed {} times in a row \
                                 ({e}); shutting down",
                                listener.backoff.consecutive
                            );
                            shut_down(&self.shutdown, &self.inboxes);
                        }
                    }
                    break;
                }
            }
        }
        for stream in own {
            self.adopt(stream);
        }
    }

    /// Adopts every connection reactor 0 dealt this reactor.
    fn adopt_dealt(&mut self) {
        let dealt = std::mem::take(&mut *self.inbox().streams.lock().expect("inbox poisoned"));
        for stream in dealt {
            self.adopt(stream);
        }
    }

    /// Takes a connection into this reactor under a fresh token. From
    /// here on the socket belongs to this reactor alone.
    fn adopt(&mut self, stream: TcpStream) {
        let Ok(conn) = Conn::new(stream) else {
            return;
        };
        let token = self.next_token;
        self.next_token += 1;
        self.conns.insert(token, conn);
        let state = &self.intake.state;
        state.connections_total.fetch_add(1, Ordering::Relaxed);
        state.connections_open.fetch_add(1, Ordering::Relaxed);
        state.per_reactor[self.intake.index]
            .connections
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Moves finished replies into their connections' write buffers.
    fn drain_completions(&mut self) {
        let done = std::mem::take(&mut *self.inbox().completions.lock().expect("inbox poisoned"));
        for completion in done {
            self.intake.state.release_inflight();
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
                conn.phase = ConnPhase::Closed;
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
            self.intake.parse_frames(completion.token, conn, now);
        }
    }

    /// Drops every connection `doomed` names. The one place a
    /// connection ends: everything else marks it `Closed` (or lets it
    /// drain) and leaves it to [`reap`](Self::reap).
    fn close_where(&mut self, doomed: impl Fn(&Conn) -> bool) {
        let before = self.conns.len();
        self.conns.retain(|_, conn| !doomed(conn));
        let closed = (before - self.conns.len()) as u64;
        if closed > 0 {
            let open = &self.intake.state.connections_open;
            open.fetch_sub(closed, Ordering::Relaxed);
        }
    }

    /// Closes connections that failed or finished draining.
    fn reap(&mut self) {
        self.close_where(|c| c.phase == ConnPhase::Closed || c.drained());
    }

    /// The earliest slow-loris deadline, or the end of an accept
    /// backoff if that comes first.
    fn nearest_deadline(&self) -> Option<Instant> {
        self.conns
            .values()
            .filter_map(|c| c.frame_deadline())
            .map(|started| started + self.frame_timeout)
            .chain(self.listener.as_ref().and_then(|l| l.resume_at))
            .min()
    }

    /// Slow-loris: closes connections whose partial frame never
    /// completed in time.
    fn enforce_frame_deadlines(&mut self, now: Instant) {
        let frame_timeout = self.frame_timeout;
        self.close_where(|c| {
            c.frame_deadline()
                .is_some_and(|started| now.saturating_duration_since(started) >= frame_timeout)
        });
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
    use crate::state::INLINE_MAX_SAMPLES;
    use crate::wire::Workload;
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

    /// A reactor no thread runs: the test plays the event loop round by
    /// round. It has no workers — whoever holds `_jobs_rx` would be one
    /// — so only what a reactor answers itself is ever answered.
    struct ByHand {
        reactor: Reactor,
        poller: Poller,
        listener: std::net::TcpListener,
        _jobs_rx: mpsc::Receiver<Job>,
    }

    impl ByHand {
        fn new(max_pipeline: usize, clock: fn() -> Instant) -> ByHand {
            let state = Arc::new(ServerState::new(
                plansample_optimizer::OptimizerConfig::default(),
                4,
                None,
                crate::state::AdmissionConfig::default(),
                1,
            ));
            let (inbox, wake_rx) = Inbox::new().unwrap();
            let (jobs_tx, jobs_rx) = mpsc::channel();
            let intake = Intake {
                index: 0,
                state,
                jobs_tx,
                max_pipeline,
            };
            let mut reactor = Reactor::new(
                intake,
                Arc::new([inbox]),
                wake_rx,
                None,
                Arc::new(AtomicBool::new(false)),
                Duration::from_secs(10),
            );
            reactor.clock = clock;
            ByHand {
                reactor,
                poller: Poller::new(),
                listener: std::net::TcpListener::bind("127.0.0.1:0").unwrap(),
                _jobs_rx: jobs_rx,
            }
        }

        /// A connected client and the server side of its connection
        /// (not yet the reactor's).
        fn connect(&self) -> (TcpStream, Conn) {
            let client = TcpStream::connect(self.listener.local_addr().unwrap()).unwrap();
            let (server_side, _) = self.listener.accept().unwrap();
            (client, Conn::new(server_side).unwrap())
        }

        /// One round of the real loop, woken up front so that `poll(2)`
        /// never blocks the test.
        fn turn(&mut self) {
            self.reactor.inbox().wake();
            self.reactor.turn(&mut self.poller).unwrap();
        }

        /// Prepares [`CHAIN4`] the way a worker would have.
        fn warm(&self) {
            let prepare = Request::Prepare(CHAIN4);
            let reply = self.reactor.intake.state.handle_encoded(&prepare, 0);
            let (_, reply) = Response::decode(&reply).unwrap();
            assert!(matches!(reply, Response::Prepared { .. }), "got {reply:?}");
        }
    }

    const CHAIN4: Workload = Workload::Synthetic {
        topology: plansample_datagen::joingraph::Topology::Chain,
        relations: 4,
        seed: 20_000,
    };

    /// The most expensive request a reactor answers itself, framed. The
    /// id (also the sampling seed) is fixed-width, so every frame is
    /// the same length and a byte count says how many were sent.
    fn maximal_inline_frame(id: u64) -> Vec<u8> {
        wire::frame(&Request::SampleBatch(CHAIN4, id, INLINE_MAX_SAMPLES).encode(id))
    }

    /// Such requests a connection gets through in one round: the one
    /// that crosses the budget is still answered.
    const MAXIMAL_PER_ROUND: u64 = (ROUND_BUDGET / (1 + INLINE_MAX_SAMPLES) + 1) as u64;

    /// Reads what has arrived on a nonblocking `client` and moves the
    /// ids of complete `Samples` replies from `buf` to `ids`.
    fn collect_replies(client: &mut TcpStream, buf: &mut Vec<u8>, ids: &mut Vec<u64>) {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match client.read(&mut chunk) {
                Ok(0) => panic!("server closed the connection"),
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("client read: {e}"),
            }
        }
        let mut consumed = 0;
        while let Some((payload, len)) = wire::split_frame(&buf[consumed..]).unwrap() {
            let (id, reply) = Response::decode(payload).unwrap();
            assert!(
                matches!(&reply, Response::Samples(plans) if plans.len() == INLINE_MAX_SAMPLES as usize),
                "got {reply:?}"
            );
            ids.push(id);
            consumed += len;
        }
        buf.drain(..consumed);
    }

    fn admitted(hand: &ByHand) -> u64 {
        hand.reactor
            .intake
            .state
            .requests_admitted
            .load(Ordering::Relaxed)
    }

    /// A pipelined burst of cheap requests gets one budget of the loop
    /// per round, not the loop until it is done: after the round that
    /// read a 64 KiB burst, exactly a budget's worth is answered and
    /// the rest stays buffered; every later round (entered without
    /// waiting) answers at most a budget's worth more; and in the end
    /// every request was answered once.
    #[test]
    fn a_pipelined_burst_is_answered_one_budget_a_round() {
        let mut hand = ByHand::new(128, Instant::now);
        hand.warm();
        let (mut client, conn) = hand.connect();
        hand.reactor.conns.insert(2, conn);
        let burst_frames = (64 << 10) / maximal_inline_frame(0).len() as u64 + 1;
        let burst: Vec<u8> = (0..burst_frames).flat_map(maximal_inline_frame).collect();
        client.write_all(&burst).unwrap();
        std::thread::sleep(Duration::from_millis(50)); // let it land
        client.set_nonblocking(true).unwrap();

        let before = admitted(&hand);
        hand.turn();
        assert_eq!(admitted(&hand) - before, MAXIMAL_PER_ROUND);
        assert!(hand.reactor.conns[&2].backlog, "the rest stays buffered");
        assert!(
            !hand.reactor.conns[&2].wants_read(128),
            "and nothing more is read on top of it"
        );

        let (mut buf, mut ids) = (Vec::new(), Vec::new());
        let deadline = Instant::now() + Duration::from_secs(60);
        while (ids.len() as u64) < burst_frames {
            assert!(Instant::now() < deadline, "{} replies", ids.len());
            let before = admitted(&hand);
            hand.turn();
            assert!(admitted(&hand) - before <= MAXIMAL_PER_ROUND);
            collect_replies(&mut client, &mut buf, &mut ids);
        }
        ids.sort_unstable();
        assert_eq!(ids, (0..burst_frames).collect::<Vec<_>>());
        assert_eq!(
            admitted(&hand) - 1,
            burst_frames,
            "the warming Prepare and the burst"
        );
        assert!(!hand.reactor.conns[&2].backlog);
    }

    /// Write-side backpressure. A peer that pipelines requests and
    /// never reads used to grow its connection's output buffer without
    /// bound (every reply made room to parse another request); now a
    /// connection holding replies its peer has not taken is neither
    /// read nor parsed, so the buffer holds one round's replies at most
    /// — and once the peer does read, every request that reached the
    /// server is answered exactly once.
    #[test]
    fn a_peer_that_does_not_read_cannot_grow_its_output_buffer() {
        /// One round's replies: at most `ROUND_BUDGET +
        /// INLINE_MAX_SAMPLES` plans of at most 19 nodes (ten
        /// relations) at 12 + 8·19 bytes each, 26 KB; generously.
        const UNSENT_BOUND: usize = 64 << 10;
        /// Rounds to keep pipelining after the server first could not
        /// send: unbounded, the buffer would gain a round's replies
        /// (~9 KB here) in each.
        const STALLED_ROUNDS: usize = 32;

        let mut hand = ByHand::new(128, Instant::now);
        hand.warm();
        let (mut client, conn) = hand.connect();
        hand.reactor.conns.insert(2, conn);
        client.set_nonblocking(true).unwrap();
        let frame_len = maximal_inline_frame(0).len();

        // Pipeline a round's worth of requests per round, reading
        // nothing, until the server has been unable to send for a while.
        let (mut next_id, mut written, mut pending) = (0u64, 0usize, Vec::new());
        let (mut stalled, mut max_unsent) = (0, 0);
        let deadline = Instant::now() + Duration::from_secs(60);
        while stalled < STALLED_ROUNDS {
            assert!(
                Instant::now() < deadline,
                "the reply direction never filled"
            );
            for _ in 0..MAXIMAL_PER_ROUND {
                pending.extend(maximal_inline_frame(next_id));
                next_id += 1;
            }
            match client.write(&pending) {
                Ok(n) => {
                    pending.drain(..n);
                    written += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("client write: {e}"),
            }
            hand.turn();
            let unsent = hand.reactor.conns[&2].unsent_bytes();
            max_unsent = max_unsent.max(unsent);
            stalled += usize::from(unsent > 0);
        }
        assert!(
            max_unsent <= UNSENT_BOUND,
            "{max_unsent} reply bytes were queued for a peer that reads nothing"
        );

        // Now read everything (first completing the frame the last
        // write may have cut): each request sent is answered once.
        let mut tail = pending[..(frame_len - written % frame_len) % frame_len].to_vec();
        let sent = ((written + tail.len()) / frame_len) as u64;
        let (mut buf, mut ids) = (Vec::new(), Vec::new());
        let deadline = Instant::now() + Duration::from_secs(60);
        while (ids.len() as u64) < sent {
            assert!(Instant::now() < deadline, "{} of {sent} replies", ids.len());
            if !tail.is_empty() {
                match client.write(&tail) {
                    Ok(n) => drop(tail.drain(..n)),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => panic!("client write: {e}"),
                }
            }
            collect_replies(&mut client, &mut buf, &mut ids);
            hand.turn();
        }
        ids.sort_unstable();
        assert_eq!(ids, (0..sent).collect::<Vec<_>>());
        assert_eq!(hand.reactor.conns[&2].unsent_bytes(), 0);
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
        let mut hand = ByHand::new(1, stepping_clock);
        let setup = |token: u64, hand: &mut ByHand| -> TcpStream {
            let (mut client, mut conn) = hand.connect();
            let reactor = &mut hand.reactor;
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
                                                           // Pipeline bound already reached: `read_ready` buffers the
                                                           // bytes but parses nothing, arming no deadline yet.
            conn.inflight = 1;
            reactor.intake.read_ready(token, &mut conn, Instant::now());
            reactor.conns.insert(token, conn);
            assert!(
                reactor.conns[&token].frame_deadline().is_none(),
                "setup must leave the deadline unarmed"
            );
            client // hold the peer open for the caller
        };

        let _clients = (setup(2, &mut hand), setup(3, &mut hand));
        let reactor = &mut hand.reactor;
        let state = Arc::clone(&reactor.intake.state);

        // Both requests were admitted before their replies completed.
        assert!(state.try_admit());
        assert!(state.try_admit());
        let reply = Response::error(ErrorCode::BadRequest, "x").encode(7);
        reactor
            .inbox()
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
