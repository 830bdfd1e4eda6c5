//! The per-connection state machine.
//!
//! Each connection owns a nonblocking [`TcpStream`], an input buffer
//! accumulating partially-received frames, and an output buffer holding
//! partially-sent replies. The event loop drives it with three calls:
//! [`Conn::fill`] (drain readable bytes), [`Conn::flush`] (push
//! writable bytes), and the deadline probe [`Conn::frame_deadline`].
//! The connection itself performs no protocol work beyond framing —
//! decoding and execution happen in the event loop and the workers
//! — so its invariants stay small:
//!
//! * reply order per connection is *not* required — each frame carries
//!   its request id, so clients match replies by id, and the buffer
//!   simply appends frames as they complete;
//! * a connection with [`ConnPhase::Draining`] set has a poisoned input
//!   stream (fatal wire error): its remaining output flushes, then it
//!   closes — input is discarded;
//! * slow-loris defense: [`Conn::frame_deadline`] reports when the
//!   currently-buffered *partial* frame started; trickling one byte at
//!   a time never resets it, so the event loop can close any connection
//!   whose frame has been incomplete longer than the configured window.
//!   Complete frames merely waiting for a pipeline slot are not a
//!   trickle and never arm the deadline;
//! * half-close ([`Conn::eof`]) stops reads but is not a fault: every
//!   request already buffered is still parsed (as pipeline slots free
//!   up), answered, and flushed before the connection closes;
//! * write-side backpressure: a connection whose peer is not taking its
//!   replies (unsent bytes left after a flush attempt) is neither read
//!   nor parsed until they drain ([`Conn::wants_read`]), so the output
//!   buffer holds at most what one parse round and the requests already
//!   in flight produce, however much the peer pipelines. A client that
//!   pipelines more than the socket buffers hold must therefore read
//!   while it writes — the usual contract of a pipelined protocol.
//!
//! Input is consumed through a read cursor: a frame is decoded from a
//! slice borrowed out of the buffer, and the consumed prefix is dropped
//! once per [`Conn::fill`], not once per frame.

use crate::wire;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Cap on bytes drained per readable event, so one firehose connection
/// cannot starve the rest of the loop.
const READ_CHUNK: usize = 64 * 1024;

/// Bytes asked of the socket per `read(2)`.
const READ_BUF: usize = 4096;

/// Lifecycle of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnPhase {
    /// Reading requests and writing replies (a half-close is tracked
    /// separately by [`Conn::eof`] — buffered input is still served).
    Open,
    /// Input is poisoned by a fatal wire error: flush output, then
    /// close — remaining input is discarded.
    Draining,
    /// To be dropped by the event loop.
    Closed,
}

/// One client connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    /// Input read so far; `rbuf[rpos..]` is the part not yet parsed.
    rbuf: Vec<u8>,
    /// Read cursor into `rbuf`: everything before it has been consumed.
    rpos: usize,
    /// Encoded reply frames not yet fully written.
    wbuf: Vec<u8>,
    /// Bytes of `wbuf` already written.
    wpos: usize,
    /// When the partial frame at the head of the unparsed input
    /// started arriving.
    frame_started: Option<Instant>,
    /// Requests handed to the workers, not yet answered.
    pub inflight: usize,
    /// Units of the event loop's per-round budget this connection has
    /// used since the loop last polled (the reactor's bookkeeping).
    pub round_spent: u32,
    /// The parse loop stopped at that budget with input it could still
    /// act on: the reactor comes back next round without waiting.
    pub backlog: bool,
    /// Lifecycle phase.
    pub phase: ConnPhase,
    /// The peer half-closed (or the read side errored): no more input
    /// arrives, but buffered requests are still served and replies
    /// still flush before the connection closes.
    pub eof: bool,
}

impl Conn {
    /// Wraps an accepted stream (made nonblocking here).
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            frame_started: None,
            inflight: 0,
            round_spent: 0,
            backlog: false,
            phase: ConnPhase::Open,
            eof: false,
        })
    }

    /// The underlying stream (for fd registration).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Reply bytes queued but not yet written to the socket.
    pub fn unsent_bytes(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Whether unsent reply bytes remain.
    pub fn wants_write(&self) -> bool {
        self.unsent_bytes() > 0
    }

    /// Whether the loop should poll this connection for input: open,
    /// not so far ahead of the workers that parsing more would queue
    /// unboundedly (`max_pipeline` bounds decoded-but-unanswered
    /// requests per connection), not holding replies its peer has yet
    /// to take, and not holding input the loop has yet to parse (TCP
    /// backpressure does the rest).
    pub fn wants_read(&self, max_pipeline: usize) -> bool {
        self.phase == ConnPhase::Open
            && !self.eof
            && self.inflight < max_pipeline
            && !self.wants_write()
            && !self.backlog
    }

    /// Deadline for the currently-incomplete frame, if one is pending.
    pub fn frame_deadline(&self) -> Option<Instant> {
        self.frame_started
    }

    /// Queues one encoded payload as a frame on the write buffer.
    pub fn queue_reply(&mut self, payload: &[u8]) {
        // Every reply the server produces is bounded by construction
        // (sample batches capped, error messages clamped); a violation
        // here would make the client reject the server's own frame.
        debug_assert!(
            payload.len() <= wire::MAX_FRAME_LEN as usize,
            "reply payload of {} bytes exceeds MAX_FRAME_LEN",
            payload.len()
        );
        // Compact the buffer opportunistically once everything queued
        // before has been flushed.
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        self.wbuf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.wbuf.extend_from_slice(payload);
    }

    /// Reads until a short read, `WouldBlock`, EOF, or the per-event
    /// cap, appending to the input buffer (after dropping the prefix
    /// the parse loop has consumed since the last fill). A read that
    /// returns fewer bytes than it had room for emptied the socket's
    /// receive queue, so asking again would only buy an `EAGAIN`:
    /// `poll(2)` is level-triggered and reports whatever arrives later.
    /// Returns `false` when the connection reached EOF or errored (the
    /// caller transitions the phase).
    pub fn fill(&mut self) -> bool {
        self.rbuf.drain(..self.rpos);
        self.rpos = 0;
        let mut chunk = [0u8; READ_BUF];
        let mut read_total = 0;
        loop {
            if read_total >= READ_CHUNK {
                return true; // come back next tick
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return false,
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    read_total += n;
                    if n < chunk.len() {
                        return true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// The input not yet parsed.
    fn unparsed(&self) -> &[u8] {
        &self.rbuf[self.rpos..]
    }

    /// Takes the next complete frame's payload off the unparsed input,
    /// as a slice of the input buffer (valid until the next call that
    /// takes `&mut self`).
    ///
    /// `Ok(None)`: no complete frame yet (a partial frame arms the
    /// slow-loris deadline). `Err`: the stream is unrecoverable
    /// (oversized prefix) — the caller replies and drains.
    pub fn next_frame(&mut self, now: Instant) -> Result<Option<&[u8]>, wire::WireError> {
        if self.rpos == self.rbuf.len() {
            // Everything consumed: reset in O(1), so a connection with
            // nothing to parse holds no dead prefix until its next fill.
            self.rbuf.clear();
            self.rpos = 0;
        }
        match wire::split_frame(self.unparsed())? {
            Some((_, consumed)) => {
                let payload = self.rpos + 4..self.rpos + consumed;
                self.rpos = payload.end;
                // Only a genuinely incomplete remainder arms the
                // slow-loris clock: complete frames left unparsed when
                // the pipeline bound stops the parse loop are not a
                // trickle, and timing them out would drop pipelined
                // requests that are merely waiting for a slot.
                self.frame_started = if self.head_is_partial() {
                    Some(now)
                } else {
                    None
                };
                Ok(Some(&self.rbuf[payload]))
            }
            None => {
                if self.unparsed().is_empty() {
                    self.frame_started = None;
                } else if self.frame_started.is_none() {
                    self.frame_started = Some(now);
                }
                Ok(None)
            }
        }
    }

    /// Whether the head of the unparsed input is a genuinely incomplete
    /// frame — as opposed to empty, complete-but-unparsed (waiting for
    /// a pipeline slot), or poisoned (the next parse raises the error).
    fn head_is_partial(&self) -> bool {
        !self.unparsed().is_empty() && matches!(wire::split_frame(self.unparsed()), Ok(None))
    }

    /// Whether the input buffer holds something the parse loop can act
    /// on right now: a complete frame, or a poisoned prefix whose typed
    /// error is still owed to the client.
    pub fn has_parseable_input(&self) -> bool {
        matches!(wire::split_frame(self.unparsed()), Ok(Some(_)) | Err(_))
    }

    /// Writes buffered replies until `WouldBlock` or the buffer drains.
    /// Returns `false` when the connection errored.
    pub fn flush(&mut self) -> bool {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return false,
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        true
    }

    /// Whether the connection has fully shut down its work: nothing
    /// left to write, nothing in flight, and — when the input side is
    /// merely half-closed rather than poisoned — nothing parseable
    /// still buffered (the half-close contract: every request received
    /// before EOF is answered).
    pub fn drained(&self) -> bool {
        let idle = !self.wants_write() && self.inflight == 0;
        match self.phase {
            ConnPhase::Draining => idle,
            ConnPhase::Open => self.eof && idle && !self.has_parseable_input(),
            ConnPhase::Closed => false, // reaped by phase, not by drained()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::{Interest, Poller};
    use crate::wire::{Request, Workload};
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    /// `fill` stops at a short read instead of reading on to `EAGAIN`;
    /// what it leaves in the socket, level-triggered `poll(2)` reports
    /// again. Bursts larger than one read, and bursts that end exactly
    /// on a read boundary (where no read is ever short), must still
    /// arrive in full and in order.
    #[test]
    fn bursts_beyond_the_read_buffer_are_read_in_full_and_parsed() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let count = |sql_len: usize| Request::Count(Workload::Sql("x".repeat(sql_len)));
        let framed = |request: &Request, id: u64| wire::frame(&request.encode(id));
        let empty = framed(&count(0), 0).len();

        for burst_len in [READ_BUF * 3 + 100, READ_BUF * 3, READ_BUF, READ_BUF - 1] {
            // Small frames, then one padded so the burst is `burst_len`.
            let mut requests: Vec<Request> = (0..7).map(|i| count(i * 50)).collect();
            let so_far: usize = (0..7).map(|i| empty + i * 50).sum();
            requests.push(count(burst_len - so_far - empty));
            let burst: Vec<u8> = requests
                .iter()
                .enumerate()
                .flat_map(|(i, r)| framed(r, i as u64))
                .collect();
            assert_eq!(burst.len(), burst_len);

            let mut client = TcpStream::connect(addr).unwrap();
            let (server_side, _) = listener.accept().unwrap();
            let mut conn = Conn::new(server_side).unwrap();
            client.write_all(&burst).unwrap();

            let mut poller = Poller::new();
            let mut parsed = Vec::new();
            while parsed.len() < requests.len() {
                poller.clear();
                poller.register(conn.stream().as_raw_fd(), 2, Interest::READ);
                let events = poller.wait(Some(Duration::from_secs(10))).unwrap();
                assert!(!events.is_empty(), "{burst_len}: poll lost unread input");
                assert!(conn.fill(), "{burst_len}: peer is still open");
                while let Some(payload) = conn.next_frame(Instant::now()).unwrap() {
                    parsed.push(Request::decode(payload).unwrap());
                }
            }
            let sent: Vec<(u64, Request)> = (0u64..).zip(requests).collect();
            assert_eq!(parsed, sent, "{burst_len}");
            assert!(conn.rbuf.is_empty());

            // Half-close after a short read is still seen as EOF.
            drop(client);
            poller.clear();
            poller.register(conn.stream().as_raw_fd(), 2, Interest::READ);
            assert!(!poller
                .wait(Some(Duration::from_secs(10)))
                .unwrap()
                .is_empty());
            assert!(!conn.fill(), "{burst_len}: EOF after the burst");
        }
    }
}
