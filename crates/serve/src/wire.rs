//! The length-prefixed binary wire protocol.
//!
//! Every message — request or response — travels as one *frame*:
//!
//! ```text
//! [len: u32 LE]  [payload: len bytes]
//! payload = [version: u8] [opcode: u8] [request_id: u64 LE] [body]
//! ```
//!
//! `len` counts the payload only and is bounded by [`MAX_FRAME_LEN`]; a
//! larger prefix is a protocol violation ([`WireError::Oversized`]) and
//! the connection is closed, because the stream can no longer be
//! re-synchronized cheaply. Every *other* malformed frame is
//! recoverable: the length prefix delimits it, so the server skips
//! exactly the bad frame, answers with a typed [`Response::Error`], and
//! keeps serving the connection (see `docs/DESIGN.md` §9).
//!
//! The decoder is hardened against hostile bytes: it never panics, never
//! allocates more than the frame it was handed, and rejects trailing
//! garbage after a complete body ([`WireError::Trailing`]) so a frame
//! has exactly one valid encoding. Encoding is deterministic — the same
//! value always produces the same bytes — which is what makes the
//! serving layer's determinism contract testable end to end: same
//! request bytes in, same response bytes out (sampling takes its RNG
//! seed *from the request*).

use plansample_bignum::Nat;
use plansample_datagen::joingraph::Topology;

/// Protocol version carried in every frame header. Version 3 added
/// [`StatsReply::batch_peak_bytes`]; version 2 widened [`StatsReply`]
/// with admission/accept counters and the per-reactor breakdown. Older
/// peers are rejected with a typed [`WireError::BadVersion`] reply
/// rather than misdecoded.
pub const PROTOCOL_VERSION: u8 = 3;

/// Upper bound on a frame's payload length. Large enough for any
/// response the server produces (plans are small trees; sample batches
/// are capped by [`MAX_SAMPLE_BATCH`]), small enough that a hostile
/// length prefix cannot make the server buffer unboundedly.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Upper bound on `k` in a [`Request::SampleBatch`]; keeps the response
/// under [`MAX_FRAME_LEN`] and bounds per-request work.
pub const MAX_SAMPLE_BATCH: u32 = 4096;

/// Upper bound on relations in a synthetic workload: bounds the
/// optimizer work a single `prepare` can demand.
pub const MAX_SYNTH_RELATIONS: u16 = 10;

/// Cap on the diagnostic `message` carried by [`Response::Error`].
/// Error messages can embed client-controlled text — the SQL parser's
/// diagnostic quotes the offending line — so without a cap a large
/// request that is legal under [`MAX_FRAME_LEN`] could provoke a reply
/// frame that violates it, and the client would then fail the
/// connection on the server's own reply. Server-side error replies are
/// built through [`Response::error`], which enforces this bound.
pub const MAX_ERROR_MESSAGE_LEN: usize = 4096;

/// Request id used by connection-level error replies, where the
/// offending frame's id could not be read (bad version, oversized
/// prefix). Ordinary requests may use any id; responses echo it.
pub const CONNECTION_REQUEST_ID: u64 = 0;

/// Errors raised while decoding frames or payloads. `Oversized` and
/// `BadVersion` poison the stream (the connection closes after a typed
/// reply); everything else is scoped to one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the field being read.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// The header's version byte is not [`PROTOCOL_VERSION`].
    BadVersion(u8),
    /// The header's opcode byte names no known message.
    UnknownOpcode(u8),
    /// An enum tag (workload kind, topology, error code) is out of range.
    BadTag(&'static str, u64),
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// A count field exceeds its protocol bound.
    BadCount(&'static str, u64),
    /// Bytes remain after a complete body.
    Trailing(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame payload truncated"),
            WireError::Oversized(len) => {
                write!(
                    f,
                    "length prefix {len} exceeds the {MAX_FRAME_LEN}-byte frame bound"
                )
            }
            WireError::BadVersion(v) => {
                write!(
                    f,
                    "protocol version {v} (this peer speaks {PROTOCOL_VERSION})"
                )
            }
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            WireError::BadTag(what, v) => write!(f, "invalid {what} tag {v}"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::BadCount(what, v) => {
                write!(f, "{what} count {v} exceeds the protocol bound")
            }
            WireError::Trailing(n) => write!(f, "{n} trailing byte(s) after a complete body"),
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// Whether the stream can continue after this error (the frame
    /// boundary is still trustworthy).
    pub fn is_recoverable(&self) -> bool {
        !matches!(self, WireError::Oversized(_) | WireError::BadVersion(_))
    }
}

/// What a request operates on: a SQL query against the server's TPC-H
/// catalog, or a synthetic join-graph spec the server materializes
/// deterministically (same spec, same space, on every server).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Workload {
    /// SQL text, parsed against the TPC-H catalog.
    Sql(String),
    /// A seeded synthetic join graph (see `plansample-datagen`).
    Synthetic {
        /// Join-graph shape.
        topology: Topology,
        /// Number of relations (2..=[`MAX_SYNTH_RELATIONS`]).
        relations: u16,
        /// Statistics seed.
        seed: u64,
    },
}

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Optimize + count the workload (idempotent; warms the cache).
    Prepare(Workload),
    /// The exact number of complete execution plans.
    Count(Workload),
    /// The optimizer's chosen plan and its cost.
    Best(Workload),
    /// Build plan number `rank` (0-based).
    Unrank(Workload, Nat),
    /// Draw `k` plans uniformly, from a client-supplied RNG seed.
    SampleBatch(Workload, u64, u32),
    /// Server + cache counters.
    Stats,
}

/// A plan serialized as its preorder expression-id listing
/// (`(group, index)` pairs — the same ids `plansample-cli memo` and
/// `enumerate` print).
pub type WirePlan = Vec<(u32, u32)>;

/// Typed error codes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame decoded, but the request is semantically invalid
    /// (malformed body, out-of-range rank, too-large batch, …).
    BadRequest,
    /// SQL parsing failed; the message holds the diagnostic.
    Sql,
    /// Optimization failed (e.g. disconnected join graph).
    Optimize,
    /// A plan-space operation failed (rank outside the space, …).
    Space,
    /// The server shed this request under load. Retry later; the reply
    /// is immediate and the request was *not* queued.
    Overloaded,
    /// The request frame carried an unknown opcode.
    UnknownOpcode,
    /// The request frame carried an unsupported protocol version.
    BadVersion,
    /// The request frame's length prefix exceeded the bound.
    Oversized,
}

impl ErrorCode {
    /// Every code, in wire order (tests iterate this).
    pub const ALL: [ErrorCode; 8] = [
        ErrorCode::BadRequest,
        ErrorCode::Sql,
        ErrorCode::Optimize,
        ErrorCode::Space,
        ErrorCode::Overloaded,
        ErrorCode::UnknownOpcode,
        ErrorCode::BadVersion,
        ErrorCode::Oversized,
    ];

    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::BadRequest => 0,
            ErrorCode::Sql => 1,
            ErrorCode::Optimize => 2,
            ErrorCode::Space => 3,
            ErrorCode::Overloaded => 4,
            ErrorCode::UnknownOpcode => 5,
            ErrorCode::BadVersion => 6,
            ErrorCode::Oversized => 7,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            0 => ErrorCode::BadRequest,
            1 => ErrorCode::Sql,
            2 => ErrorCode::Optimize,
            3 => ErrorCode::Space,
            4 => ErrorCode::Overloaded,
            5 => ErrorCode::UnknownOpcode,
            6 => ErrorCode::BadVersion,
            7 => ErrorCode::Oversized,
            other => return Err(WireError::BadTag("error code", other as u64)),
        })
    }
}

/// One reactor's share of the serving counters, carried inside
/// [`StatsReply::per_reactor`]. Connections are pinned to a reactor for
/// life, so summing these across reactors reproduces the global
/// `requests` and `connections_total` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Requests this reactor decoded (admitted or queue-shed).
    pub requests: u64,
    /// Connections handed to this reactor over the server's lifetime.
    pub connections: u64,
}

/// Counter snapshot carried by [`Response::Stats`]: the server's own
/// counters, the [`plansample_core::ServiceStats`] of its one artifact
/// cache (every workload's traffic), and the per-reactor breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Requests decoded by the reactors — the sum of
    /// [`StatsReply::requests_admitted`] and [`StatsReply::shed_queue`]
    /// once the server is quiescent.
    pub requests: u64,
    /// Requests that passed the queue bound and reached the execution
    /// layer.
    pub requests_admitted: u64,
    /// Requests answered `Overloaded` because the queue was full.
    pub shed_queue: u64,
    /// Requests answered `Overloaded` because preparing was inadmissible.
    pub shed_prepare: u64,
    /// Frames that failed to decode (recoverable or fatal).
    pub wire_errors: u64,
    /// `accept(2)` failures other than `WouldBlock`/`EINTR` (fd
    /// exhaustion and kin); reactor 0 leaves its listener out of the
    /// poll set for a short backoff instead of spinning on it.
    pub accept_errors: u64,
    /// Currently open connections.
    pub connections_open: u64,
    /// Connections accepted over the server's lifetime.
    pub connections_total: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses (preparations performed).
    pub misses: u64,
    /// Requests coalesced onto another request's preparation.
    pub coalesced: u64,
    /// Artifacts evicted.
    pub evictions: u64,
    /// Artifacts resident.
    pub entries: u64,
    /// Bytes resident.
    pub resident_bytes: u64,
    /// Byte budget (0 when unbounded).
    pub byte_budget: u64,
    /// First preparations in flight.
    pub inflight_prepares: u64,
    /// High-water mark of per-request sampling memory: the flat plan
    /// batch plus the reply buffer of the largest `SampleBatch` served
    /// so far. Stream encoding keeps this bounded by the reply size
    /// instead of growing with a tree per sampled plan (see
    /// `tests/serving_stats.rs`).
    pub batch_peak_bytes: u64,
    /// Per-reactor counter breakdown, indexed by reactor.
    pub per_reactor: Vec<ReactorStats>,
}

/// A server→client message. Every response echoes the request id of the
/// frame it answers ([`CONNECTION_REQUEST_ID`] for connection-level
/// errors).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Prepare`].
    Prepared {
        /// `N`: the exact plan count.
        total: Nat,
        /// Memo groups in the artifact.
        groups: u32,
        /// Physical expressions in the artifact.
        exprs: u32,
        /// Resident bytes the artifact charges.
        size_bytes: u64,
        /// Whether the artifact was already cached.
        cached: bool,
    },
    /// Answer to [`Request::Count`].
    Count(Nat),
    /// Answer to [`Request::Best`]: the optimizer's plan and its cost.
    Best(WirePlan, f64),
    /// Answer to [`Request::Unrank`]: the plan and its scaled cost.
    Plan(WirePlan, f64),
    /// Answer to [`Request::SampleBatch`]: each drawn plan with its
    /// scaled cost, in draw order.
    Samples(Vec<(WirePlan, f64)>),
    /// Answer to [`Request::Stats`].
    Stats(StatsReply),
    /// Any request that could not be served.
    Error {
        /// What failed.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Wraps a payload in its length prefix.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN as usize);
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Splits one frame off the front of `buf`.
///
/// Returns `Ok(None)` when the buffer does not yet hold a complete
/// frame, `Ok(Some((payload, consumed)))` when it does, and
/// `Err(WireError::Oversized)` when the prefix violates the bound (the
/// stream cannot be re-synchronized; close it).
pub fn split_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, WireError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized(len));
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((&buf[4..total], total)))
}

// ---------------------------------------------------------------------
// Primitive readers/writers
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(
            self.bytes(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length-prefixed count, validated against both the remaining
    /// bytes (each element needs >= `elem_bytes`) so a hostile count can
    /// never cause an oversized allocation.
    fn count(&mut self, what: &'static str, elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_bytes.max(1)) > self.remaining() {
            return Err(WireError::BadCount(what, n as u64));
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, WireError> {
        let n = self.count("string byte", 1)?;
        let bytes = self.bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn nat(&mut self) -> Result<Nat, WireError> {
        let n = self.count("limb", 8)?;
        let mut limbs = Vec::with_capacity(n);
        for _ in 0..n {
            limbs.push(self.u64()?);
        }
        Ok(Nat::from_limbs(limbs))
    }

    fn plan(&mut self) -> Result<WirePlan, WireError> {
        let n = self.count("plan node", 8)?;
        let word = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4 bytes"));
        let nodes = self.bytes(8 * n)?.chunks_exact(8);
        Ok(nodes.map(|b| (word(&b[..4]), word(&b[4..]))).collect())
    }

    fn workload(&mut self) -> Result<Workload, WireError> {
        match self.u8()? {
            0 => Ok(Workload::Sql(self.string()?)),
            1 => {
                let topology = match self.u8()? {
                    0 => Topology::Chain,
                    1 => Topology::Star,
                    2 => Topology::Cycle,
                    3 => Topology::Clique,
                    t => return Err(WireError::BadTag("topology", t as u64)),
                };
                let relations = self.u16()?;
                let seed = self.u64()?;
                Ok(Workload::Synthetic {
                    topology,
                    relations,
                    seed,
                })
            }
            t => Err(WireError::BadTag("workload", t as u64)),
        }
    }

    fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::Trailing(n)),
        }
    }
}

#[derive(Default)]
struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
    fn nat(&mut self, n: &Nat) {
        let limbs = n.limbs();
        self.u32(limbs.len() as u32);
        for &l in limbs {
            self.u64(l);
        }
    }
    fn plan(&mut self, plan: &WirePlan) {
        self.u32(plan.len() as u32);
        for &(g, i) in plan {
            self.u32(g);
            self.u32(i);
        }
    }
    fn workload(&mut self, w: &Workload) {
        match w {
            Workload::Sql(sql) => {
                self.u8(0);
                self.string(sql);
            }
            Workload::Synthetic {
                topology,
                relations,
                seed,
            } => {
                self.u8(1);
                self.u8(match topology {
                    Topology::Chain => 0,
                    Topology::Star => 1,
                    Topology::Cycle => 2,
                    Topology::Clique => 3,
                });
                self.u16(*relations);
                self.u64(*seed);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Payload encode/decode
// ---------------------------------------------------------------------

/// Bytes of a payload header: version, opcode, request id.
const HEADER_LEN: usize = 10;

fn header(opcode: u8, request_id: u64) -> Writer {
    let mut w = Writer::default();
    w.u8(PROTOCOL_VERSION);
    w.u8(opcode);
    w.u64(request_id);
    w
}

/// Reads a payload header, returning `(opcode, request_id)`.
///
/// Callers that can recover from an unknown opcode (the server) should
/// use this before the full decode: the request id is readable even
/// when the body is not.
pub fn decode_header(payload: &[u8]) -> Result<(u8, u64), WireError> {
    let mut r = Reader::new(payload);
    let version = r.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let opcode = r.u8()?;
    let request_id = r.u64()?;
    Ok((opcode, request_id))
}

impl Request {
    /// Encodes the request (header + body) as a frame payload.
    pub fn encode(&self, request_id: u64) -> Vec<u8> {
        let mut w = match self {
            Request::Prepare(wl) => {
                let mut w = header(0x01, request_id);
                w.workload(wl);
                w
            }
            Request::Count(wl) => {
                let mut w = header(0x02, request_id);
                w.workload(wl);
                w
            }
            Request::Best(wl) => {
                let mut w = header(0x03, request_id);
                w.workload(wl);
                w
            }
            Request::Unrank(wl, rank) => {
                let mut w = header(0x04, request_id);
                w.workload(wl);
                w.nat(rank);
                w
            }
            Request::SampleBatch(wl, seed, k) => {
                let mut w = header(0x05, request_id);
                w.workload(wl);
                w.u64(*seed);
                w.u32(*k);
                w
            }
            Request::Stats => header(0x06, request_id),
        };
        std::mem::take(&mut w.0)
    }

    /// Decodes a frame payload into `(request_id, request)`.
    pub fn decode(payload: &[u8]) -> Result<(u64, Self), WireError> {
        let (opcode, request_id) = decode_header(payload)?;
        Ok((request_id, Request::decode_body(opcode, payload)?))
    }

    /// Decodes the body of a payload whose header [`decode_header`] has
    /// already read as `opcode` — for the server, which needs the
    /// request id even when this fails and reads the header only once.
    pub fn decode_body(opcode: u8, payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        r.bytes(HEADER_LEN)?;
        let request = match opcode {
            0x01 => Request::Prepare(r.workload()?),
            0x02 => Request::Count(r.workload()?),
            0x03 => Request::Best(r.workload()?),
            0x04 => {
                let wl = r.workload()?;
                let rank = r.nat()?;
                Request::Unrank(wl, rank)
            }
            0x05 => {
                let wl = r.workload()?;
                let seed = r.u64()?;
                let k = r.u32()?;
                Request::SampleBatch(wl, seed, k)
            }
            0x06 => Request::Stats,
            op => return Err(WireError::UnknownOpcode(op)),
        };
        r.finish()?;
        Ok(request)
    }

    /// The workload the request names (`Stats` names none).
    pub fn workload(&self) -> Option<&Workload> {
        match self {
            Request::Prepare(wl)
            | Request::Count(wl)
            | Request::Best(wl)
            | Request::Unrank(wl, _)
            | Request::SampleBatch(wl, _, _) => Some(wl),
            Request::Stats => None,
        }
    }
}

impl Response {
    /// Builds an error reply, clamping the message to
    /// [`MAX_ERROR_MESSAGE_LEN`] (on a char boundary, marking the cut)
    /// so the encoded reply always fits [`MAX_FRAME_LEN`] no matter how
    /// much request text the diagnostic quotes.
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Response {
        const MARKER: &str = "… [truncated]";
        let mut message: String = message.into();
        if message.len() > MAX_ERROR_MESSAGE_LEN {
            let mut end = MAX_ERROR_MESSAGE_LEN - MARKER.len();
            while !message.is_char_boundary(end) {
                end -= 1;
            }
            message.truncate(end);
            message.push_str(MARKER);
        }
        Response::Error { code, message }
    }

    /// Encodes the response (header + body) as a frame payload.
    pub fn encode(&self, request_id: u64) -> Vec<u8> {
        let mut w = match self {
            Response::Prepared {
                total,
                groups,
                exprs,
                size_bytes,
                cached,
            } => {
                let mut w = header(0x81, request_id);
                w.nat(total);
                w.u32(*groups);
                w.u32(*exprs);
                w.u64(*size_bytes);
                w.u8(*cached as u8);
                w
            }
            Response::Count(n) => {
                let mut w = header(0x82, request_id);
                w.nat(n);
                w
            }
            Response::Best(plan, cost) => {
                let mut w = header(0x83, request_id);
                w.plan(plan);
                w.f64(*cost);
                w
            }
            Response::Plan(plan, cost) => {
                let mut w = header(0x84, request_id);
                w.plan(plan);
                w.f64(*cost);
                w
            }
            Response::Samples(items) => {
                let mut w = header(0x85, request_id);
                w.u32(items.len() as u32);
                for (plan, cost) in items {
                    w.plan(plan);
                    w.f64(*cost);
                }
                w
            }
            Response::Stats(s) => {
                let mut w = header(0x86, request_id);
                for v in [
                    s.requests,
                    s.requests_admitted,
                    s.shed_queue,
                    s.shed_prepare,
                    s.wire_errors,
                    s.accept_errors,
                    s.connections_open,
                    s.connections_total,
                    s.hits,
                    s.misses,
                    s.coalesced,
                    s.evictions,
                    s.entries,
                    s.resident_bytes,
                    s.byte_budget,
                    s.inflight_prepares,
                    // Three retired per-synthetic-service counters: the
                    // slots stay, zeroed, so the v3 frame keeps its
                    // layout; they go at the next version bump.
                    0,
                    0,
                    0,
                    s.batch_peak_bytes,
                ] {
                    w.u64(v);
                }
                w.u32(s.per_reactor.len() as u32);
                for r in &s.per_reactor {
                    w.u64(r.requests);
                    w.u64(r.connections);
                }
                w
            }
            Response::Error { code, message } => {
                let mut w = header(0xFF, request_id);
                w.u8(code.to_u8());
                w.string(message);
                w
            }
        };
        std::mem::take(&mut w.0)
    }

    /// Decodes a frame payload into `(request_id, response)`.
    pub fn decode(payload: &[u8]) -> Result<(u64, Self), WireError> {
        let (opcode, request_id) = decode_header(payload)?;
        let mut r = Reader::new(payload);
        r.pos = 10;
        let response = match opcode {
            0x81 => {
                let total = r.nat()?;
                let groups = r.u32()?;
                let exprs = r.u32()?;
                let size_bytes = r.u64()?;
                let cached = match r.u8()? {
                    0 => false,
                    1 => true,
                    v => return Err(WireError::BadTag("cached flag", v as u64)),
                };
                Response::Prepared {
                    total,
                    groups,
                    exprs,
                    size_bytes,
                    cached,
                }
            }
            0x82 => Response::Count(r.nat()?),
            0x83 => {
                let plan = r.plan()?;
                let cost = r.f64()?;
                Response::Best(plan, cost)
            }
            0x84 => {
                let plan = r.plan()?;
                let cost = r.f64()?;
                Response::Plan(plan, cost)
            }
            0x85 => {
                let n = r.count("sample", 12)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    let plan = r.plan()?;
                    let cost = r.f64()?;
                    items.push((plan, cost));
                }
                Response::Samples(items)
            }
            0x86 => {
                let mut s = {
                    let mut next = || r.u64();
                    StatsReply {
                        requests: next()?,
                        requests_admitted: next()?,
                        shed_queue: next()?,
                        shed_prepare: next()?,
                        wire_errors: next()?,
                        accept_errors: next()?,
                        connections_open: next()?,
                        connections_total: next()?,
                        hits: next()?,
                        misses: next()?,
                        coalesced: next()?,
                        evictions: next()?,
                        entries: next()?,
                        resident_bytes: next()?,
                        byte_budget: next()?,
                        inflight_prepares: next()?,
                        // Slots 16–18 are retired (see `encode`).
                        batch_peak_bytes: (next()?, next()?, next()?, next()?).3,
                        per_reactor: Vec::new(),
                    }
                };
                let n = r.count("reactor", 16)?;
                s.per_reactor.reserve(n);
                for _ in 0..n {
                    let requests = r.u64()?;
                    let connections = r.u64()?;
                    s.per_reactor.push(ReactorStats {
                        requests,
                        connections,
                    });
                }
                Response::Stats(s)
            }
            0xFF => {
                let code = ErrorCode::from_u8(r.u8()?)?;
                let message = r.string()?;
                Response::Error { code, message }
            }
            op => return Err(WireError::UnknownOpcode(op)),
        };
        r.finish()?;
        Ok((request_id, response))
    }
}

/// Incremental encoder for a [`Response::Samples`] payload: plans are
/// appended one at a time, each encoded straight into the reply buffer
/// from its flat ids, so serving a 4096-plan batch never materializes a
/// tree (or a `WirePlan`) per plan. [`finish`](Self::finish) patches
/// the item count and yields bytes **identical** to
/// `Response::Samples(items).encode(request_id)` for the same plans and
/// costs — asserted by `samples_encoder_matches_batch_encoding` below,
/// which is what lets the server switch paths without clients noticing.
pub struct SamplesEncoder {
    w: Writer,
    /// Offset of the u32 item count, patched at finish.
    count_pos: usize,
    count: u32,
}

impl SamplesEncoder {
    /// Starts a samples reply for `request_id`.
    pub fn new(request_id: u64) -> SamplesEncoder {
        let mut w = header(0x85, request_id);
        let count_pos = w.0.len();
        w.u32(0);
        SamplesEncoder {
            w,
            count_pos,
            count: 0,
        }
    }

    /// Makes room for `plans` more plans of `nodes` operators in all, so
    /// that pushing them does not regrow the reply: a plan is a `u32`
    /// length, 8 bytes a node and an `f64` cost.
    pub fn reserve(&mut self, plans: usize, nodes: usize) {
        self.w.0.reserve(12 * plans + 8 * nodes);
    }

    /// Appends one plan — its preorder `(group, index)` pairs — and its
    /// scaled cost.
    pub fn push(&mut self, plan: impl ExactSizeIterator<Item = (u32, u32)>, cost: f64) {
        // The plan's bytes are sized once and written in place.
        let n = plan.len();
        let at = self.w.0.len();
        self.w.0.resize(at + 12 + 8 * n, 0);
        let (len, rest) = self.w.0[at..].split_at_mut(4);
        let (nodes, tail) = rest.split_at_mut(8 * n);
        len.copy_from_slice(&(n as u32).to_le_bytes());
        for (node, (g, i)) in nodes.chunks_exact_mut(8).zip(plan) {
            node[..4].copy_from_slice(&g.to_le_bytes());
            node[4..].copy_from_slice(&i.to_le_bytes());
        }
        tail.copy_from_slice(&cost.to_bits().to_le_bytes());
        self.count += 1;
    }

    /// Bytes buffered so far (header + encoded plans) — the reply's
    /// contribution to the peak-memory counter.
    pub fn len_bytes(&self) -> usize {
        self.w.0.len()
    }

    /// Seals the payload: patches the item count and returns the frame
    /// payload.
    pub fn finish(mut self) -> Vec<u8> {
        self.w.0[self.count_pos..self.count_pos + 4].copy_from_slice(&self.count.to_le_bytes());
        std::mem::take(&mut self.w.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_encoder_matches_batch_encoding() {
        let items: Vec<(WirePlan, f64)> = vec![
            (vec![(0, 1), (2, 3), (4, 5)], 1.25),
            (vec![], 0.5),
            (vec![(9, 9)], 3.75),
        ];
        let batch = Response::Samples(items.clone()).encode(77);
        let mut enc = SamplesEncoder::new(77);
        for (plan, cost) in &items {
            enc.push(plan.iter().copied(), *cost);
        }
        assert_eq!(enc.finish(), batch, "stream path must be byte-identical");

        // Empty replies too.
        assert_eq!(
            SamplesEncoder::new(3).finish(),
            Response::Samples(Vec::new()).encode(3)
        );
    }

    #[test]
    fn request_frames_round_trip() {
        let requests = [
            Request::Prepare(Workload::Sql("SELECT * FROM nation".into())),
            Request::Count(Workload::Synthetic {
                topology: Topology::Clique,
                relations: 4,
                seed: 99,
            }),
            Request::Unrank(Workload::Sql("q".into()), Nat::from_limbs(vec![7, 9])),
            Request::SampleBatch(Workload::Sql("q".into()), 1234, 64),
            Request::Stats,
        ];
        for (id, req) in requests.iter().enumerate() {
            let payload = req.encode(id as u64 + 1);
            let framed = frame(&payload);
            let (split, consumed) = split_frame(&framed).unwrap().unwrap();
            assert_eq!(consumed, framed.len());
            let (rid, decoded) = Request::decode(split).unwrap();
            assert_eq!(rid, id as u64 + 1);
            assert_eq!(&decoded, req);
        }
    }

    #[test]
    fn split_frame_handles_partial_input() {
        let payload = Request::Stats.encode(9);
        let framed = frame(&payload);
        for cut in 0..framed.len() {
            assert_eq!(split_frame(&framed[..cut]).unwrap(), None, "cut at {cut}");
        }
        // Extra bytes after the frame are left for the next parse.
        let mut two = framed.clone();
        two.extend_from_slice(&framed);
        let (_, consumed) = split_frame(&two).unwrap().unwrap();
        assert_eq!(consumed, framed.len());
    }

    #[test]
    fn oversized_prefix_is_fatal() {
        let bad = (MAX_FRAME_LEN + 1).to_le_bytes();
        let err = split_frame(&bad).unwrap_err();
        assert_eq!(err, WireError::Oversized(MAX_FRAME_LEN + 1));
        assert!(!err.is_recoverable());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Request::Stats.encode(1);
        payload.push(0);
        assert_eq!(Request::decode(&payload), Err(WireError::Trailing(1)));
    }

    #[test]
    fn error_constructor_clamps_oversized_messages() {
        // A diagnostic quoting a ~1MiB request line must still encode
        // to a reply that fits the frame bound.
        let huge = "x".repeat(2 * MAX_FRAME_LEN as usize);
        let reply = Response::error(ErrorCode::Sql, huge);
        let payload = reply.encode(1);
        assert!(payload.len() <= MAX_FRAME_LEN as usize);
        let (_, decoded) = Response::decode(&payload).unwrap();
        match decoded {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::Sql);
                assert!(message.len() <= MAX_ERROR_MESSAGE_LEN);
                assert!(message.ends_with("[truncated]"));
            }
            other => panic!("expected Error, got {other:?}"),
        }

        // The cut lands on a char boundary even mid-multibyte-sequence.
        let multibyte = "é".repeat(MAX_ERROR_MESSAGE_LEN);
        match Response::error(ErrorCode::Sql, multibyte) {
            Response::Error { message, .. } => assert!(message.len() <= MAX_ERROR_MESSAGE_LEN),
            other => panic!("expected Error, got {other:?}"),
        }

        // Short messages pass through untouched.
        match Response::error(ErrorCode::BadRequest, "nope") {
            Response::Error { message, .. } => assert_eq!(message, "nope"),
            other => panic!("expected Error, got {other:?}"),
        }
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A string claiming u32::MAX bytes inside a 20-byte payload must
        // fail on the count check, not attempt the allocation.
        let mut w = Request::Prepare(Workload::Sql(String::new())).encode(1);
        let len = w.len();
        w[len - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Request::decode(&w),
            Err(WireError::BadCount("string byte", _))
        ));
    }
}
