//! The serving workloads: `serve_point_mix` (tiny replies; transport
//! and per-request workload resolution dominate) and `serve_sample_bulk`
//! (4096-plan replies; sampling, costing and encoding dominate), against
//! one running server.
//!
//! The timed op is what the server's callers (test drivers, optimizer
//! tooling) do: **closed-loop clients, one TCP connection each** (two on
//! the point mix, one on the bulk workload: [`Kind::clients`]), each
//! sending its next request when the reply to the last one has been
//! decoded and checked, against `server::start` with one reactor and
//! two workers. Set-up is starting that server and sending the first
//! `Prepare` of every warm workload over a connection. The traced pass
//! adds what the clients cannot see from outside: the same seeded stream
//! replayed through `ServerState::handle_encoded` without sockets (the
//! handler's share), one client alone (unloaded latency), and from those
//! the transport and queueing shares.
//!
//! **All of it runs on one CPU** ([`pin_to_one_cpu`]). A request crosses
//! threads four times (client → reactor → worker → reactor → client).
//! Left to the scheduler on this 2-vCPU microVM, each crossing may wake
//! an idle vCPU, which its hypervisor serves when the host gets to it:
//! of ten interleaved 10 s runs of the point mix, six did 10–13 k
//! replies/s and four 1.6–4.4 k, a 77 % spread against the 25 % at most
//! a bound may be. On one CPU a thread that blocks hands over to the
//! thread it woke, the vCPU never idles while a request is in flight,
//! and the loop measures what the program costs — every syscall, copy,
//! queue and context switch of the transport — instead of how busy the
//! host's other tenants are. What it no longer measures is the two
//! workers running in parallel; on this host that was not measurable.

use super::{check_total, finish_trace, Ctx, Metrics, Outcome};
use super::{SPEC_SEED, TOTAL_CLIQUE8};
use crate::harness::{self, RunPlan, Setups, Summary, ThreadRun};
use crate::trace::{self, Tracer};
use plansample_bignum::Nat;
use plansample_core::{PlanBatch, PlanService, PreparedQuery};
use plansample_datagen::joingraph::{JoinGraphSpec, Topology};
use plansample_optimizer::OptimizerConfig;
use plansample_serve::server::{self, ServerConfig, ServerHandle};
use plansample_serve::state::{AdmissionConfig, ServerState};
use plansample_serve::wire::{self, Request, Response, SamplesEncoder, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Replies compared byte for byte with an in-process `handle_encoded`.
const BYTE_CHECKED_REPLIES: usize = 64;
/// Plans per bulk reply (the protocol's maximum).
const BULK_BATCH: u32 = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PointMix,
    SampleBulk,
}

impl Kind {
    /// TCP generator threads = connections; the server's callers each
    /// wait for their reply. The point mix has two, so that a request
    /// meets another one in the reactor and the admission queue. The
    /// bulk workload has one: its requests are 11 ms of one worker's CPU
    /// time and the reactor is idle in between, so on the one CPU the
    /// server runs on, a second client adds no queueing to observe, only
    /// the scheduler's choice of how to slice two workers, which then
    /// decides each op's latency (11 ms run alone, 22 ms sliced evenly):
    /// with two clients the benchmark check saw the median op latency of
    /// unchanged code spread 30 % over ten runs.
    fn clients(self) -> usize {
        match self {
            Kind::PointMix => 2,
            Kind::SampleBulk => 1,
        }
    }
}

/// The benchmark's own copies of the warm TPC-H texts: one to three
/// relations, filters, aggregates.
const SQL_TEXTS: [&str; 6] = [
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

/// …and of the synthetic specs, each at most eight relations.
const SYNTH_SPECS: [(Topology, u16); 6] = [
    (Topology::Chain, 6),
    (Topology::Chain, 8),
    (Topology::Star, 6),
    (Topology::Cycle, 5),
    (Topology::Cycle, 7),
    (Topology::Clique, 5),
];

fn synthetic(topology: Topology, relations: u16) -> Workload {
    Workload::Synthetic {
        topology,
        relations,
        seed: SPEC_SEED,
    }
}

fn warm_workloads(kind: Kind) -> Vec<Workload> {
    match kind {
        Kind::PointMix => SQL_TEXTS
            .iter()
            .map(|sql| Workload::Sql(sql.to_string()))
            .chain(SYNTH_SPECS.iter().map(|&(t, n)| synthetic(t, n)))
            .collect(),
        Kind::SampleBulk => vec![synthetic(Topology::Clique, 8)],
    }
}

/// A warm workload and what set-up learned about it.
#[derive(Debug, Clone)]
struct Target {
    workload: Workload,
    total: Nat,
}

/// Request classes, for per-opcode numbers.
const CLASSES: [&str; 5] = ["count", "best", "unrank", "sample", "stats"];
/// The `state.handle` span of each class.
const HANDLE_SPANS: [&str; 5] = [
    "state.handle.count",
    "state.handle.best",
    "state.handle.unrank",
    "state.handle.sample",
    "state.handle.stats",
];

fn class_of(request: &Request) -> usize {
    match request {
        Request::Count(_) | Request::Prepare(_) => 0,
        Request::Best(_) => 1,
        Request::Unrank(..) => 2,
        Request::SampleBatch(..) => 3,
        Request::Stats => 4,
    }
}

/// One caller's request stream: a pure function of the run seed and the
/// caller's index.
struct Stream<'a> {
    kind: Kind,
    rng: StdRng,
    targets: &'a [Target],
}

impl<'a> Stream<'a> {
    fn new(kind: Kind, seed: u64, caller: usize, targets: &'a [Target]) -> Stream<'a> {
        let mix = (caller as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Stream {
            kind,
            rng: StdRng::seed_from_u64(seed ^ mix),
            targets,
        }
    }

    /// The next request and the index of the target it addresses.
    fn next(&mut self) -> (Request, usize) {
        let t = self.rng.gen_range(0..self.targets.len());
        let target = &self.targets[t];
        let workload = target.workload.clone();
        let request = match self.kind {
            Kind::SampleBulk => Request::SampleBatch(workload, self.rng.gen(), BULK_BATCH),
            // Count 30 / Best 20 / Unrank 20 / SampleBatch 25 / Stats 5.
            Kind::PointMix => match self.rng.gen_range(0..100u32) {
                0..=29 => Request::Count(workload),
                30..=49 => Request::Best(workload),
                50..=69 => {
                    Request::Unrank(workload, Nat::random_below(&mut self.rng, &target.total))
                }
                70..=94 => {
                    let k = self.rng.gen_range(1..=16u32);
                    Request::SampleBatch(workload, self.rng.gen(), k)
                }
                _ => Request::Stats,
            },
        };
        (request, t)
    }
}

/// Checks a reply against its request; returns the work it delivered.
/// Errors — `Overloaded` included — and wrong-shaped replies fail the op.
fn check_reply(
    kind: Kind,
    request: &Request,
    target: &Target,
    reply: &Response,
) -> Result<u64, String> {
    let plan_ok = |nodes: usize, cost: f64| nodes > 0 && cost.is_finite() && cost > 0.0;
    let ok = match (request, reply) {
        (_, Response::Error { code, message }) => {
            return Err(format!("{code:?} reply: {message}"));
        }
        (Request::Count(_), Response::Count(n)) => *n == target.total,
        (Request::Best(_), Response::Best(plan, cost)) => plan_ok(plan.len(), *cost),
        (Request::Unrank(..), Response::Plan(plan, cost)) => plan_ok(plan.len(), *cost),
        (Request::SampleBatch(_, _, k), Response::Samples(items)) => {
            items.len() == *k as usize && items.iter().all(|(p, c)| plan_ok(p.len(), *c))
        }
        (Request::Stats, Response::Stats(_)) => true,
        _ => false,
    };
    if !ok {
        return Err(format!(
            "reply to a {} request failed its check",
            CLASSES[class_of(request)]
        ));
    }
    Ok(match kind {
        Kind::PointMix => 1,
        Kind::SampleBulk => BULK_BATCH as u64,
    })
}

/// The benchmark's own blocking connection. It keeps the reply's raw
/// payload (for the byte-identity check) and puts a span around each
/// client step, neither of which the reference client offers.
struct Conn {
    stream: TcpStream,
    chunk: Vec<u8>,
    rbuf: Vec<u8>,
    next_id: u64,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(30))))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(Conn {
            stream,
            chunk: vec![0; 64 * 1024],
            rbuf: Vec::new(),
            next_id: 1,
        })
    }

    /// The payload of the last reply (valid until the next call).
    fn last_payload(&self) -> &[u8] {
        &self.rbuf[4..]
    }

    /// One request, one reply; each client step is a span (no-ops on
    /// a tracer that is off).
    fn call(&mut self, request: &Request, tr: &mut Tracer) -> Result<(u64, Response), String> {
        let id = self.next_id;
        self.next_id += 1;

        let open = tr.enter("client.encode");
        let framed = wire::frame(&request.encode(id));
        tr.exit(open);

        let open = tr.enter("client.write");
        let wrote = self.stream.write_all(&framed);
        tr.exit(open);
        wrote.map_err(|e| format!("write: {e}"))?;

        let open = tr.enter("client.wait");
        self.rbuf.clear();
        let waited = loop {
            match wire::split_frame(&self.rbuf) {
                Err(e) => break Err(format!("framing: {e}")),
                Ok(Some((_, consumed))) if consumed == self.rbuf.len() => break Ok(()),
                Ok(Some(_)) => break Err("bytes after the reply frame".to_string()),
                Ok(None) => match self.stream.read(&mut self.chunk) {
                    Ok(0) => break Err("server closed the connection".to_string()),
                    Ok(n) => self.rbuf.extend_from_slice(&self.chunk[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => break Err(format!("read: {e}")),
                },
            }
        };
        tr.exit(open);
        waited?;

        let open = tr.enter("client.decode");
        let decoded = Response::decode(&self.rbuf[4..]);
        tr.exit(open);
        let (got, reply) = decoded.map_err(|e| format!("reply does not decode: {e}"))?;
        if got != id {
            return Err(format!("reply for request {got}, expected {id}"));
        }
        Ok((id, reply))
    }
}

/// A running server with its warm workloads.
struct Served {
    handle: ServerHandle,
    targets: Vec<Target>,
    resident_bytes: usize,
    exprs: usize,
}

/// Starts the server and warms it the way a caller would: one `Prepare`
/// per workload over TCP.
fn setup(kind: Kind) -> Result<Served, String> {
    let handle = server::start(ServerConfig {
        reactors: 1,
        workers: 2,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server does not start: {e}"))?;
    let mut conn = Conn::connect(handle.addr())?;
    let mut served = Served {
        handle,
        targets: Vec::new(),
        resident_bytes: 0,
        exprs: 0,
    };
    for workload in warm_workloads(kind) {
        match conn
            .call(&Request::Prepare(workload.clone()), &mut Tracer::off())?
            .1
        {
            Response::Prepared {
                total,
                exprs,
                size_bytes,
                ..
            } => {
                served.resident_bytes += size_bytes as usize;
                served.exprs += exprs as usize;
                served.targets.push(Target { workload, total });
            }
            other => return Err(format!("prepare of {workload:?} answered {other:?}")),
        }
    }
    Ok(served)
}

/// A fresh state configured like `server::start` configures its own.
fn fresh_state() -> ServerState {
    let defaults = ServerConfig::default();
    ServerState::new(
        OptimizerConfig::default(),
        defaults.cache_entries,
        defaults.byte_budget,
        AdmissionConfig::default(),
        1,
    )
}

/// Run-level output checks: the pinned total, and the first replies of
/// the seeded stream, fetched over TCP, byte-identical to what a fresh
/// in-process state answers.
fn verify(kind: Kind, ctx: &Ctx, served: &Served) -> Vec<String> {
    let mut misses = Vec::new();
    if kind == Kind::SampleBulk {
        misses.extend(check_total(
            "clique-8",
            &served.targets[0].total,
            TOTAL_CLIQUE8,
        ));
    }
    let reference = fresh_state();
    let mut stream = Stream::new(kind, ctx.seed, 0, &served.targets);
    let mut conn = match Conn::connect(served.handle.addr()) {
        Ok(conn) => conn,
        Err(e) => return vec![e],
    };
    let mut checked = 0;
    while checked < BYTE_CHECKED_REPLIES {
        let (request, _) = stream.next();
        if request == Request::Stats {
            continue; // counters differ between the two states by design
        }
        checked += 1;
        match conn.call(&request, &mut Tracer::off()) {
            Ok((id, _)) => {
                if conn.last_payload() != reference.handle_encoded(&request, id).as_slice() {
                    misses.push(format!(
                        "TCP reply {checked} ({}) differs from handle_encoded on a fresh state",
                        CLASSES[class_of(&request)]
                    ));
                }
            }
            Err(e) => misses.push(format!("byte-check request {checked}: {e}")),
        }
    }
    misses
}

/// The seeded stream through the running server's state without the
/// sockets: what of a request's latency is the handler and the codec.
/// Traced pass only; never an end-to-end number.
struct Replay<'a> {
    kind: Kind,
    served: &'a Served,
    stream: Stream<'a>,
    next_id: u64,
}

impl<'a> Replay<'a> {
    fn new(kind: Kind, ctx: &Ctx, served: &'a Served) -> Replay<'a> {
        Replay {
            kind,
            served,
            stream: Stream::new(kind, ctx.seed, 0, &served.targets),
            next_id: 1,
        }
    }

    fn op(&mut self, tr: &mut Tracer) -> Result<u64, String> {
        let (request, t) = self.stream.next();
        let id = self.next_id;
        self.next_id += 1;
        let payload = tr.span("wire.request_encode", || request.encode(id));
        let (_, decoded) = tr
            .span("wire.request_decode", || Request::decode(&payload))
            .map_err(|e| format!("request does not decode: {e}"))?;
        let state = self.served.handle.state();
        let reply = tr.span(HANDLE_SPANS[class_of(&request)], || {
            state.handle_encoded(&decoded, id)
        });
        let (got, reply) = tr
            .span("wire.response_decode", || Response::decode(&reply))
            .map_err(|e| format!("reply does not decode: {e}"))?;
        if got != id {
            return Err(format!("reply for request {got}, expected {id}"));
        }
        check_reply(self.kind, &request, &self.served.targets[t], &reply)
    }
}

/// Pins the calling thread, and with it every thread spawned from now
/// on (the server's acceptor, reactor and workers, the clients, the
/// worker pool), to the lowest-numbered CPU it may run on; returns that
/// CPU. Why: see the module docs.
fn pin_to_one_cpu() -> Result<usize, String> {
    use std::os::raw::c_int;
    /// 1024 CPUs: the size of glibc's `cpu_set_t`.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
        fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    }
    let os_error = |call: &str| format!("{call}: {}", std::io::Error::last_os_error());
    let mut allowed = [0u64; WORDS];
    // SAFETY: pid 0 is the calling thread; the kernel writes at most
    // `cpusetsize` bytes into `allowed`, which is exactly that long.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return Err(os_error("sched_getaffinity"));
    }
    let word = allowed
        .iter()
        .position(|&w| w != 0)
        .ok_or("sched_getaffinity returned an empty CPU set")?;
    let bit = allowed[word].trailing_zeros() as usize;
    let mut one = [0u64; WORDS];
    one[word] = 1 << bit;
    // SAFETY: the kernel reads `cpusetsize` bytes from `one`, which is
    // exactly that long, and keeps no pointer to it.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(os_error("sched_setaffinity"));
    }
    Ok(word * 64 + bit)
}

pub fn run(kind: Kind, ctx: &Ctx) -> Result<Outcome, String> {
    let cpu = pin_to_one_cpu().map_err(|e| {
        format!("the serving workloads are timed on one CPU and cannot be pinned to one ({e})")
    })?;
    let mut out = if ctx.trace {
        run_traced(kind, ctx)
    } else {
        run_untraced(kind, ctx)
    }?;
    out.notes.push(format!(
        "server and {} client(s) pinned to CPU {cpu}",
        kind.clients()
    ));
    Ok(out)
}

fn run_untraced(kind: Kind, ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (served, setups) = harness::repeat_setup(ctx.setups, || setup(kind))?;
    out.check_failures.extend(verify(kind, ctx, &served));
    let clients = drive_tcp(kind, ctx, &served, &ctx.plan, kind.clients(), false)?;
    out.set_end_to_end(
        &summarize_clients(&clients),
        &setups,
        served.resident_bytes,
        served.exprs,
    );
    Ok(out)
}

/// What one TCP client thread brings back.
struct ClientRun {
    run: ThreadRun,
    tracer: Tracer,
    /// `(class, latency_ns)` per traced op.
    by_class: Vec<(usize, u64)>,
    reply_bytes: u64,
}

/// Drives `clients` closed-loop TCP connections through `plan`.
fn drive_tcp(
    kind: Kind,
    ctx: &Ctx,
    served: &Served,
    plan: &RunPlan,
    clients: usize,
    traced: bool,
) -> Result<Vec<ClientRun>, String> {
    let addr = served.handle.addr();
    let epoch = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || -> Result<ClientRun, String> {
                    let mut conn = Conn::connect(addr)?;
                    let mut stream = Stream::new(kind, ctx.seed, c, &served.targets);
                    let mut tr = if traced {
                        Tracer::new(epoch)
                    } else {
                        Tracer::off()
                    };
                    let mut by_class = Vec::new();
                    let mut reply_bytes = 0u64;
                    let run = harness::run_timed(plan, epoch, || {
                        let (request, t) = stream.next();
                        tr.next_op();
                        let started = traced.then(Instant::now);
                        let op = tr.enter("op");
                        let checked = conn.call(&request, &mut tr).and_then(|(_, reply)| {
                            let check = tr.enter("harness.check");
                            let work = check_reply(kind, &request, &served.targets[t], &reply);
                            tr.exit(check);
                            work
                        });
                        tr.exit(op);
                        if let Some(started) = started {
                            by_class
                                .push((class_of(&request), started.elapsed().as_nanos() as u64));
                            reply_bytes += conn.rbuf.len() as u64;
                        }
                        checked
                    })?;
                    Ok(ClientRun {
                        run,
                        tracer: tr,
                        by_class,
                        reply_bytes,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect()
    })
}

fn summarize_clients(clients: &[ClientRun]) -> Summary {
    let runs: Vec<&ThreadRun> = clients.iter().map(|c| &c.run).collect();
    harness::summarize(&runs)
}

fn run_traced(kind: Kind, ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (served, setups) = harness::repeat_setup(Setups::Once, || setup(kind))?;
    out.metrics.set("harness.cold_setup_s", setups.cold_s());
    out.check_failures.extend(verify(kind, ctx, &served));

    // The timed op — the workload's closed-loop clients — bare, then
    // with spans; then one client alone (unloaded latency), where that
    // is not the timed op itself.
    let plan = ctx.traced_plan();
    let tcp_bare = drive_tcp(kind, ctx, &served, &plan, kind.clients(), false)?;
    let stats_before = served.handle.state().stats();
    let cpu_before = harness::cpu_time_ms()?;
    let tcp_traced = drive_tcp(kind, ctx, &served, &plan, kind.clients(), true)?;
    let cpu_ms = harness::cpu_time_ms()? - cpu_before;
    let stats_after = served.handle.state().stats();
    let tcp_bare_sum = summarize_clients(&tcp_bare);
    let tcp_alone_sum = if kind.clients() == 1 {
        tcp_bare_sum.clone()
    } else {
        let alone = summarize_clients(&drive_tcp(kind, ctx, &served, &plan, 1, false)?);
        out.count(&alone);
        alone
    };
    let coverage: Vec<f64> = tcp_traced
        .iter()
        .map(|c| c.tracer.child_coverage("op"))
        .collect();
    out.set_passes(
        &tcp_bare_sum,
        &summarize_clients(&tcp_traced),
        cpu_ms,
        harness::median(&coverage),
    );

    // The same stream without the sockets.
    let mut tr = Tracer::new(Instant::now());
    let mut replay = Replay::new(kind, ctx, &served);
    let replayed = harness::run_timed(&plan.without_warmup(), Instant::now(), || {
        tr.next_op();
        replay.op(&mut tr)
    })?;
    out.count(&harness::summarize(&[&replayed]));
    let m = &mut out.metrics;

    // Tails come with the sample count that says how far into the tail
    // they can be trusted.
    let lat = &tcp_bare_sum.lat_ns;
    m.set(
        "serve.client.lat_p99_us",
        harness::percentile(lat, 0.99) / 1e3,
    );
    m.set(
        "serve.client.lat_p999_us",
        harness::percentile(lat, 0.999) / 1e3,
    );
    m.set(
        "serve.client.lat_max_us",
        harness::percentile(lat, 1.0) / 1e3,
    );
    m.set("serve.client.lat_samples", lat.len() as f64);
    m.set(
        "serve.client.lat_tail_pct",
        harness::highest_supported_percentile(lat.len()) * 100.0,
    );
    for (class, name) in [
        "serve.client.lat_p50_us.count",
        "serve.client.lat_p50_us.best",
        "serve.client.lat_p50_us.unrank",
        "serve.client.lat_p50_us.sample",
        "serve.client.lat_p50_us.stats",
    ]
    .into_iter()
    .enumerate()
    {
        let mut of_class: Vec<u64> = tcp_traced
            .iter()
            .flat_map(|c| c.by_class.iter())
            .filter(|(k, _)| *k == class)
            .map(|&(_, ns)| ns)
            .collect();
        if !of_class.is_empty() {
            of_class.sort_unstable();
            m.set(name, harness::percentile(&of_class, 0.5) / 1e3);
        }
    }
    let tcp_ops: usize = tcp_traced.iter().map(|c| c.by_class.len()).sum();
    m.set(
        "serve.client.reply_bytes_per_req",
        tcp_traced.iter().map(|c| c.reply_bytes).sum::<u64>() as f64 / tcp_ops as f64,
    );

    // The server's own counters over the traced TCP pass.
    let delta = |f: fn(&wire::StatsReply) -> u64| (f(&stats_after) - f(&stats_before)) as f64;
    m.set("serve.server.requests", delta(|s| s.requests));
    m.set("serve.server.admitted", delta(|s| s.requests_admitted));
    m.set("serve.server.shed_queue", delta(|s| s.shed_queue));
    m.set("serve.server.shed_prepare", delta(|s| s.shed_prepare));
    let (hits, misses) = (delta(|s| s.hits), delta(|s| s.misses));
    if hits + misses > 0.0 {
        m.set("serve.server.cache_hit_ratio", hits / (hits + misses));
    }
    m.set(
        "serve.server.batch_peak_bytes",
        stats_after.batch_peak_bytes as f64,
    );

    layer_micros(kind, &served, &mut tr, m)?;

    // The handler's share, from the replay's spans; transport = one
    // connection's latency minus it; queueing = what the second client
    // adds.
    let own = tr.self_times_ns();
    let mut handle_ns: Vec<u64> = HANDLE_SPANS
        .iter()
        .filter_map(|span| own.get(span))
        .flatten()
        .copied()
        .collect();
    handle_ns.sort_unstable();
    let handle_us = harness::percentile(&handle_ns, 0.5) / 1e3;
    let conn1_us = tcp_alone_sum.lat_p50_us;
    m.set("serve.state.handle_p50_us", handle_us);
    m.set("serve.conn1.lat_p50_us", conn1_us);
    m.set("serve.transport.overhead_us", conn1_us - handle_us);
    m.set("serve.queueing_us", tcp_bare_sum.lat_p50_us - conn1_us);

    let bulk_plans = BULK_BATCH as f64;
    m.set_from_spans(
        &own,
        &[
            ("serve.wire.request_encode_ns", "wire.request_encode", 1.0),
            ("serve.wire.request_decode_ns", "wire.request_decode", 1.0),
            ("serve.wire.response_encode_ns", "wire.response_encode", 1.0),
            ("serve.state.handle_us.count", HANDLE_SPANS[0], 1e3),
            ("serve.state.handle_us.best", HANDLE_SPANS[1], 1e3),
            ("serve.state.handle_us.unrank", HANDLE_SPANS[2], 1e3),
            ("serve.state.handle_us.stats", HANDLE_SPANS[4], 1e3),
            ("sql.parse_us", "sql.parse", 1e3),
            ("datagen.joingraph.build_us", "datagen.joingraph.build", 1e3),
            (
                "core.service.hit_ns",
                "core.service.hit",
                HITS_PER_SPAN as f64,
            ),
            (
                "core.sample.flat_b4096_ns_per_plan",
                "core.sample.flat_b4096",
                bulk_plans,
            ),
            (
                "core.prepared.scaled_cost_ids_ns_per_plan",
                "core.prepared.scaled_cost_ids",
                bulk_plans,
            ),
            (
                "serve.wire.samples_encode_ns_per_plan",
                "wire.samples_encode",
                bulk_plans,
            ),
        ],
    );
    m.set_from_spans(
        &own,
        &match kind {
            Kind::PointMix => [
                ("serve.state.handle_us.sample16", HANDLE_SPANS[3], 1e3),
                ("serve.wire.response_decode_ns", "wire.response_decode", 1.0),
            ],
            Kind::SampleBulk => [
                ("serve.state.handle_us.sample4096", HANDLE_SPANS[3], 1e3),
                (
                    "serve.wire.samples_decode_ns_per_plan",
                    "wire.response_decode",
                    bulk_plans,
                ),
            ],
        },
    );

    // The client steps, from the TCP clients' spans (threads 1 and 2 of
    // the trace file; thread 0 is the replay and the micro measurements).
    let mut tracers = vec![tr];
    tracers.extend(tcp_traced.into_iter().map(|c| c.tracer));
    m.set_from_spans(
        &trace::merged_self_times_ns(&tracers[1..]),
        &[
            ("serve.client.encode_us", "client.encode", 1e3),
            ("serve.client.write_us", "client.write", 1e3),
            ("serve.client.wait_us", "client.wait", 1e3),
            ("serve.client.decode_us", "client.decode", 1e3),
        ],
    );
    finish_trace(ctx, &tracers, &mut out)?;
    Ok(out)
}

/// `get_or_prepare` hits per `core.service.hit` span.
const HITS_PER_SPAN: usize = 16;
/// Spans per micro measurement.
const MICRO_REPS: usize = 15;

/// The layers under a request that the op's spans cannot separate:
/// workload resolution (point mix) and sampling / costing / encoding
/// (bulk).
fn layer_micros(
    kind: Kind,
    served: &Served,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    match kind {
        Kind::PointMix => {
            let (catalog, _) = plansample_catalog::tpch::catalog();
            let service = PlanService::new(catalog, OptimizerConfig::default(), 64);
            for _ in 0..MICRO_REPS {
                for sql in SQL_TEXTS {
                    tr.next_op();
                    let parsed = tr
                        .span("sql.parse", || {
                            plansample_sql::parse(service.catalog(), sql)
                        })
                        .map_err(|e| format!("SQL text does not parse: {e:?}"))?;
                    service
                        .get_or_prepare(&parsed.spec)
                        .map_err(|e| format!("prepare: {e}"))?;
                    tr.span("core.service.hit", || {
                        for _ in 0..HITS_PER_SPAN {
                            black_box(service.get_or_prepare(&parsed.spec).is_ok());
                        }
                    });
                }
                for (topology, relations) in SYNTH_SPECS {
                    tr.next_op();
                    tr.span("datagen.joingraph.build", || {
                        black_box(
                            JoinGraphSpec::new(topology, relations as usize, SPEC_SEED).build(),
                        )
                    });
                }
            }
            // Re-encoding replies the server sent: its encode cost.
            let mut conn = Conn::connect(served.handle.addr())?;
            let mut stream = Stream::new(kind, 0, 0, &served.targets);
            for _ in 0..BYTE_CHECKED_REPLIES {
                let (request, _) = stream.next();
                let (id, reply) = conn.call(&request, &mut Tracer::off())?;
                tr.next_op();
                black_box(tr.span("wire.response_encode", || reply.encode(id)));
            }
        }
        Kind::SampleBulk => {
            let (catalog, query) = JoinGraphSpec::new(Topology::Clique, 8, SPEC_SEED).build();
            let prepared = PreparedQuery::prepare(&catalog, &query, &OptimizerConfig::default())
                .map_err(|e| format!("clique-8 does not prepare: {e}"))?;
            let mut rng = StdRng::seed_from_u64(SPEC_SEED);
            let mut batch = PlanBatch::new();
            let k = BULK_BATCH as usize;
            prepared.sample_batch_flat(&mut rng, k, &mut batch);
            m.set(
                "core.sample.nodes_per_plan",
                batch.total_nodes() as f64 / k as f64,
            );
            let mut costs = Vec::with_capacity(k);
            for _ in 0..MICRO_REPS {
                tr.next_op();
                tr.span("core.sample.flat_b4096", || {
                    prepared.sample_batch_flat(&mut rng, k, &mut batch);
                });
                costs.clear();
                tr.span("core.prepared.scaled_cost_ids", || {
                    costs.extend(batch.iter().map(|ids| prepared.scaled_cost_ids(ids)));
                });
                let bytes = tr.span("wire.samples_encode", || {
                    let mut enc = SamplesEncoder::new(1);
                    for (ids, &cost) in batch.iter().zip(&costs) {
                        enc.push(ids.iter().map(|id| (id.group.0, id.index as u32)), cost);
                    }
                    enc.finish()
                });
                black_box(bytes);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets(kind: Kind) -> Vec<Target> {
        warm_workloads(kind)
            .into_iter()
            .map(|workload| Target {
                workload,
                total: Nat::from(1000u64),
            })
            .collect()
    }

    #[test]
    fn pinning_leaves_the_thread_and_its_children_one_cpu() {
        // In a thread of its own: the test harness's other threads keep
        // their CPUs.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("this host allows pinning");
            assert_eq!(harness::cores(), 1);
            let child = std::thread::spawn(harness::cores).join().unwrap();
            assert_eq!(child, 1, "a thread spawned after pinning inherits it");
            assert_eq!(pin_to_one_cpu(), Ok(cpu), "pinning again changes nothing");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn the_request_stream_is_a_pure_function_of_seed_and_caller() {
        let targets = targets(Kind::PointMix);
        let draw = |seed: u64, caller: usize| -> Vec<Vec<u8>> {
            let mut stream = Stream::new(Kind::PointMix, seed, caller, &targets);
            (0..500).map(|i| stream.next().0.encode(i)).collect()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(7, 1), "callers must not share a stream");
        assert_ne!(draw(7, 0), draw(8, 0), "seeds must not share a stream");
    }

    #[test]
    fn the_point_mix_holds_its_shares_and_stays_in_range() {
        let targets = targets(Kind::PointMix);
        let mut stream = Stream::new(Kind::PointMix, 20000, 0, &targets);
        let mut by_class = [0usize; 5];
        for _ in 0..20_000 {
            let (request, t) = stream.next();
            by_class[class_of(&request)] += 1;
            match &request {
                Request::Unrank(_, rank) => assert!(*rank < targets[t].total),
                Request::SampleBatch(_, _, k) => assert!((1..=16).contains(k)),
                _ => {}
            }
        }
        // Count 30 / Best 20 / Unrank 20 / SampleBatch 25 / Stats 5.
        for (got, want) in by_class.into_iter().zip([0.30, 0.20, 0.20, 0.25, 0.05]) {
            let share = got as f64 / 20_000.0;
            assert!((share - want).abs() < 0.015, "{by_class:?}");
        }
        let mut bulk = Stream::new(Kind::SampleBulk, 1, 0, &targets);
        assert!(matches!(
            bulk.next().0,
            Request::SampleBatch(_, _, BULK_BATCH)
        ));
    }

    #[test]
    fn a_reply_is_checked_against_its_request() {
        let target = &targets(Kind::PointMix)[0];
        let count = Request::Count(target.workload.clone());
        let check = |reply: Response| check_reply(Kind::PointMix, &count, target, &reply);
        assert_eq!(check(Response::Count(Nat::from(1000u64))), Ok(1));
        assert!(check(Response::Count(Nat::from(999u64))).is_err());
        assert!(check(Response::Best(vec![(0, 0)], 1.0)).is_err());
        let shed = check(Response::error(wire::ErrorCode::Overloaded, "busy"));
        assert!(shed.unwrap_err().contains("Overloaded"));

        let batch = Request::SampleBatch(target.workload.clone(), 1, 2);
        let plan = || (vec![(0u32, 0u32)], 1.5);
        assert_eq!(
            check_reply(
                Kind::SampleBulk,
                &batch,
                target,
                &Response::Samples(vec![plan(), plan()])
            ),
            Ok(BULK_BATCH as u64)
        );
        assert!(check_reply(
            Kind::PointMix,
            &batch,
            target,
            &Response::Samples(vec![plan()])
        )
        .is_err());
    }
}
