//! Counter-accounting test for the serving front end, driven through a
//! forced overload: with the global inflight bound pinned to 1, a
//! pipelined burst must shed most of its requests with a typed
//! `Overloaded` reply — and the admission ledger must still balance
//! exactly: `requests` counts every decoded frame (shed or not),
//! `requests_admitted` only those that reached the execution layer, and
//! the two differ by precisely `shed_queue`. This is the regression
//! test for the undercount where queue-shed requests never reached the
//! `requests` counter at all. A second test holds `connections_open`
//! to zero once the server has stopped.

use plansample_serve::server::{self, ServerConfig};
use plansample_serve::wire::{self, ErrorCode, Request, Response};
use plansample_serve::{AdmissionConfig, Client, Workload};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A join heavy enough that its first optimization keeps the single
/// admission slot occupied while the rest of the burst decodes.
const SQL: &str = "SELECT n_name, COUNT(*) FROM supplier s, nation n, region r \
     WHERE s.s_nationkey = n.n_nationkey AND n.n_regionkey = r.r_regionkey \
     GROUP BY n.n_name";

const BURST: u64 = 8;

#[test]
fn queue_sheds_are_counted_and_the_admission_ledger_balances() {
    let handle = server::start(ServerConfig {
        reactors: 1,
        workers: 1,
        admission: AdmissionConfig {
            max_inflight: 1,
            ..AdmissionConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("server starts");

    // One raw connection writes the whole burst in a single syscall, so
    // the reactor decodes the tail of the burst while the head is still
    // occupying the one admission slot.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut burst = Vec::new();
    for id in 0..BURST {
        burst.extend_from_slice(&wire::frame(
            &Request::Count(Workload::Sql(SQL.into())).encode(id),
        ));
    }
    stream.write_all(&burst).expect("burst written");

    // Every request in the burst is answered — shed ones with a typed
    // `Overloaded`, admitted ones with the count.
    let mut counted = 0u64;
    let mut overloaded = 0u64;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    while counted + overloaded < BURST {
        if let Some((payload, consumed)) = wire::split_frame(&buf).expect("valid reply frame") {
            let (_, reply) = Response::decode(payload).expect("reply decodes");
            buf.drain(..consumed);
            match reply {
                Response::Count(total) => {
                    assert!(!total.is_zero());
                    counted += 1;
                }
                Response::Error { code, .. } => {
                    assert_eq!(code, ErrorCode::Overloaded, "only overload sheds expected");
                    overloaded += 1;
                }
                other => panic!("unexpected reply: {other:?}"),
            }
            continue;
        }
        let n = stream.read(&mut chunk).expect("read replies");
        assert!(n > 0, "server closed mid-burst");
        buf.extend_from_slice(&chunk[..n]);
    }
    assert!(counted >= 1, "at least the head of the burst is admitted");
    assert!(
        overloaded >= 1,
        "an 8-deep burst against a 1-slot queue must shed"
    );

    // All replies are in, so the counters are settled. The ledger:
    // every decoded frame is in `requests`, and it splits exactly into
    // admitted + queue-shed.
    let stats = handle.state().stats();
    assert_eq!(stats.requests, BURST, "sheds must not undercount requests");
    assert_eq!(stats.requests_admitted, counted);
    assert_eq!(stats.shed_queue, overloaded);
    assert_eq!(
        stats.requests,
        stats.requests_admitted + stats.shed_queue,
        "admission ledger out of balance: {stats:?}"
    );
    handle.stop();
}

/// Connections still open when the server stops close with it, so the
/// open-connection counter returns to zero — on every reactor.
#[test]
fn stopping_the_server_closes_its_open_connections() {
    let handle = server::start(ServerConfig {
        reactors: 2,
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server starts");
    // A round trip each proves a reactor adopted the connection; the
    // second connection is dealt to the second reactor.
    let clients: Vec<Client> = (0..2)
        .map(|_| {
            let mut client = Client::connect(handle.addr()).expect("connect");
            let reply = client.call(&Request::Stats).expect("stats reply");
            assert!(matches!(reply, Response::Stats(_)), "got {reply:?}");
            client
        })
        .collect();
    let state = std::sync::Arc::clone(handle.state());
    assert_eq!(state.stats().connections_open, 2);

    handle.stop();
    assert_eq!(state.stats().connections_open, 0, "{:?}", state.stats());
    drop(clients);
}
