//! Property tests over the wire protocol (satellite of the serving
//! front end): encoding round-trips through decoding for every request
//! and response shape, encoding is deterministic, framing inverts, and
//! — the hostile half — the decoder is *total*: arbitrary byte strings
//! never panic it, they decode or return a typed [`WireError`]. The
//! response round trip compares re-encodings rather than values so NaN
//! cost bits are covered too (`f64` travels as IEEE-754 bits).

use plansample_bignum::Nat;
use plansample_datagen::joingraph::Topology;
use plansample_serve::wire::{self, Request, Response, StatsReply, WirePlan};
use proptest::collection::vec;
use proptest::prelude::*;

/// Strings including invalid-UTF-8 fallout (the lossy conversion's
/// replacement characters exercise multi-byte encoding).
fn arb_string() -> impl Strategy<Value = String> {
    vec(any::<u8>(), 0..48).prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

fn arb_nat() -> impl Strategy<Value = Nat> {
    vec(any::<u64>(), 0..4).prop_map(Nat::from_limbs)
}

fn arb_workload() -> impl Strategy<Value = wire::Workload> {
    (0u8..2, arb_string(), 0usize..4, 2u16..12, any::<u64>()).prop_map(
        |(tag, sql, t, relations, seed)| {
            if tag == 0 {
                wire::Workload::Sql(sql)
            } else {
                wire::Workload::Synthetic {
                    topology: Topology::ALL[t],
                    relations,
                    seed,
                }
            }
        },
    )
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        0u8..6,
        arb_workload(),
        arb_nat(),
        any::<u64>(),
        any::<u32>(),
    )
        .prop_map(|(op, wl, nat, seed, k)| match op {
            0 => Request::Prepare(wl),
            1 => Request::Count(wl),
            2 => Request::Best(wl),
            3 => Request::Unrank(wl, nat),
            4 => Request::SampleBatch(wl, seed, k),
            _ => Request::Stats,
        })
}

fn arb_plan() -> impl Strategy<Value = WirePlan> {
    vec((any::<u32>(), any::<u32>()), 0..12)
}

/// Any bit pattern, NaNs and infinities included.
fn arb_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

fn arb_reactor_stats() -> impl Strategy<Value = wire::ReactorStats> {
    (any::<u64>(), any::<u64>()).prop_map(|(requests, connections)| wire::ReactorStats {
        requests,
        connections,
    })
}

fn arb_stats() -> impl Strategy<Value = StatsReply> {
    (vec(any::<u64>(), 17), vec(arb_reactor_stats(), 0..6)).prop_map(|(v, per_reactor)| {
        StatsReply {
            requests: v[0],
            requests_admitted: v[1],
            shed_queue: v[2],
            shed_prepare: v[3],
            wire_errors: v[4],
            accept_errors: v[5],
            connections_open: v[6],
            connections_total: v[7],
            hits: v[8],
            misses: v[9],
            coalesced: v[10],
            evictions: v[11],
            entries: v[12],
            resident_bytes: v[13],
            byte_budget: v[14],
            inflight_prepares: v[15],
            batch_peak_bytes: v[16],
            per_reactor,
        }
    })
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        0u8..7,
        (arb_nat(), arb_plan(), arb_f64()),
        vec((arb_plan(), arb_f64()), 0..6),
        arb_stats(),
        (any::<u32>(), any::<u64>(), any::<bool>()),
        (0u8..8, arb_string()),
    )
        .prop_map(
            |(tag, (nat, plan, cost), samples, stats, (n32, n64, flag), (code, message))| match tag
            {
                0 => Response::Prepared {
                    total: nat,
                    groups: n32,
                    exprs: n32.wrapping_add(1),
                    size_bytes: n64,
                    cached: flag,
                },
                1 => Response::Count(nat),
                2 => Response::Best(plan, cost),
                3 => Response::Plan(plan, cost),
                4 => Response::Samples(samples),
                5 => Response::Stats(stats),
                _ => Response::Error {
                    code: wire::ErrorCode::ALL[code as usize],
                    message,
                },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn request_encoding_round_trips(request in arb_request(), id in any::<u64>()) {
        let payload = request.encode(id);
        prop_assert_eq!(&payload, &request.encode(id), "encoding must be deterministic");
        let (got_id, decoded) = Request::decode(&payload).expect("own encoding decodes");
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(&decoded, &request);
        // Header probe agrees with the full decode.
        let (_, header_id) = wire::decode_header(&payload).expect("header decodes");
        prop_assert_eq!(header_id, id);
    }

    #[test]
    fn response_encoding_round_trips(response in arb_response(), id in any::<u64>()) {
        // Compare re-encodings, not values: NaN != NaN would fail a
        // value comparison even though the bytes round-trip exactly.
        let payload = response.encode(id);
        let (got_id, decoded) = Response::decode(&payload).expect("own encoding decodes");
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(decoded.encode(id), payload);
    }

    #[test]
    fn framing_inverts_and_truncation_is_detected(request in arb_request(), id in any::<u64>()) {
        let payload = request.encode(id);
        let framed = wire::frame(&payload);
        let (inner, consumed) = wire::split_frame(&framed)
            .expect("well-formed frame")
            .expect("complete frame");
        prop_assert_eq!(inner, &payload[..]);
        prop_assert_eq!(consumed, framed.len());
        // Every strict prefix is an incomplete frame, never an error:
        // partial reads must park, not poison.
        for cut in [0, 1, 3, framed.len() / 2, framed.len() - 1] {
            prop_assert_eq!(wire::split_frame(&framed[..cut]).expect("prefix is not fatal"), None);
        }
    }

    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(bytes in vec(any::<u8>(), 0..256)) {
        // Totality: any of these may return Err, none may panic. The
        // results are deliberately ignored.
        let _ = wire::split_frame(&bytes);
        let _ = wire::decode_header(&bytes);
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    #[test]
    fn decoders_never_panic_on_corrupted_valid_frames(
        request in arb_request(),
        id in any::<u64>(),
        flips in vec((any::<u16>(), any::<u8>()), 1..8),
    ) {
        // Mutations of real encodings probe deeper than raw noise: the
        // header is valid often enough to reach every body decoder.
        let mut payload = request.encode(id);
        for (pos, mask) in flips {
            let len = payload.len();
            payload[pos as usize % len] ^= mask;
        }
        let _ = Request::decode(&payload);
        let _ = Response::decode(&payload);
    }
}

/// The decoder rejects any frame whose declared length exceeds the
/// protocol bound as unrecoverable — that is the framing-poisoned case
/// the server answers and then drains.
#[test]
fn oversized_length_prefix_is_fatal() {
    let mut buf = (wire::MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
    buf.extend_from_slice(&[0u8; 16]);
    match wire::split_frame(&buf) {
        Err(e) => assert!(!e.is_recoverable(), "oversized must poison framing: {e}"),
        Ok(got) => panic!("oversized prefix accepted: {got:?}"),
    }
}
