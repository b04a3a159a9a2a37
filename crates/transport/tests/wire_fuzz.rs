//! Property/fuzz tests for the wire codec.
//!
//! Three invariants a hand-rolled codec must never lose:
//! 1. decode(encode(m)) == m for every well-formed envelope;
//! 2. decode never panics on arbitrary bytes — corrupt or hostile input
//!    yields `Err`, not UB or a crash;
//! 3. a count longer than the input can hold is refused up front, so a
//!    short frame cannot make the decoder reserve a large buffer.

use geogrid_core::engine::{Message, NeighborInfo};
use geogrid_core::service::{Hlc, LocationQuery, LocationRecord, RegionStore, Subscription};
use geogrid_core::{NodeId, NodeInfo};
use geogrid_geometry::{Point, Region};
use geogrid_transport::{Envelope, WireError};
use proptest::prelude::*;

fn arb_point() -> impl Strategy<Value = Point> {
    (-1e6..1e6, -1e6..1e6).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_node_info() -> impl Strategy<Value = NodeInfo> {
    (any::<u64>(), arb_point(), 1e-3..1e6)
        .prop_map(|(id, p, cap)| NodeInfo::new(NodeId::new(id), p, cap))
}

fn arb_region() -> impl Strategy<Value = Region> {
    (-1e6..1e6, -1e6..1e6, 1e-3..1e6, 1e-3..1e6).prop_map(|(x, y, w, h)| Region::new(x, y, w, h))
}

fn arb_neighbor() -> impl Strategy<Value = NeighborInfo> {
    (
        arb_node_info(),
        proptest::option::of(arb_node_info()),
        arb_region(),
    )
        .prop_map(|(primary, secondary, region)| NeighborInfo {
            primary,
            secondary,
            region,
        })
}

fn arb_record() -> impl Strategy<Value = LocationRecord> {
    (
        any::<u64>(),
        "[a-z]{1,12}",
        arb_point(),
        proptest::collection::vec(any::<u8>(), 0..64),
        proptest::option::of(any::<u64>()),
    )
        .prop_map(|(id, topic, pos, payload, expiry)| {
            let r = LocationRecord::new(id, topic, pos, payload);
            match expiry {
                Some(t) => r.with_expiry(t),
                None => r,
            }
        })
}

fn arb_subscription() -> impl Strategy<Value = Subscription> {
    (
        any::<u64>(),
        arb_region(),
        any::<u64>(),
        any::<u64>(),
        proptest::option::of("[a-z]{1,12}"),
    )
        .prop_map(|(id, area, sub, exp, topic)| {
            let s = Subscription::new(id, area, NodeId::new(sub), exp);
            match topic {
                Some(t) => s.with_topic(t),
                None => s,
            }
        })
}

fn arb_store() -> impl Strategy<Value = Box<RegionStore>> {
    (
        proptest::collection::vec(arb_record(), 0..8),
        proptest::collection::vec(arb_subscription(), 0..8),
    )
        .prop_map(|(records, subs)| {
            let mut store = RegionStore::new();
            for s in subs {
                store.subscribe(s, 0);
            }
            for r in records {
                store.publish(r, 0);
            }
            Box::new(store)
        })
}

fn arb_query() -> impl Strategy<Value = LocationQuery> {
    (
        arb_region(),
        any::<u64>(),
        proptest::option::of("[a-z]{1,12}"),
    )
        .prop_map(|(area, issuer, topic)| {
            let q = LocationQuery::new(area, NodeId::new(issuer));
            match topic {
                Some(t) => q.with_topic(t),
                None => q,
            }
        })
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (arb_node_info(), any::<u32>())
            .prop_map(|(joiner, hops)| Message::JoinRequest { joiner, hops }),
        arb_node_info().prop_map(|joiner| Message::JoinDirected { joiner }),
        (
            arb_region(),
            arb_node_info(),
            proptest::option::of(arb_node_info()),
            proptest::collection::vec(arb_neighbor(), 0..4),
            arb_store()
        )
            .prop_map(
                |(region, primary, secondary, neighbors, store)| Message::Install {
                    region,
                    primary,
                    secondary,
                    neighbors,
                    store
                }
            ),
        arb_neighbor().prop_map(|info| Message::NeighborUpdate { info }),
        (
            arb_query(),
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<bool>()
        )
            .prop_map(|(query, qid, reply, hops, fanout)| Message::Query {
                query,
                query_id: qid,
                reply_to: NodeId::new(reply),
                hops,
                fanout
            }),
        (any::<u64>(), proptest::collection::vec(arb_record(), 0..6))
            .prop_map(|(query_id, records)| Message::QueryReply { query_id, records }),
        (arb_record(), any::<u32>()).prop_map(|(record, hops)| Message::Publish { record, hops }),
        (arb_subscription(), any::<u32>(), any::<bool>())
            .prop_map(|(sub, hops, fanout)| Message::Subscribe { sub, hops, fanout }),
        arb_record().prop_map(|record| Message::Notify { record }),
        (arb_record(), any::<u64>(), any::<u32>(), any::<u64>()).prop_map(
            |(record, physical, logical, node)| Message::Replicate {
                record,
                stamp: Hlc::new(physical, logical, node),
            }
        ),
        (arb_neighbor(), 0.0..1e9).prop_map(|(info, index)| Message::Heartbeat { info, index }),
        (arb_node_info(), 0.0..1e9, any::<bool>()).prop_map(|(requester, index, swap)| {
            Message::StealSecondaryRequest {
                requester,
                index,
                swap,
            }
        }),
        (arb_node_info(), arb_region(), any::<bool>()).prop_map(
            |(secondary, donor_region, swap)| Message::StealSecondaryGrant {
                secondary,
                donor_region,
                swap
            }
        ),
        Just(Message::StealSecondaryDeny),
        Just(Message::LeaveNotice),
        Just(Message::Detached),
        arb_region().prop_map(|region| Message::WhoOwns { region }),
        arb_neighbor().prop_map(|info| Message::OwnerIs { info }),
        (arb_point(), any::<u64>(), any::<u32>()).prop_map(|(target, reply, hops)| {
            Message::Locate {
                target,
                reply_to: NodeId::new(reply),
                hops,
            }
        }),
        (
            arb_region(),
            arb_store(),
            proptest::collection::vec(arb_neighbor(), 0..4)
        )
            .prop_map(|(region, store, neighbors)| Message::MergeRegions {
                region,
                store,
                neighbors
            }),
    ]
}

fn arb_envelope() -> impl Strategy<Value = Envelope> {
    (
        arb_node_info(),
        proptest::collection::vec((any::<u64>(), 1024u16..u16::MAX), 0..4),
        arb_message(),
    )
        .prop_map(|(sender, addrs, message)| Envelope {
            sender,
            sender_addr: "127.0.0.1:7000".parse().expect("literal"),
            addrs: addrs
                .into_iter()
                .map(|(id, port)| {
                    (
                        NodeId::new(id),
                        format!("127.0.0.1:{port}").parse().expect("valid"),
                    )
                })
                .collect(),
            message,
        })
}

fn leave_notice_envelope() -> Envelope {
    Envelope {
        sender: NodeInfo::new(NodeId::new(1), Point::new(1.0, 2.0), 10.0),
        sender_addr: "127.0.0.1:7000".parse().expect("literal"),
        addrs: Vec::new(),
        message: Message::LeaveNotice,
    }
}

/// A count that the bytes after it cannot hold is refused as a bad
/// length before anything is read or reserved, not discovered later as
/// a truncation.
#[test]
fn lying_neighbour_count_is_a_bad_length() {
    let region = Region::new(0.0, 0.0, 1.0, 1.0);
    let mut env = leave_notice_envelope();
    env.message = Message::Install {
        region,
        primary: env.sender,
        secondary: None,
        neighbors: Vec::new(),
        store: Box::new(RegionStore::new()),
    };
    // The body ends: neighbour count 4, store record count 4, store
    // subscription count 4. Claim 1,000,000 neighbours and cut the rest.
    let mut bytes = env.encode().to_vec();
    let at = bytes.len() - 12;
    bytes.truncate(at);
    bytes.extend_from_slice(&1_000_000u32.to_le_bytes());
    assert_eq!(
        Envelope::decode(&bytes),
        Err(WireError::BadLength(1_000_000))
    );
}

#[test]
fn lying_address_count_is_a_bad_length() {
    // The envelope ends: address count 4, then the unit message's tag.
    let mut bytes = leave_notice_envelope().encode().to_vec();
    let at = bytes.len() - 5;
    bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        Envelope::decode(&bytes),
        Err(WireError::BadLength(u32::MAX as usize))
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// decode(encode(env)) round-trips every message shape exactly.
    #[test]
    fn round_trip_arbitrary_envelopes(env in arb_envelope()) {
        let bytes = env.encode();
        let back = Envelope::decode(&bytes).expect("well-formed input decodes");
        prop_assert_eq!(back, env);
    }

    /// Arbitrary bytes never panic the decoder.
    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Envelope::decode(&bytes); // Err is fine; panicking is not
    }

    /// Single-byte corruption of a valid envelope never panics (it may
    /// still decode if the flipped byte lands in a payload).
    #[test]
    fn decode_survives_single_byte_corruption(
        env in arb_envelope(),
        pos_seed in any::<usize>(),
        xor in 1u8..=255
    ) {
        let mut bytes = env.encode().to_vec();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= xor;
        let _ = Envelope::decode(&bytes);
    }

    /// Truncation at any point never panics and never yields Ok.
    #[test]
    fn decode_rejects_all_truncations(env in arb_envelope(), cut_seed in any::<usize>()) {
        let bytes = env.encode();
        let cut = cut_seed % bytes.len();
        prop_assert!(Envelope::decode(&bytes[..cut]).is_err());
    }
}
