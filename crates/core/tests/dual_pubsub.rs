//! Dual-peer data paths (§2.3 — the primary "handles all the requests";
//! the secondary only replicates).
//!
//! * User requests entering through a **secondary** are handled by the
//!   primary. Reproduces a bug where a secondary covering the publish
//!   position stored the record in its local replica, so the primary (and
//!   therefore queries routed to it) never saw the data.
//! * Each executed publish reaches the secondary as one stamped
//!   `Replicate`, merged last-write-wins, and a periodic `SyncState`
//!   snapshot that it overtook does not roll it back.

use geogrid_core::engine::sim::SimHarness;
use geogrid_core::engine::{ClientEvent, EngineConfig, EngineMode, Input, Message, NodeEngine};
use geogrid_core::service::{Hlc, LocationQuery, LocationRecord, RegionStore};
use geogrid_core::topology::Role;
use geogrid_core::{NodeId, NodeInfo};
use geogrid_geometry::{Point, Region, Space};

fn harness() -> SimHarness {
    let mut h = SimHarness::new(
        Space::paper_evaluation(),
        EngineConfig {
            mode: EngineMode::DualPeer,
            ..EngineConfig::default()
        },
        5,
    );
    let coords = [
        Point::new(10.0, 10.0),
        Point::new(54.0, 10.0),
        Point::new(10.0, 54.0),
        Point::new(54.0, 54.0),
        Point::new(32.0, 32.0),
        Point::new(20.0, 40.0),
    ];
    let caps = [100.0, 10.0, 10.0, 1.0, 1000.0, 10.0];
    h.bootstrap(coords[0], caps[0]);
    for i in 1..6 {
        h.join(coords[i], caps[i]);
        h.run_for(400);
    }
    h.settle();
    h
}

#[test]
fn publish_through_secondary_reaches_queries() {
    let mut h = harness();
    // Find a secondary whose region covers the lot.
    let lot = Point::new(52.0, 52.0);
    let space = h.space();
    let via_secondary = h
        .owner_views()
        .into_iter()
        .find(|(_, v)| v.role == Role::Secondary && space.region_covers(&v.region, lot))
        .map(|(id, _)| id);
    // Publish through that secondary if one exists (the seed above makes
    // one); otherwise through any node — the assertion still must hold.
    let publisher = via_secondary.unwrap_or(NodeId::new(1));
    h.inject(
        publisher,
        Input::UserPublish {
            record: LocationRecord::new(1, "parking", lot, b"23".to_vec()),
        },
    );
    h.run_for(1_000);

    h.inject(
        NodeId::new(0),
        Input::UserQuery {
            query: LocationQuery::new(Region::new(50.0, 50.0, 4.0, 4.0), NodeId::new(0)),
        },
    );
    h.run_for(1_000);
    let got: usize = h
        .events_of(NodeId::new(0))
        .iter()
        .map(|e| match e {
            ClientEvent::QueryResults { records, .. } => records.len(),
            _ => 0,
        })
        .sum();
    assert!(got > 0, "published record never reached the query");
}

#[test]
fn replicas_receive_periodic_sync() {
    let mut h = harness();
    // Publish somewhere; after a few sync periods every secondary whose
    // region covers the record holds a replica.
    let lot = Point::new(12.0, 12.0);
    h.inject(
        NodeId::new(0),
        Input::UserPublish {
            record: LocationRecord::new(7, "traffic", lot, vec![]),
        },
    );
    h.run_for(2_000); // several 5-tick sync periods
    let space = h.space();
    for (id, v) in h.owner_views() {
        if v.role == Role::Secondary && space.region_covers(&v.region, lot) {
            assert!(
                v.records > 0,
                "secondary {id} covering the record has an empty replica"
            );
        }
    }
}

#[test]
fn secondary_holds_each_publish_one_link_delay_later() {
    let mut h = harness(); // 3,000 ms in: primaries just sent a snapshot
    let (primary, view) = h
        .owner_views()
        .into_iter()
        .find(|(_, v)| v.role == Role::Primary && v.peer.is_some())
        .expect("a full region exists");
    let secondary = view.peer.expect("filtered on a peer").id();
    // 3,150 ms: the next snapshot leaves at 3,500 ms, so only the
    // per-publish replica can reach the secondary by 3,155 ms.
    h.run_for(150);
    h.inject(
        primary,
        Input::UserPublish {
            record: LocationRecord::new(11, "traffic", view.region.center(), vec![]),
        },
    );
    let stamp_at = |h: &SimHarness, id: NodeId| {
        h.engine(id)
            .and_then(NodeEngine::store)
            .and_then(|s| s.stamp_of(11))
    };
    let stamped = stamp_at(&h, primary);
    assert!(stamped.is_some(), "the primary executed the publish");
    assert_eq!(stamp_at(&h, secondary), None);
    h.run_for(5); // one link delay
    assert_eq!(stamp_at(&h, secondary), stamped);
}

/// A node seated as secondary of the whole space under primary 1.
fn seated_secondary() -> NodeEngine {
    let space = Space::paper_evaluation();
    let me = NodeInfo::new(NodeId::new(2), Point::new(10.0, 10.0), 1.0);
    let primary = NodeInfo::new(NodeId::new(1), Point::new(20.0, 20.0), 10.0);
    let mut engine = NodeEngine::new(me, space, EngineConfig::default());
    engine.handle(
        0,
        Input::Message {
            from: primary.id(),
            message: Message::Install {
                region: space.bounds(),
                primary,
                secondary: Some(me),
                neighbors: Vec::new(),
                store: Box::new(RegionStore::new()),
            },
        },
    );
    engine
}

fn deliver(engine: &mut NodeEngine, now: u64, message: Message) {
    let effects = engine.handle(
        now,
        Input::Message {
            from: NodeId::new(1),
            message,
        },
    );
    assert!(
        effects.is_empty(),
        "a secondary answers replication with {effects:?}"
    );
}

fn held(engine: &NodeEngine, id: u64) -> Option<(Point, Hlc)> {
    let store = engine.store()?;
    Some((store.get(id)?.position(), store.stamp_of(id)?))
}

#[test]
fn replicates_delivered_newest_first_leave_the_newer_record() {
    let mut engine = seated_secondary();
    let (old_pos, new_pos) = (Point::new(1.0, 1.0), Point::new(2.0, 2.0));
    let (old_stamp, new_stamp) = (Hlc::new(10, 0, 1), Hlc::new(12, 0, 1));
    for (pos, stamp) in [(new_pos, new_stamp), (old_pos, old_stamp)] {
        let record = LocationRecord::new(5, "traffic", pos, vec![]);
        deliver(&mut engine, 20, Message::Replicate { record, stamp });
    }
    assert_eq!(held(&engine, 5), Some((new_pos, new_stamp)));
}

#[test]
fn an_overtaken_snapshot_does_not_roll_back_a_replicate() {
    let mut engine = seated_secondary();
    // The primary's snapshot, taken at tick 30 ...
    let mut snapshot = RegionStore::new();
    snapshot.set_node(1);
    snapshot.publish(
        LocationRecord::new(1, "traffic", Point::new(3.0, 3.0), vec![]),
        30,
    );
    // ... is overtaken by the replica of a publish at tick 40.
    let pos = Point::new(4.0, 4.0);
    let stamp = Hlc::new(40, 0, 1);
    let record = LocationRecord::new(2, "traffic", pos, vec![]);
    deliver(&mut engine, 41, Message::Replicate { record, stamp });
    deliver(
        &mut engine,
        42,
        Message::SyncState {
            store: Box::new(snapshot),
            neighbors: Vec::new(),
        },
    );
    assert_eq!(held(&engine, 2), Some((pos, stamp)));
    assert!(
        held(&engine, 1).is_some(),
        "the snapshot's own record landed"
    );
}
