//! Graceful departure at the protocol level (§2.3 "Node Departure"), and
//! the store hand-off at both geometry rewrites: records and
//! subscriptions go with the half a join split gives away, and with the
//! region a departing owner merges into its sibling.

use geogrid_core::engine::sim::SimHarness;
use geogrid_core::engine::{ClientEvent, EngineConfig, EngineMode, Input, OwnerView};
use geogrid_core::service::{LocationRecord, RegionStore, Subscription};
use geogrid_core::topology::Role;
use geogrid_core::NodeId;
use geogrid_geometry::{Point, Region, Space};

fn harness(mode: EngineMode, n: usize, seed: u64) -> SimHarness {
    let mut h = SimHarness::new(
        Space::paper_evaluation(),
        EngineConfig {
            mode,
            ..EngineConfig::default()
        },
        seed,
    );
    let coord = |i: usize| {
        Point::new(
            ((i as f64 + 1.0) * 0.754877666).fract() * 63.0 + 0.5,
            ((i as f64 + 1.0) * 0.569840296).fract() * 63.0 + 0.5,
        )
    };
    h.bootstrap(coord(0), 10.0);
    for i in 1..n {
        h.join(coord(i), 10.0);
        h.run_for(250);
    }
    h.settle();
    h
}

fn primary_area(h: &SimHarness) -> f64 {
    h.owner_views()
        .iter()
        .filter(|(_, v)| v.role == Role::Primary)
        .map(|(_, v)| v.region.area())
        .sum()
}

/// Record `i` sits at the centre of cell `i` of a 4×4 grid over the
/// space, off every split line.
fn record_position(i: u64) -> Point {
    Point::new(8.0 + 16.0 * (i % 4) as f64, 8.0 + 16.0 * (i / 4) as f64)
}

/// Publishes records `0..16` through node 0 and lets them land.
fn publish_grid(h: &mut SimHarness) {
    for i in 0..16 {
        let record = LocationRecord::new(i, "car", record_position(i), Vec::new());
        h.inject(NodeId::new(0), Input::UserPublish { record });
    }
    h.run_for(500);
}

/// The owners whose view and store satisfy `pick`, in node-id order.
fn owners(h: &SimHarness, pick: impl Fn(&OwnerView, &RegionStore) -> bool) -> Vec<NodeId> {
    h.owner_views()
        .into_iter()
        .filter(|(id, v)| {
            h.engine(*id)
                .and_then(|e| e.store())
                .is_some_and(|s| pick(v, s))
        })
        .map(|(id, _)| id)
        .collect()
}

#[test]
fn join_split_hands_records_to_the_covering_primary() {
    let mut h = harness(EngineMode::Basic, 1, 5);
    publish_grid(&mut h);
    let area = Region::new(8.0, 8.0, 4.0, 4.0);
    let sub = Subscription::new(100, area, NodeId::new(0), u64::MAX);
    h.inject(NodeId::new(0), Input::UserSubscribe { sub });
    h.join(Point::new(54.0, 54.0), 10.0);
    h.run_for(1_000);

    assert_eq!(h.owner_count(), 2, "the join did not split the region");
    let space = h.space();
    for i in 0..16 {
        let at = record_position(i);
        let cover = owners(&h, |v, _| space.region_covers(&v.region, at));
        let held = owners(&h, |_, s| s.get(i).is_some());
        assert_eq!(held, cover, "record {i} at {at:?}");
    }
    let overlapping = owners(&h, |v, _| v.region.intersects(&area));
    let held = owners(&h, |_, s| s.subscriptions().any(|s| s.id() == 100));
    assert_eq!(held, overlapping, "subscription over {area:?}");
}

#[test]
fn secondary_departure_leaves_region_half_full() {
    let mut h = harness(EngineMode::DualPeer, 8, 1);
    let (sec, view) = h
        .owner_views()
        .into_iter()
        .find(|(_, v)| v.role == Role::Secondary)
        .expect("a secondary exists");
    let primary = view.peer.expect("secondary has a peer").id();
    h.inject(sec, Input::Leave);
    h.run_for(1_000);
    assert!(h
        .events_of(sec)
        .iter()
        .any(|e| matches!(e, ClientEvent::Left)));
    // The primary no longer lists a peer.
    let pv = h
        .owner_views()
        .into_iter()
        .find(|(id, _)| *id == primary)
        .map(|(_, v)| v)
        .expect("primary alive");
    assert!(pv.peer.is_none(), "primary still lists the departed peer");
    assert!((primary_area(&h) - 64.0 * 64.0).abs() < 1e-6);
}

#[test]
fn primary_departure_hands_region_to_peer() {
    let mut h = harness(EngineMode::DualPeer, 8, 2);
    let (prim, view) = h
        .owner_views()
        .into_iter()
        .find(|(_, v)| v.role == Role::Primary && v.peer.is_some())
        .expect("a full region exists");
    let peer = view.peer.unwrap().id();
    let region = view.region;
    h.inject(prim, Input::Leave);
    h.run_for(1_000);
    // The old secondary now owns the same region as primary.
    let pv = h
        .owner_views()
        .into_iter()
        .find(|(id, _)| *id == peer)
        .map(|(_, v)| v)
        .expect("peer alive");
    assert_eq!(pv.role, Role::Primary);
    assert_eq!(pv.region, region);
    assert!((primary_area(&h) - 64.0 * 64.0).abs() < 1e-6);
}

#[test]
fn sole_owner_departure_merges_with_sibling() {
    // Two-node basic network: the halves are siblings, so either owner
    // can hand its region to the other.
    let mut h = harness(EngineMode::Basic, 2, 3);
    let leaver = NodeId::new(1);
    publish_grid(&mut h);
    assert_eq!(owners(&h, |_, s| s.record_count() > 0).len(), 2);
    h.inject(leaver, Input::Leave);
    h.run_for(1_000);
    let views = h.owner_views();
    // Node 0 owns the whole space again.
    let survivor = views
        .iter()
        .find(|(id, _)| *id == NodeId::new(0))
        .map(|(_, v)| v.clone())
        .expect("survivor");
    assert_eq!(survivor.region, Region::new(0.0, 0.0, 64.0, 64.0));
    // ...and every record, the leaver's included.
    assert_eq!(survivor.records, 16, "the leaver's records were lost");
    assert!(h
        .events_of(leaver)
        .iter()
        .any(|e| matches!(e, ClientEvent::Left)));
}

#[test]
fn departure_chain_keeps_coverage() {
    // Drain a basic network one node at a time; when a leave is deferred
    // (no mergeable sibling), the node stays — coverage must hold either
    // way.
    let mut h = harness(EngineMode::Basic, 8, 4);
    for i in (1..8u64).rev() {
        h.inject(NodeId::new(i), Input::Leave);
        h.run_for(1_200);
        let area = primary_area(&h);
        assert!(
            (area - 64.0 * 64.0).abs() < 1e-6,
            "coverage broken after leave of n{i}: {area}"
        );
    }
}
