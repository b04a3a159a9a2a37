//! The distributed protocol (message-level, on the simulator) must reach
//! the structural invariants the central topology model enforces: primary
//! regions tile the space and dual peers agree on their shared region
//! (`join_parity.rs` holds Basic engine joins to the model's exact layout).

use geogrid::core::engine::sim::SimHarness;
use geogrid::core::engine::{ClientEvent, EngineConfig, EngineMode, OwnerView};
use geogrid::core::topology::Role;
use geogrid::core::NodeId;
use geogrid::geometry::{Point, Region, Space};

fn build(mode: EngineMode, n: usize, seed: u64) -> SimHarness {
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
    let cap = |i: usize| [1.0, 10.0, 10.0, 100.0, 10.0][i % 5];
    h.bootstrap(coord(0), cap(0));
    for i in 1..n {
        h.join(coord(i), cap(i));
        h.run_for(250);
    }
    h.settle();
    h
}

fn primaries(views: &[(NodeId, OwnerView)]) -> Vec<(NodeId, Region)> {
    views
        .iter()
        .filter(|(_, v)| v.role == Role::Primary)
        .map(|(id, v)| (*id, v.region))
        .collect()
}

fn assert_tiling(views: &[(NodeId, OwnerView)]) {
    let space = Space::paper_evaluation();
    let ps = primaries(views);
    let area: f64 = ps.iter().map(|(_, r)| r.area()).sum();
    assert!(
        (area - space.bounds().area()).abs() < 1e-6,
        "primaries cover {area}"
    );
    for (i, (_, a)) in ps.iter().enumerate() {
        for (_, b) in ps.iter().skip(i + 1) {
            assert!(!a.intersects(b), "{a} overlaps {b}");
        }
    }
}

#[test]
fn dual_protocol_pairs_match() {
    let h = build(EngineMode::DualPeer, 20, 2);
    let views = h.owner_views();
    assert_eq!(views.len(), 20);
    assert_tiling(&views);
    let paired = views.iter().any(|(_, v)| v.role == Role::Secondary);
    assert!(paired, "no pairing happened");
    // Every secondary's peer is a primary over the same region, and that
    // primary names the secondary back.
    for (id, v) in &views {
        if v.role != Role::Secondary {
            continue;
        }
        let peer = v.peer.expect("secondary has a peer");
        let (_, pv) = views
            .iter()
            .find(|(pid, _)| *pid == peer.id())
            .expect("peer is alive");
        assert_eq!(pv.role, Role::Primary, "{id}'s peer is not primary");
        assert_eq!(pv.region, v.region, "{id} disagrees with its peer's region");
        assert_eq!(
            pv.peer.map(|p| p.id()),
            Some(*id),
            "peer does not acknowledge {id}"
        );
    }
}

#[test]
fn crash_storm_heals_to_full_coverage() {
    let mut h = build(EngineMode::DualPeer, 18, 3);
    // Crash a third of the primaries that have dual peers.
    let victims: Vec<NodeId> = h
        .owner_views()
        .into_iter()
        .filter(|(_, v)| v.role == Role::Primary && v.peer.is_some())
        .map(|(id, _)| id)
        .take(3)
        .collect();
    assert!(!victims.is_empty(), "no full regions formed");
    for v in &victims {
        h.crash(*v);
    }
    h.run_for(5_000); // heartbeat timeouts + promotions
    let views = h.owner_views();
    assert_tiling(&views);
    let mut events = views.iter().flat_map(|(id, _)| h.events_of(*id));
    let promoted = events.any(|e| matches!(e, ClientEvent::PromotedToPrimary { .. }));
    assert!(promoted, "no promotion observed");
}

#[test]
fn message_cost_of_a_join_is_bounded() {
    // The join protocol is a handful of messages plus neighbor updates —
    // growth must be roughly linear in N (no broadcast storms). Compare
    // non-heartbeat traffic growth between sizes.
    let traffic = |n: usize| {
        let h = build(EngineMode::Basic, n, 4);
        h.stats().sent
    };
    let small = traffic(8);
    let large = traffic(16);
    // Heartbeats dominate (quadratic-ish in run time), so just sanity
    // bound: doubling the network less than quintuples total traffic.
    assert!(
        large < small * 5,
        "traffic exploded: {small} -> {large} for 2x nodes"
    );
}
