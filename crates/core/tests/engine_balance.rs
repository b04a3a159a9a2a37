//! Message-level load-balance adaptation: the engine's workload-statistics
//! exchange and the distributed execution of mechanisms (a)/(e).
//!
//! Scenario: a weak primary's region sits under a query hot spot while a
//! neighbor region holds a strong, idle secondary. After a few statistics
//! windows the weak primary must trigger (its measured index exceeds √2×
//! the neighborhood minimum) and trade places with the strong secondary —
//! entirely through protocol messages.

use geogrid_core::engine::sim::SimHarness;
use geogrid_core::engine::{ClientEvent, EngineConfig, EngineMode, Input};
use geogrid_core::service::LocationQuery;
use geogrid_core::topology::Role;
use geogrid_core::NodeId;
use geogrid_geometry::{Point, Region, Space};

/// Builds the two-region scenario:
/// * south half: weak primary (n2, cap 2) + secondary (n0, cap 1);
/// * north half: strong primary (n1, cap 100) + strong secondary (n3, cap 100).
fn harness() -> SimHarness {
    let mut h = SimHarness::new(
        Space::paper_evaluation(),
        EngineConfig {
            mode: EngineMode::DualPeer,
            ..EngineConfig::default()
        },
        11,
    );
    h.bootstrap(Point::new(10.0, 10.0), 1.0); // n0
    h.join(Point::new(50.0, 50.0), 100.0); // n1: stronger -> primary
    h.run_for(400);
    h.join(Point::new(40.0, 20.0), 2.0); // n2: forces the split
    h.run_for(400);
    h.join(Point::new(50.0, 55.0), 100.0); // n3: fills the north half
    h.run_for(400);
    h.settle();
    h
}

/// The primary owning the south half's hot spot.
fn south_primary(h: &SimHarness) -> Option<NodeId> {
    h.owner_views()
        .into_iter()
        .find(|(_, v)| {
            v.role == Role::Primary && h.space().region_covers(&v.region, Point::new(30.0, 10.0))
        })
        .map(|(id, _)| id)
}

#[test]
fn hot_weak_primary_swaps_with_strong_remote_secondary() {
    let mut h = harness();
    // Sanity: the south half is owned by the weak node n2.
    let weak = south_primary(&h).expect("south primary exists");
    assert_eq!(weak, NodeId::new(2), "setup produced unexpected owner");

    // Drive a query hot spot into the south half through the north
    // primary (n1): every query is served by the south primary.
    let asker = NodeId::new(1);
    let hot = Point::new(30.0, 10.0);
    for _ in 0..40 {
        h.inject(
            asker,
            Input::UserQuery {
                query: LocationQuery::new(Region::new(hot.x - 0.5, hot.y - 0.5, 1.0, 1.0), asker),
            },
        );
        h.run_for(150);
    }
    h.run_for(3_000);

    // The south region's primary must now be one of the strong nodes.
    let new_primary = south_primary(&h).expect("south primary exists");
    assert_ne!(new_primary, NodeId::new(2), "weak primary never relieved");

    // Someone reported executing mechanism (a) or (e).
    let adapted = (0..4).any(|i| {
        h.events_of(NodeId::new(i)).iter().any(|e| {
            matches!(
                e,
                ClientEvent::AdaptationExecuted {
                    mechanism: 'a' | 'e'
                }
            )
        })
    });
    assert!(adapted, "no adaptation event observed");
}

#[test]
fn balance_can_be_disabled() {
    let mut h = SimHarness::new(
        Space::paper_evaluation(),
        EngineConfig {
            mode: EngineMode::DualPeer,
            balance_enabled: false,
            ..EngineConfig::default()
        },
        11,
    );
    h.bootstrap(Point::new(10.0, 10.0), 1.0);
    h.join(Point::new(50.0, 50.0), 100.0);
    h.run_for(400);
    h.join(Point::new(40.0, 20.0), 2.0);
    h.run_for(400);
    h.join(Point::new(50.0, 55.0), 100.0);
    h.run_for(400);
    h.settle();
    let asker = NodeId::new(1);
    let hot = Point::new(30.0, 10.0);
    for _ in 0..30 {
        h.inject(
            asker,
            Input::UserQuery {
                query: LocationQuery::new(Region::new(hot.x - 0.5, hot.y - 0.5, 1.0, 1.0), asker),
            },
        );
        h.run_for(150);
    }
    h.run_for(2_000);
    let adapted = (0..4).any(|i| {
        h.events_of(NodeId::new(i))
            .iter()
            .any(|e| matches!(e, ClientEvent::AdaptationExecuted { .. }))
    });
    assert!(!adapted, "adaptation ran despite being disabled");
}

/// The first pair of primaries owning overlapping regions, if any.
fn first_fork(h: &SimHarness) -> Option<String> {
    let views = h.owner_views();
    let primaries: Vec<_> = views
        .iter()
        .filter(|(_, v)| v.role == Role::Primary)
        .collect();
    for (i, (ida, va)) in primaries.iter().enumerate() {
        for (idb, vb) in primaries.iter().skip(i + 1) {
            if va.region.intersects(&vb.region) {
                return Some(format!(
                    "{ida} {} (peer {:?}) vs {idb} {} (peer {:?})",
                    va.region,
                    va.peer.map(|p| p.id()),
                    vb.region,
                    vb.peer.map(|p| p.id())
                ));
            }
        }
    }
    None
}

#[test]
fn sustained_load_never_forks_ownership() {
    // Regression for three hand-off races found under load: (1) a
    // promoted secondary dropping its whole (stale-timed) neighbor table,
    // (2) a granted-away secondary timing out its silent ex-primary and
    // promoting, (3) an inherited secondary keeping its peer link on the
    // displaced primary. Symptom in every case: two primaries owning
    // overlapping regions.
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    // (nodes, capacity cycle, queries): the original three overlays, and
    // the larger, more mixed ones the fork hunt was run on by hand.
    let small = (60, &[1.0, 10.0, 100.0, 1000.0, 10.0][..], 60);
    let large = (
        150,
        &[1.0, 10.0, 10.0, 100.0, 10.0, 1.0, 10.0, 100.0, 1000.0, 10.0][..],
        100,
    );
    let scenarios = [4002u64, 7777, 31]
        .map(|seed| (seed, small))
        .into_iter()
        .chain([4002, 1, 2, 3, 4, 5, 6, 7, 8].map(|seed| (seed, large)));
    for (seed, (nodes, caps, queries)) in scenarios {
        let space = Space::paper_evaluation();
        let mut h = SimHarness::new(
            space,
            EngineConfig {
                mode: EngineMode::DualPeer,
                ..EngineConfig::default()
            },
            seed,
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut coord = || Point::new(rng.random_range(0.2..63.8), rng.random_range(0.2..63.8));
        h.bootstrap(coord(), 10.0);
        for i in 1..nodes {
            h.join(coord(), caps[i % caps.len()]);
            h.run_for(250);
        }
        h.settle();
        assert_eq!(
            first_fork(&h),
            None,
            "seed {seed} x {nodes}: fork after set-up"
        );
        let asker = NodeId::new(0);
        for q in 0..queries {
            let p = coord();
            h.inject(
                asker,
                Input::UserQuery {
                    query: LocationQuery::new(Region::new(p.x - 0.5, p.y - 0.5, 1.0, 1.0), asker),
                },
            );
            h.run_for(60);
            assert_eq!(
                first_fork(&h),
                None,
                "seed {seed} x {nodes}: fork after query {q}"
            );
        }
        h.run_for(2_000);
        // Primaries must tile without overlap.
        assert_eq!(first_fork(&h), None, "seed {seed} x {nodes}: fork at rest");
        let area: f64 = h
            .owner_views()
            .iter()
            .filter(|(_, v)| v.role == Role::Primary)
            .map(|(_, v)| v.region.area())
            .sum();
        assert!(
            (area - 64.0 * 64.0).abs() < 1e-6,
            "seed {seed} x {nodes}: coverage {area}"
        );
    }
}

#[test]
fn quiet_networks_never_adapt() {
    // No queries at all: indexes stay at zero, the trigger never fires,
    // and ownership is stable.
    let mut h = harness();
    let before: Vec<_> = h
        .owner_views()
        .into_iter()
        .map(|(id, v)| (id, v.role, v.region))
        .collect();
    h.run_for(5_000);
    let after: Vec<_> = h
        .owner_views()
        .into_iter()
        .map(|(id, v)| (id, v.role, v.region))
        .collect();
    assert_eq!(before, after, "idle network changed ownership");
}
