//! Property-based tests over the whole stack: arbitrary join/leave
//! sequences and workloads must never break the overlay's invariants.

use geogrid::core::balance::{AdaptationEngine, BalanceConfig};
use geogrid::core::builder::{Mode, NetworkBuilder};
use geogrid::core::join;
use geogrid::core::load::LoadMap;
use geogrid::core::routing::{RouteOptions, Router};
use geogrid::core::Topology;
use geogrid::geometry::{Point, Space};
use geogrid::workload::{HotSpot, HotSpotField, WorkloadGrid};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn arb_point() -> impl Strategy<Value = Point> {
    (0.0..=64.0, 0.0..=64.0).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_capacity() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(1.0),
        Just(10.0),
        Just(100.0),
        Just(1_000.0),
        Just(10_000.0)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any mixed sequence of basic joins keeps the topology valid and the
    /// partition exact.
    #[test]
    fn basic_joins_always_valid(
        points in prop::collection::vec((arb_point(), arb_capacity()), 1..40)
    ) {
        let space = Space::paper_evaluation();
        let mut topo = Topology::new(space);
        let first = topo.register_node(points[0].0, points[0].1);
        topo.bootstrap(first).expect("fresh");
        for (p, cap) in &points[1..] {
            join::join_basic(&mut topo, *p, *cap).expect("join");
        }
        prop_assert!(topo.validate().is_ok(), "{:?}", topo.validate());
    }

    /// Dual-peer joins keep validity and never produce more regions than
    /// nodes.
    #[test]
    fn dual_joins_always_valid(
        points in prop::collection::vec((arb_point(), arb_capacity()), 1..40)
    ) {
        let space = Space::paper_evaluation();
        let mut topo = Topology::new(space);
        let first = topo.register_node(points[0].0, points[0].1);
        topo.bootstrap(first).expect("fresh");
        for (p, cap) in &points[1..] {
            join::join_dual(&mut topo, *p, *cap).expect("join");
        }
        prop_assert!(topo.validate().is_ok(), "{:?}", topo.validate());
        prop_assert!(topo.region_count() <= topo.node_count());
    }

    /// Joins interleaved with departures/failures keep validity as long
    /// as at least one node remains.
    #[test]
    fn churn_always_valid(
        seed in 0u64..1000,
        ops in prop::collection::vec((any::<bool>(), arb_point(), arb_capacity()), 1..60)
    ) {
        let space = Space::paper_evaluation();
        let mut net = NetworkBuilder::new(space, seed).mode(Mode::DualPeer).build(8);
        for (leave, p, cap) in ops {
            if leave && net.topology().node_count() > 4 {
                // Depart a deterministic victim.
                let victim = net
                    .topology()
                    .nodes()
                    .map(|n| n.id())
                    .min()
                    .expect("nonempty");
                join::depart(net.topology_mut(), victim).expect("departure");
            } else {
                join::join_dual(net.topology_mut(), p, cap).expect("join");
            }
            prop_assert!(
                net.topology().validate().is_ok(),
                "{:?}",
                net.topology().validate()
            );
        }
    }

    /// Greedy routing always terminates at the region covering the target
    /// and never exceeds the scan-verified executor.
    #[test]
    fn routing_always_reaches_cover(
        seed in 0u64..100,
        n in 2usize..120,
        target in arb_point()
    ) {
        let space = Space::paper_evaluation();
        let net = NetworkBuilder::new(space, seed).build(n);
        let topo = net.topology();
        let from = topo.first_region().expect("nonempty");
        let mut router = Router::new();
        let executor = router
            .route(topo, from, target, &RouteOptions::Greedy)
            .expect("route");
        prop_assert!(topo.region(executor).expect("live").covers(target, space));
        prop_assert_eq!(executor, topo.locate_scan(target).expect("scan"));
    }

    /// Adaptation preserves every structural invariant and never
    /// meaningfully increases the workload-index spread, for any hot-spot
    /// layout. (Each mechanism improves its own overloaded region; the
    /// *global* std-dev may wiggle by a hair when ownership moves, so the
    /// bound allows 1% relative slack.)
    #[test]
    fn adaptation_is_safe_and_non_worsening(
        seed in 0u64..100,
        spots in prop::collection::vec((arb_point(), 0.5..10.0), 1..6)
    ) {
        let space = Space::paper_evaluation();
        let mut net = NetworkBuilder::new(space, seed).mode(Mode::DualPeer).build(120);
        let field = HotSpotField::new(
            spots.into_iter().map(|(c, r)| HotSpot::new(c, r)).collect(),
        );
        let grid = WorkloadGrid::from_field(space, 0.5, &field);
        let before = LoadMap::from_grid(net.topology(), &grid)
            .summary(net.topology())
            .std_dev();
        let mut loads = LoadMap::from_grid(net.topology(), &grid);
        AdaptationEngine::new(BalanceConfig::default())
            .run(net.topology_mut(), &grid, &mut loads, 15);
        let after = loads.summary(net.topology()).std_dev();
        prop_assert!(net.topology().validate().is_ok(), "{:?}", net.topology().validate());
        prop_assert!(after <= before * 1.01 + 1e-12, "std grew: {before} -> {after}");
    }

    /// Everything at once: joins, departures, hot-spot migration, and
    /// adaptation rounds interleaved in arbitrary order never break a
    /// structural invariant.
    #[test]
    fn full_lifecycle_chaos(seed in 0u64..200, ops in prop::collection::vec(0u8..4, 1..40)) {
        let space = Space::paper_evaluation();
        let mut net = NetworkBuilder::new(space, seed).mode(Mode::DualPeer).build(60);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0FFEE);
        let mut field = HotSpotField::random(&mut rng, space, 5);
        let mut grid = WorkloadGrid::from_field(space, 0.5, &field);
        let engine = AdaptationEngine::new(BalanceConfig::default());
        for op in ops {
            match op {
                0 => {
                    net.join_one();
                }
                1 => {
                    if net.topology().node_count() > 8 {
                        let victim = net
                            .topology()
                            .nodes()
                            .map(|n| n.id())
                            .min()
                            .expect("nonempty");
                        join::depart(net.topology_mut(), victim).expect("failure handled");
                    }
                }
                2 => {
                    field.advance_epoch(&mut rng, space);
                    grid.fill(&field);
                }
                _ => {
                    let mut loads = LoadMap::from_grid(net.topology(), &grid);
                    engine.run_round(net.topology_mut(), &grid, &mut loads);
                }
            }
            prop_assert!(
                net.topology().validate().is_ok(),
                "after op {op}: {:?}",
                net.topology().validate()
            );
        }
        // Routing still works everywhere afterwards.
        let topo = net.topology();
        let entry = topo.first_region().expect("nonempty");
        let mut router = Router::new();
        let executor = router
            .route(topo, entry, Point::new(33.0, 31.0), &RouteOptions::Greedy)
            .expect("routable");
        prop_assert!(topo
            .region(executor)
            .expect("live")
            .covers(Point::new(33.0, 31.0), space));
    }

    /// The workload grid conserves mass under any partition the builder
    /// produces: per-region loads sum to the grid total.
    #[test]
    fn region_loads_conserve_mass(
        seed in 0u64..100,
        n in 2usize..150,
        spot in arb_point(),
        radius in 0.5..10.0
    ) {
        let space = Space::paper_evaluation();
        let net = NetworkBuilder::new(space, seed).build(n);
        let field = HotSpotField::new(vec![HotSpot::new(spot, radius)]);
        let grid = WorkloadGrid::from_field(space, 0.5, &field);
        let sum: f64 = net
            .topology()
            .regions()
            .map(|(_, e)| grid.region_load(&e.region()))
            .sum();
        prop_assert!((sum - grid.total()).abs() < 1e-6, "sum {sum} != {}", grid.total());
    }
}
