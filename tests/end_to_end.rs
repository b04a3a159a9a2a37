//! Cross-crate integration: the paper's full pipeline — build networks,
//! drop hot-spot workloads on them, adapt, and check the headline claims
//! directionally.

use geogrid::core::balance::{AdaptationEngine, BalanceConfig};
use geogrid::core::builder::{Mode, NetworkBuilder};
use geogrid::core::join;
use geogrid::core::load::LoadMap;
use geogrid::core::routing::{RouteOptions, Router};
use geogrid::geometry::{Point, Space};
use geogrid::metrics::gini;
use geogrid::workload::{HotSpotField, WorkloadGrid};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn workload(seed: u64) -> (HotSpotField, WorkloadGrid) {
    let space = Space::paper_evaluation();
    let mut rng = SmallRng::seed_from_u64(seed);
    let field = HotSpotField::random(&mut rng, space, 10);
    let grid = WorkloadGrid::from_field(space, 0.5, &field);
    (field, grid)
}

#[test]
fn variant_ladder_improves_balance() {
    let space = Space::paper_evaluation();
    let (_, grid) = workload(1);

    let basic = NetworkBuilder::new(space, 1).mode(Mode::Basic).build(600);
    let basic_std = LoadMap::from_grid(basic.topology(), &grid)
        .summary(basic.topology())
        .std_dev();

    let mut dual = NetworkBuilder::new(space, 1)
        .mode(Mode::DualPeer)
        .build(600);
    let dual_std = LoadMap::from_grid(dual.topology(), &grid)
        .summary(dual.topology())
        .std_dev();

    let mut loads = LoadMap::from_grid(dual.topology(), &grid);
    AdaptationEngine::new(BalanceConfig::default()).run(dual.topology_mut(), &grid, &mut loads, 25);
    let adapted_std = loads.summary(dual.topology()).std_dev();

    assert!(
        dual_std < basic_std,
        "dual {dual_std} not better than basic {basic_std}"
    );
    assert!(
        adapted_std < dual_std,
        "adaptation {adapted_std} not better than dual {dual_std}"
    );
    // The paper's headline: about an order of magnitude between basic and
    // dual+adaptation. Require at least 4x here (one seed, modest N).
    assert!(
        basic_std / adapted_std > 4.0,
        "improvement only {:.1}x",
        basic_std / adapted_std
    );
    dual.topology().validate().unwrap();
}

#[test]
fn adaptation_reduces_gini_not_just_stddev() {
    let space = Space::paper_evaluation();
    let (_, grid) = workload(2);
    let mut net = NetworkBuilder::new(space, 2)
        .mode(Mode::DualPeer)
        .build(400);
    let before = gini(
        LoadMap::from_grid(net.topology(), &grid)
            .node_indexes(net.topology())
            .into_values()
            .filter(|v| *v > 0.0),
    );
    let mut loads = LoadMap::from_grid(net.topology(), &grid);
    AdaptationEngine::default().run(net.topology_mut(), &grid, &mut loads, 25);
    let after = gini(
        loads
            .node_indexes(net.topology())
            .into_values()
            .filter(|v| *v > 0.0),
    );
    assert!(
        after <= before + 1e-9,
        "gini got worse: {before} -> {after}"
    );
}

#[test]
fn churn_then_adaptation_keeps_invariants() {
    let space = Space::paper_evaluation();
    let (_, grid) = workload(3);
    let mut net = NetworkBuilder::new(space, 3)
        .mode(Mode::DualPeer)
        .build(300);
    // Kill 30 random-ish nodes (every 7th primary/secondary id).
    let victims: Vec<_> = net
        .topology()
        .nodes()
        .map(|n| n.id())
        .filter(|id| id.as_u64() % 7 == 0)
        .take(30)
        .collect();
    for v in victims {
        join::depart(net.topology_mut(), v).expect("failure handled");
    }
    net.topology().validate().unwrap();
    // Adapt afterwards: still valid, still improves.
    let before = LoadMap::from_grid(net.topology(), &grid)
        .summary(net.topology())
        .std_dev();
    let mut loads = LoadMap::from_grid(net.topology(), &grid);
    AdaptationEngine::default().run(net.topology_mut(), &grid, &mut loads, 15);
    let after = loads.summary(net.topology()).std_dev();
    assert!(after <= before);
    net.topology().validate().unwrap();
}

#[test]
fn routing_works_after_heavy_adaptation() {
    let space = Space::paper_evaluation();
    let (_, grid) = workload(4);
    let mut net = NetworkBuilder::new(space, 4)
        .mode(Mode::DualPeer)
        .build(500);
    let mut loads = LoadMap::from_grid(net.topology(), &grid);
    AdaptationEngine::default().run(net.topology_mut(), &grid, &mut loads, 25);
    let topo = net.topology();
    let entry = topo.first_region().unwrap();
    let mut router = Router::new();
    for i in 0..50 {
        let target = Point::new(
            ((i as f64 * 0.7548).fract()) * 63.9 + 0.05,
            ((i as f64 * 0.5698).fract()) * 63.9 + 0.05,
        );
        let executor = router
            .route(topo, entry, target, &RouteOptions::greedy())
            .expect("routable");
        assert!(topo.region(executor).unwrap().covers(target, space));
    }
}

#[test]
fn moving_hotspots_never_break_the_overlay() {
    let space = Space::paper_evaluation();
    let mut rng = SmallRng::seed_from_u64(5);
    let mut field = HotSpotField::random(&mut rng, space, 8);
    let mut grid = WorkloadGrid::from_field(space, 0.5, &field);
    let mut net = NetworkBuilder::new(space, 5)
        .mode(Mode::DualPeer)
        .build(300);
    let engine = AdaptationEngine::default();
    for _ in 0..10 {
        field.advance_epochs(&mut rng, space, 6);
        grid.fill(&field);
        let mut loads = LoadMap::from_grid(net.topology(), &grid);
        engine.run_round(net.topology_mut(), &grid, &mut loads);
        net.topology().validate().unwrap();
    }
}
