//! Express routing on the message-level engine: owners learn fingers by
//! routed lookups, every operation still completes, and once the fingers
//! are learned a route is much shorter than the greedy walk over the same
//! neighbor tables.

use std::collections::HashMap;

use geogrid_core::engine::sim::SimHarness;
use geogrid_core::engine::{ClientEvent, Effect, EngineConfig, EngineMode, Input, Message};
use geogrid_core::service::{LocationQuery, LocationRecord};
use geogrid_core::NodeId;
use geogrid_geometry::{Point, Space};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const NODES: u64 = 256;
const PAIRS: usize = 300;

#[test]
fn learned_fingers_shorten_routes_and_every_operation_completes() {
    let space = Space::paper_evaluation();
    let config = EngineConfig {
        mode: EngineMode::Basic,
        ..EngineConfig::default()
    };
    let mut h = SimHarness::new(space, config, 57);
    let mut rng = SmallRng::seed_from_u64(57);
    let mut point = || Point::new(rng.random_range(0.5..63.5), rng.random_range(0.5..63.5));
    h.bootstrap(point(), 10.0);
    for _ in 1..NODES {
        h.join(point(), 10.0);
        h.run_for(60);
    }
    h.settle();
    assert_eq!(h.owner_count(), NODES as usize);

    // Real traffic: one query and one publish per pair. The routes learn
    // the fingers they want on the way.
    let pairs: Vec<(NodeId, Point)> = (0..PAIRS)
        .map(|i| (NodeId::new(i as u64 * 7 % NODES), point()))
        .collect();
    let mut asked: HashMap<NodeId, u64> = HashMap::new();
    for (i, &(issuer, target)) in pairs.iter().enumerate() {
        let query = LocationQuery::circular(target, 0.1, issuer);
        h.inject(issuer, Input::UserQuery { query });
        *asked.entry(issuer).or_default() += 1;
        let record = LocationRecord::new(i as u64, "car", target, Vec::new());
        h.inject(issuer, Input::UserPublish { record });
        h.run_for(5);
    }
    h.run_for(1_000);
    // An engine numbers its queries 1, 2, …; each one is answered.
    for (&issuer, &count) in &asked {
        let mut ids: Vec<u64> = (h.events_of(issuer).iter())
            .filter_map(|e| match e {
                ClientEvent::QueryResults { query_id, .. } => Some(*query_id),
                _ => None,
            })
            .collect();
        ids.dedup();
        assert_eq!(
            ids,
            (1..=count).collect::<Vec<_>>(),
            "answers at {issuer:?}"
        );
    }
    let views: HashMap<_, _> = h.owner_views().into_iter().collect();
    let stored: usize = views.values().map(|v| v.records).sum();
    assert_eq!(stored, PAIRS, "every publish is stored once");

    // Hops of the same queries now (the simulated clock, while the fingers
    // are still fresh), handed from engine to engine by hand (the lookups
    // a route sends are not followed), and of the greedy
    // walk over the same tables (the engine's next-hop key before express
    // routing).
    let mut engines: HashMap<_, _> = (views.keys())
        .map(|&id| (id, h.engine(id).expect("live").clone()))
        .collect();
    let now = (NODES - 1) * 60 + 1_000 + PAIRS as u64 * 5 + 1_000;
    let (mut express, mut greedy) = (0, 0);
    for &(issuer, target) in &pairs {
        let query = LocationQuery::circular(target, 0.1, issuer);
        let (mut at, mut input) = (issuer, Input::UserQuery { query });
        while let Some((to, message)) = engines
            .get_mut(&at)
            .expect("live")
            .handle(now, input)
            .into_iter()
            .find_map(|e| match e {
                Effect::Send { to, message }
                    if matches!(message, Message::Query { fanout: false, .. }) =>
                {
                    Some((to, message))
                }
                _ => None,
            })
        {
            (at, input) = (to, Input::Message { from: at, message });
            express += 1;
        }
        let mut view = &views[&issuer];
        while !space.region_covers(&view.region, target) {
            let key = |n: &&geogrid_core::engine::NeighborInfo| {
                let r = n.region;
                let covers = space.region_covers(&r, target);
                (
                    r.distance_to_point(target),
                    !covers,
                    r.center().distance(target),
                    n.primary.id(),
                )
            };
            let next = (view.neighbors.iter())
                .min_by(|a, b| key(a).partial_cmp(&key(b)).expect("finite"))
                .expect("an owner has neighbors");
            view = &views[&next.primary.id()];
            greedy += 1;
        }
    }
    let (express, greedy) = (express as f64 / PAIRS as f64, greedy as f64 / PAIRS as f64);
    assert!(
        express <= 0.6 * greedy,
        "mean hops: express {express:.2}, greedy {greedy:.2}"
    );
}
