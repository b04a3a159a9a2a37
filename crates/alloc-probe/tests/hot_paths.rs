//! The hot paths do not allocate: measured, not inferred.
//!
//! Every location query and publish is routed region by region toward a
//! coordinate and then executed against the owner's store (the engine
//! routes join requests the same way; the central model's joins use
//! `Topology::locate`).
//! These tests install a counting allocator and assert **zero
//! allocations per steady-state call** for each hot function, after one
//! warm-up pass over the same inputs (the warm-up lets recycled buffers
//! reach their working size). This file is the list of hot functions:
//!
//! * routing: `Router::route` in greedy, express and randomized mode,
//!   whose one walk runs `scan_next_hop`, `express_choice` and the
//!   randomized draw; and a route right after a geometry epoch change,
//!   which re-keys the router's visited stamps;
//! * topology: `locate`, `slot_rect`, `slot_center`, `slot_fingers`,
//!   `finger_base`;
//! * store: `RegionStore::publish_into` (with `notify_into` finding
//!   subscribers) and `query_ids_into`, on an unindexed and on a
//!   grid-indexed store.
//!
//! The engine's forwarding step is recorded, not zero: a forwarded
//! `Query` or `Publish` costs exactly one allocation per
//! `NodeEngine::handle`, the returned `Vec<Effect>`, whether the hop is
//! greedy or takes a learned express finger.
//!
//! A counting allocator checks only the inputs it runs: an allocation on
//! a branch these inputs never take goes unseen.

use geogrid_alloc_probe::{allocations, CountingAlloc};
use geogrid_core::builder::NetworkBuilder;
use geogrid_core::engine::sim::SimHarness;
use geogrid_core::engine::{Effect, EngineConfig, EngineMode, Input, Message};
use geogrid_core::service::{LocationQuery, LocationRecord, RegionStore, Subscription};
use geogrid_core::{NodeId, RegionId, RouteOptions, Router, Topology, TopologyView};
use geogrid_geometry::{Point, Region, Space};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Deterministic, well-spread coordinates in the 64 × 64 space.
fn coord(i: usize) -> Point {
    let x = ((i as f64 + 1.0) * 0.754877666).fract() * 63.0 + 0.5;
    let y = ((i as f64 + 1.0) * 0.569840296).fract() * 63.0 + 0.5;
    Point::new(x, y)
}

/// Calls `call` once on every input to warm up, then returns the
/// allocations of a second pass over the same inputs.
fn steady<T>(inputs: &[T], mut call: impl FnMut(&T)) -> u64 {
    inputs.iter().for_each(&mut call);
    allocations(|| inputs.iter().for_each(&mut call)).0
}

fn network(regions: usize) -> Topology {
    NetworkBuilder::new(Space::paper_evaluation(), 7)
        .build(regions)
        .into_topology()
}

/// `(from, target)` pairs across the whole topology.
fn route_inputs(t: &Topology, n: usize) -> Vec<(RegionId, Point)> {
    let ids: Vec<RegionId> = t.region_ids().collect();
    (0..n)
        .map(|i| (ids[(i * 7919) % ids.len()], coord(i)))
        .collect()
}

#[test]
fn the_probe_counts_allocations() {
    let (n, v) = allocations(|| vec![0u8; 16]);
    assert_eq!(n, 1, "CountingAlloc is not the global allocator");
    let (n, _) = allocations(|| {
        let mut v = v;
        v.extend_from_slice(&[1; 64]);
        v
    });
    assert_eq!(n, 1, "a growing push reallocates once");
    assert_eq!(allocations(|| 2 + 2), (0, 4));
}

#[test]
fn routing_is_allocation_free_in_every_mode() {
    let t = network(2_000);
    let inputs = route_inputs(&t, 2_000);
    for options in [
        RouteOptions::Greedy,
        RouteOptions::Express,
        RouteOptions::Randomized(0.1),
    ] {
        let mut router = Router::with_seed(11);
        let mut hops = 0;
        let allocs = steady(&inputs, |&(from, target)| {
            router.route(&t, from, target, &options).expect("routable");
            hops += router.hop_count();
        });
        assert!(hops > 0, "{options:?}: the inputs route somewhere");
        assert_eq!(allocs, 0, "{options:?}: allocations over 2,000 routes");
    }
}

#[test]
fn route_after_an_epoch_change_is_allocation_free() {
    let mut t = network(500);
    let inputs = route_inputs(&t, 500);
    // Split one region, so that the merge below frees a slot instead of
    // shrinking the slot table.
    let at = coord(9_999);
    let rid = t.locate(at).expect("in space");
    let primary = t.region(rid).expect("live").primary();
    let joiner = t.register_node(at, 10.0);
    let split_off = t.split_region(rid, primary, joiner).expect("split");

    let mut router = Router::new();
    let mut route_all = |t: &Topology| {
        for &(from, target) in &inputs {
            if t.region(from).is_some() {
                router
                    .route(t, from, target, &RouteOptions::Express)
                    .expect("routable");
            }
        }
    };
    route_all(&t);
    let (slots, epoch) = (t.slot_count(), t.epoch());
    t.merge_regions(rid, split_off, primary, None)
        .expect("the split halves merge back");
    assert_eq!(t.slot_count(), slots, "the merge keeps the slot count");
    assert!(t.epoch() > epoch, "the merge changes the geometry epoch");
    assert_eq!(allocations(|| route_all(&t)).0, 0);
}

#[test]
fn topology_accessors_are_allocation_free() {
    let t = network(2_000);
    let points: Vec<Point> = (0..4_000).map(coord).collect();
    let slots: Vec<usize> = t.region_ids().map(|r| r.index()).collect();
    let mut found = 0;
    assert_eq!(
        steady(&points, |&p| {
            found += t.locate(p).expect("covered").index() & 1;
        }),
        0
    );
    let mut sum = 0.0;
    assert_eq!(
        steady(&slots, |&s| {
            sum += t.slot_rect(s).area() + t.slot_center(s).x + t.finger_base();
            found += t.slot_fingers(s).ids().len();
        }),
        0
    );
    assert!(found > 0 && sum > 0.0);
}

/// A store holding `subs` subscriptions, each centred on one of the
/// `objects` records of the returned publish round (`subs * 5 < objects`).
fn store_workload(objects: usize, subs: usize) -> (RegionStore, Vec<LocationRecord>) {
    let mut store = RegionStore::new();
    for s in 0..subs {
        let c = coord(15 * s + 1);
        let area = Region::new(c.x - 2.0, c.y - 2.0, 4.0, 4.0);
        store.subscribe(
            Subscription::new(s as u64, area, NodeId::new(s as u64), u64::MAX),
            0,
        );
    }
    let round = (0..objects)
        .map(|i| {
            LocationRecord::new(i as u64, "car", coord(i * 3 + 1), Vec::new())
                .with_expiry(1_000_000)
        })
        .collect();
    (store, round)
}

#[test]
fn store_publish_and_query_are_allocation_free() {
    // Below and above the store's indexing threshold (256 live entries).
    for (objects, subs) in [(100, 20), (2_000, 200)] {
        let (mut store, round) = store_workload(objects, subs);
        let mut notified = Vec::new();
        let mut notifications = 0;
        let mut publish_round = |store: &mut RegionStore, now: u64| {
            let mut allocs = 0;
            // Cloning the inputs allocates; only `publish_into` is counted.
            for record in round.clone() {
                allocs += allocations(|| store.publish_into(record, now, &mut notified)).0;
                notifications += notified.len();
            }
            allocs
        };
        publish_round(&mut store, 10);
        assert_eq!(publish_round(&mut store, 10), 0, "{objects} objects");
        assert!(notifications > 0, "publishes reach subscribers");

        let queries: Vec<LocationQuery> = (0..500)
            .map(|i| LocationQuery::circular(coord(i), 3.0, NodeId::new(1)))
            .collect();
        let mut ids = Vec::new();
        let mut matched = 0;
        let allocs = steady(&queries, |q| {
            store.query_ids_into(q, 20, &mut ids);
            matched += ids.len();
        });
        assert!(matched > 0);
        assert_eq!(allocs, 0, "{objects} objects");
    }
}

#[test]
fn a_forwarded_query_or_publish_costs_one_allocation() {
    let mut h = SimHarness::new(
        Space::paper_evaluation(),
        EngineConfig {
            mode: EngineMode::Basic,
            ..EngineConfig::default()
        },
        5,
    );
    h.bootstrap(coord(0), 10.0);
    for i in 1..64 {
        h.join(coord(i), 10.0);
        h.run_for(60);
    }
    h.settle();
    let (id, view) = h
        .owner_views()
        .into_iter()
        .next()
        .expect("a settled overlay has owners");
    // A neighbor's center is a greedy hop away; the coordinate farthest
    // from the region is past the express gate.
    let near = view.neighbors[0].region.center();
    let far = (0..64)
        .map(coord)
        .max_by(|a, b| {
            let d = |p: &Point| view.region.distance_to_point(*p);
            d(a).total_cmp(&d(b))
        })
        .expect("coordinates");
    // A first route to the far point learns the finger it wants.
    h.inject(
        id,
        Input::UserQuery {
            query: LocationQuery::circular(far, 1.0, id),
        },
    );
    h.run_for(500);
    let mut engine = h.engine(id).expect("live").clone();
    let neighbors: Vec<NodeId> = view.neighbors.iter().map(|n| n.primary.id()).collect();
    let from = NodeId::new(999);
    let query = |target, query_id| Input::Message {
        from,
        message: Message::Query {
            query: LocationQuery::circular(target, 1.0, from),
            query_id,
            reply_to: from,
            hops: 1,
            fanout: false,
        },
    };
    let publish = |target, id| Input::Message {
        from,
        message: Message::Publish {
            record: LocationRecord::new(id, "car", target, Vec::new()),
            hops: 1,
        },
    };
    for (hop, target, express) in [("greedy", near, false), ("express", far, true)] {
        // Round 0 warms up; both rounds must cost the same single
        // allocation.
        for round in 0..2 {
            let inputs = [
                ("query", query(target, round)),
                ("publish", publish(target, round)),
            ];
            for (kind, input) in inputs {
                let (allocs, effects) = allocations(|| engine.handle(1_000, input));
                let [Effect::Send {
                    to,
                    message: Message::Query { .. } | Message::Publish { .. },
                }] = effects.as_slice()
                else {
                    panic!("{hop} {kind}: forwarded as one send, got {effects:?}");
                };
                assert_eq!(
                    !neighbors.contains(to),
                    express,
                    "{hop} {kind}: next hop {to:?}"
                );
                assert_eq!(allocs, 1, "{hop} {kind}: the returned Vec<Effect> only");
            }
        }
    }
}
