//! Property test for the zero-allocation routing engine: after every
//! structural mutation in an arbitrary sequence — splits, merges, secondary
//! placement/removal, role swaps, primary departures with fail-over or
//! orphan repair — a greedy [`Router::route`] through one long-lived
//! [`Router`] must be hop-for-hop identical to the uncached reference
//! [`routing::route_uncached`].
//!
//! The router (and the scratch it owns) is deliberately *not* reset
//! between mutations: its visited stamps and hop buffers carry over
//! from every earlier geometry epoch (slots are recycled by merges and
//! re-filled by splits), and the queries repeatedly target one hot
//! point. Routing must be a pure function of `(view, region, target)`:
//! any state leaking from one query or one geometry into the next
//! shows up as a diverging path.
//!
//! Every query additionally runs through the two-phase express engine
//! ([`RouteOptions::express`]) with the same router, so the express-link
//! maintenance at each mutation site is interleaved with the structural
//! churn: express routes must terminate at the same region as the
//! uncached reference, never exceed its hop count, and finish with a
//! last mile that is hop-for-hop the greedy reference from the handoff.

use geogrid_core::routing::{self, RouteOptions, Router};
use geogrid_core::{RegionId, Topology};
use geogrid_geometry::{Point, Space};
use proptest::prelude::*;

fn space() -> Space {
    Space::paper_evaluation()
}

fn probe(x: f64, y: f64) -> Point {
    space().clamp(Point::new(x, y))
}

/// Applies one encoded mutation, same driver as the grid-index property
/// tests: `op` selects the kind, `(x, y)` the region it targets (via the
/// ground-truth scan).
fn apply_op(t: &mut Topology, op: u8, x: f64, y: f64) {
    let p = probe(x, y);
    let Ok(rid) = t.locate_scan(p) else {
        return;
    };
    let entry = t.region(rid).expect("scan returned a live region");
    let primary = entry.primary();
    let secondary = entry.secondary();
    match op % 8 {
        // Grow the network (biased: three opcodes map here).
        0..=2 => {
            let j = t.register_node(p, 10.0);
            t.split_region(rid, primary, j)
                .expect("split of a live region with a fresh node");
        }
        // Merge with the first neighbor that re-forms a rectangle.
        3 => {
            let neighbors: Vec<RegionId> = entry.neighbors().to_vec();
            for n in neighbors {
                let Some(ne) = t.region(n) else { continue };
                if t.region(rid)
                    .unwrap()
                    .region()
                    .merge(&ne.region())
                    .is_some()
                {
                    t.merge_regions(rid, n, primary, None)
                        .expect("owners include the kept primary");
                    break;
                }
            }
        }
        // Dual-peer lifecycle on the covering region.
        4 => match secondary {
            None => {
                let s = t.register_node(p, 50.0);
                t.set_secondary(rid, s).expect("region was half-full");
            }
            Some(_) => {
                t.take_secondary(rid).expect("region was full");
            }
        },
        // Within-region role swap, or a primary swap with a neighbor
        // (ownership handoffs: geometry, and so routing, is untouched).
        5 => {
            if secondary.is_some() {
                t.swap_roles(rid).expect("region was full");
            } else if let Some(&n) = entry.neighbors().first() {
                t.swap_primaries(rid, n).expect("both regions live");
            }
        }
        // Cross-region: promote a neighbor's secondary into this region.
        6 => {
            let with_secondary = entry
                .neighbors()
                .iter()
                .copied()
                .find(|&n| t.region(n).is_some_and(|e| e.secondary().is_some()));
            if let Some(n) = with_secondary {
                t.switch_primary_with_secondary(rid, n)
                    .expect("neighbor had a secondary");
            }
        }
        // Departure of the primary (fail-over or orphan repair).
        _ => {
            if t.region_count() == 1 && secondary.is_none() {
                return; // keep the network non-empty
            }
            match t.remove_node(primary) {
                Ok(None) => {}
                Ok(Some(orphan)) => {
                    let a = t.register_node(p, 10.0);
                    t.adopt_region(orphan, a).expect("fresh node adopts");
                }
                Err(e) => panic!("remove_node({primary}): {e:?}"),
            }
        }
    }
}

/// Routes `from → target` through both engines and describes any
/// divergence (None = identical executor and hop trace).
fn divergence(t: &Topology, router: &mut Router, from: RegionId, target: Point) -> Option<String> {
    let reference = routing::route_uncached(t, from, target).expect("reference route");
    let executor = router
        .route(t, from, target, &RouteOptions::greedy())
        .expect("router route");
    if executor != reference.executor {
        return Some(format!(
            "executor diverged: router {executor} vs reference {} ({from} -> {target:?})",
            reference.executor
        ));
    }
    if router.hops() != &reference.hops[..] {
        return Some(format!(
            "hops diverged: router {:?} vs reference {:?} ({from} -> {target:?})",
            router.hops(),
            reference.hops
        ));
    }
    None
}

/// Routes `from → target` through the two-phase express engine (same
/// long-lived router — only its recycled buffers outlive mutations)
/// and checks the express contract against the uncached reference: same
/// executor, never more hops, and a last-mile segment that is hop-for-hop
/// the greedy reference from the handoff region.
fn express_divergence(
    t: &Topology,
    router: &mut Router,
    from: RegionId,
    target: Point,
) -> Option<String> {
    let reference = routing::route_uncached(t, from, target).expect("reference route");
    let executor = router
        .route(t, from, target, &RouteOptions::express())
        .expect("express route");
    if executor != reference.executor {
        return Some(format!(
            "express executor diverged: {executor} vs reference {} ({from} -> {target:?})",
            reference.executor
        ));
    }
    if router.hop_count() > reference.hop_count() {
        return Some(format!(
            "express route longer than greedy: {} vs {} hops ({from} -> {target:?}, prefix {})",
            router.hop_count(),
            reference.hop_count(),
            router.express_prefix()
        ));
    }
    let handoff = router.hops()[router.express_prefix()];
    let tail = routing::route_uncached(t, handoff, target).expect("tail reference");
    if router.hops()[router.express_prefix()..] != tail.hops[..] {
        return Some(format!(
            "express last mile diverged from greedy reference at handoff {handoff}: \
             {:?} vs {:?} ({from} -> {target:?})",
            &router.hops()[router.express_prefix()..],
            tail.hops
        ));
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn router_never_diverges_from_uncached_reference(
        ops in prop::collection::vec((any::<u8>(), 0.0..=64.0, 0.0..=64.0), 1..40),
        (hx, hy) in (0.0..=64.0, 0.0..=64.0),
    ) {
        let mut t = Topology::new(space());
        let n0 = t.register_node(Point::new(1.0, 1.0), 10.0);
        t.bootstrap(n0).expect("fresh network");
        // The hot destination every interleaved query batch targets,
        // across every geometry epoch.
        let hot = probe(hx, hy);
        let mut router = Router::new();
        for &(op, x, y) in &ops {
            apply_op(&mut t, op, x, y);
            let from_a = t.first_region().expect("non-empty");
            let from_b = t.locate_scan(probe(x, y)).expect("in space");
            // Twice toward the hot point from the same source (a repeat
            // must answer the same), then queries from/to the mutation
            // site stress the just-changed geometry.
            for (from, target) in [
                (from_a, hot),
                (from_a, hot),
                (from_b, hot),
                (from_b, probe(x, y)),
                (from_a, probe(64.0 - x, 64.0 - y)),
            ] {
                if let Some(d) = divergence(&t, &mut router, from, target) {
                    prop_assert!(false, "after op {} at ({}, {}): {}", op, x, y, d);
                }
                // The express engine shares the router's scratch with
                // the greedy queries above, so every mutation's finger
                // rewiring is exercised between greedy walks.
                if let Some(d) = express_divergence(&t, &mut router, from, target) {
                    prop_assert!(false, "after op {} at ({}, {}): {}", op, x, y, d);
                }
            }
        }
        prop_assert!(t.validate().is_ok(), "invalid topology: {:?}", t.validate());
    }
}
