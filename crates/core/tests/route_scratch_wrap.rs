//! Regression test for the `u8` visited-stamp generation wrap in a
//! [`Router`]: the generation counter lives in one byte, so query
//! #256 through the same router wraps it back past 255. Without the
//! wrap-handling in `next_generation` (clear the stamp array, restart at
//! 1), every region visited 256 queries ago would alias the new
//! generation as "already visited" and silently deform the route.
//!
//! The test drives well over 256 queries — greedy and express — through
//! one long-lived [`Router`] (which owns the stamps), comparing every
//! route hop-for-hop against the allocating
//! [`routing::route_uncached`] reference, and interleaves topology
//! growth so the stamp array is also resized mid-stream.

use geogrid_core::routing::{self, RouteOptions, Router};
use geogrid_core::{RegionId, Topology};
use geogrid_geometry::{Point, Space};

/// Deterministic coordinate stream (Weyl sequence).
fn coord(i: u64) -> Point {
    let x = ((i as f64 * 0.754877666) % 1.0) * 63.0 + 0.5;
    let y = ((i as f64 * 0.569840296) % 1.0) * 63.0 + 0.5;
    Point::new(x, y)
}

fn grow(t: &mut Topology, at: Point) {
    let rid = t.locate_scan(at).expect("in space");
    let primary = t.region(rid).expect("live").primary();
    let j = t.register_node(at, 10.0);
    t.split_region(rid, primary, j).expect("split");
}

#[test]
fn visited_stamps_survive_generation_wraparound() {
    let mut t = Topology::new(Space::paper_evaluation());
    let n0 = t.register_node(Point::new(1.0, 1.0), 10.0);
    t.bootstrap(n0).expect("bootstrap");
    for i in 1..64 {
        grow(&mut t, coord(i));
    }

    let mut router = Router::new();
    let ids: Vec<RegionId> = t.region_ids().collect();
    // 700 routes through ONE router: the u8 generation wraps twice
    // (at queries 256 and 512 of each engine's begin() call pattern).
    // Each query must still match the reference, which allocates a fresh
    // visited set every time and so cannot be affected by the wrap.
    for q in 0..700u64 {
        let from = ids[(q as usize * 7) % ids.len()];
        let target = coord(q * 3 + 1);
        let reference = routing::route_uncached(&t, from, target).expect("reference");

        if q % 2 == 0 {
            let executor = router
                .route(&t, from, target, &RouteOptions::Greedy)
                .expect("greedy");
            assert_eq!(executor, reference.executor, "query {q}");
            assert_eq!(router.hops(), &reference.hops[..], "query {q}");
        } else {
            let executor = router
                .route(&t, from, target, &RouteOptions::Express)
                .expect("express");
            assert_eq!(executor, reference.executor, "query {q}");
            assert!(
                router.hop_count() <= reference.hop_count(),
                "query {q}: express {} hops vs greedy {}",
                router.hop_count(),
                reference.hop_count()
            );
            let handoff = router.hops()[router.express_prefix()];
            let tail = routing::route_uncached(&t, handoff, target).expect("tail reference");
            assert_eq!(
                &router.hops()[router.express_prefix()..],
                &tail.hops[..],
                "query {q}: last mile diverged from the greedy reference"
            );
        }

        // Mid-stream growth right before each wrap boundary: the stamp
        // array must resize AND the stale bytes of the new tail must not
        // alias any generation.
        if q == 250 || q == 500 {
            for i in 0..8 {
                grow(&mut t, coord(1000 + q * 10 + i));
            }
        }
    }
    assert!(t.validate().is_ok(), "final topology invalid");
}
