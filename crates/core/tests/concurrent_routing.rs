//! Concurrent-routing stress: ≥ 8 reader threads route lock-free against
//! epoch-published [`TopologySnapshot`]s while a writer thread storms the
//! live [`Topology`] with splits and merges.
//!
//! Each reader holds its own [`SnapshotReader`] (steady state: one atomic
//! load per query) and [`Router`] (per-thread scratch), and on
//! every iteration checks the two properties the RCU design promises:
//!
//! 1. **Epoch coherence** — the snapshots a reader observes come from the
//!    one published instance and their epochs never move backwards, and
//!    after the writer finishes every reader converges to the writer's
//!    final epoch.
//! 2. **Routing parity under churn** — a greedy [`Router::route`] on the
//!    pinned snapshot is hop-for-hop identical to the allocating
//!    [`routing::route_uncached`] reference *on that same snapshot*, no
//!    matter how far the live topology has moved on; the express engine
//!    reaches the same executor in no more hops with a greedy last mile.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use geogrid_core::routing::{self, RouteOptions, Router};
use geogrid_core::snapshot::{TopologySnapshot, TopologyView};
use geogrid_core::{RegionId, Topology};
use geogrid_geometry::{Point, Space};

const READERS: usize = 8;
const WRITER_OPS: u64 = 300;

/// Deterministic coordinate stream (Weyl sequence), decorrelated by seed.
/// `k` stays small so the `fract()` keeps full fractional precision.
fn coord(seed: u64, i: u64) -> Point {
    let k = (seed * 100_000 + i) as f64;
    let x = (k * 0.754877666).fract() * 63.0 + 0.5;
    let y = (k * 0.569840296).fract() * 63.0 + 0.5;
    Point::new(x, y)
}

/// Sets its flag when dropped, on return or on unwind alike.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

fn grow(t: &mut Topology, at: Point) {
    let rid = t.locate_scan(at).expect("in space");
    let primary = t.region(rid).expect("live").primary();
    let j = t.register_node(at, 10.0);
    t.split_region(rid, primary, j).expect("split");
}

/// Merges the region covering `at` with its first rectangle-compatible
/// neighbor, if any (same driver as the route-parity property test).
fn shrink(t: &mut Topology, at: Point) {
    let Ok(rid) = t.locate_scan(at) else { return };
    let entry = t.region(rid).expect("live");
    let primary = entry.primary();
    let neighbors: Vec<RegionId> = entry.neighbors().to_vec();
    for n in neighbors {
        let Some(ne) = t.region(n) else { continue };
        if t.region(rid)
            .expect("live")
            .region()
            .merge(&ne.region())
            .is_some()
        {
            t.merge_regions(rid, n, primary, None)
                .expect("owners include the kept primary");
            return;
        }
    }
}

/// One reader iteration: greedy parity hop-for-hop against the uncached
/// reference on the same snapshot, then the express contract (same
/// executor, greedy last mile). Returns `(greedy_hops, express_hops)` so
/// the caller can assert the aggregate hop bound — a single express query
/// may overshoot greedy by a finger hop, but the workload total must not
/// (`repro routing` asserts the same bound on each network size's mean).
fn check_parity(
    snap: &TopologySnapshot,
    router: &mut Router,
    from: RegionId,
    target: Point,
) -> (usize, usize) {
    let reference = routing::route_uncached(snap, from, target).expect("reference");
    let executor = router
        .route(snap, from, target, &RouteOptions::Greedy)
        .expect("greedy on snapshot");
    assert_eq!(executor, reference.executor, "greedy executor diverged");
    assert_eq!(
        router.hops(),
        &reference.hops[..],
        "greedy hops diverged on a pinned snapshot"
    );

    let executor = router
        .route(snap, from, target, &RouteOptions::Express)
        .expect("express on snapshot");
    assert_eq!(executor, reference.executor, "express executor diverged");
    let handoff = router.hops()[router.express_prefix()];
    let tail = routing::route_uncached(snap, handoff, target).expect("tail reference");
    assert_eq!(
        &router.hops()[router.express_prefix()..],
        &tail.hops[..],
        "express last mile diverged from the greedy reference"
    );
    (reference.hop_count(), router.hop_count())
}

#[test]
fn readers_route_coherently_under_writer_storm() {
    // ~512-region network before the storm starts.
    let mut t = Topology::new(Space::paper_evaluation());
    let n0 = t.register_node(Point::new(1.0, 1.0), 10.0);
    t.bootstrap(n0).expect("bootstrap");
    for i in 1..512 {
        grow(&mut t, coord(0, i));
    }
    let cell = t.publish_handle();
    let instance = t.instance_id();

    let done = AtomicBool::new(false);
    let start = Barrier::new(READERS + 1);
    // (iterations, distinct epochs, last epoch) per reader.
    let stats: Vec<(u64, u64, u64)> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for reader_id in 0..READERS as u64 {
            let mut reader = cell.reader();
            let (done, start) = (&done, &start);
            handles.push(s.spawn(move || {
                let mut router = Router::new();
                let mut last_epoch = 0u64;
                let mut distinct = 0u64;
                let mut iters = 0u64;
                let (mut greedy_total, mut express_total) = (0usize, 0usize);
                start.wait();
                // Keep routing until the writer signals done, then one
                // more iteration so the final published epoch is observed.
                let mut finish = false;
                while !finish {
                    finish = done.load(Ordering::Acquire);
                    let snap = Arc::clone(reader.current());
                    assert_eq!(snap.instance_id(), instance, "foreign snapshot");
                    assert!(
                        snap.epoch() >= last_epoch,
                        "epoch moved backwards: {} after {last_epoch}",
                        snap.epoch()
                    );
                    if snap.epoch() != last_epoch {
                        distinct += 1;
                        last_epoch = snap.epoch();
                    }
                    // Route between snapshot-live regions; the writer may
                    // be many epochs ahead by now — parity is against the
                    // pinned snapshot, not the live topology.
                    let ids: Vec<RegionId> = snap.region_ids().collect();
                    let from = ids[(iters as usize * 13) % ids.len()];
                    let target = coord(reader_id + 1, iters);
                    let (g, e) = check_parity(&snap, &mut router, from, target);
                    greedy_total += g;
                    express_total += e;
                    iters += 1;
                }
                assert!(
                    express_total <= greedy_total,
                    "express walked {express_total} total hops vs greedy {greedy_total}"
                );
                (iters, distinct, last_epoch)
            }));
        }

        // Writer: split/merge storm, republishing on every mutation. The
        // guard sets `done` even if the writer panics, so the readers stop
        // and the test fails with the writer's message instead of hanging.
        start.wait();
        let stop_readers = SetOnDrop(&done);
        for i in 0..WRITER_OPS {
            if i % 3 == 2 {
                shrink(&mut t, coord(7, i));
            } else {
                grow(&mut t, coord(11, i));
            }
            std::thread::yield_now();
        }
        drop(stop_readers);

        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });

    // Every reader converged to the final published geometry...
    let final_epoch = t.epoch();
    assert_eq!(cell.load().epoch(), final_epoch, "final publish missing");
    for &(iters, _, last) in &stats {
        assert!(iters > 0);
        assert_eq!(last, final_epoch, "reader stopped on a stale epoch");
    }
    // ...and the storm was actually observed mid-flight: across all
    // readers, more than one distinct epoch was seen.
    let total_distinct: u64 = stats.iter().map(|&(_, d, _)| d).sum();
    assert!(
        total_distinct > READERS as u64,
        "readers only ever saw one epoch each: {stats:?}"
    );
    // The live topology survived the storm intact.
    assert!(t.validate().is_ok(), "{:?}", t.validate());
    assert!(t.audit().is_empty(), "{:?}", t.audit());
}

/// A pinned snapshot keeps routing identically forever: grab one, let the
/// writer churn 100 epochs, and re-check parity on the *old* snapshot —
/// `Arc` reclamation means it lives until the last reader drops it.
#[test]
fn pinned_snapshot_survives_later_epochs() {
    let mut t = Topology::new(Space::paper_evaluation());
    let n0 = t.register_node(Point::new(1.0, 1.0), 10.0);
    t.bootstrap(n0).expect("bootstrap");
    for i in 1..64 {
        grow(&mut t, coord(0, i));
    }
    let cell = t.publish_handle();
    let pinned = cell.load();
    let pinned_epoch = pinned.epoch();

    // Record reference routes on the pinned snapshot before the churn.
    let mut router = Router::new();
    let ids: Vec<RegionId> = pinned.region_ids().collect();
    let before: Vec<(RegionId, Vec<RegionId>)> = (0..32u64)
        .map(|q| {
            let from = ids[(q as usize * 7) % ids.len()];
            let executor = router
                .route(&*pinned, from, coord(3, q), &RouteOptions::Greedy)
                .expect("routable");
            (executor, router.hops().to_vec())
        })
        .collect();

    for i in 0..100 {
        grow(&mut t, coord(5, i));
    }
    assert!(cell.load().epoch() > pinned_epoch, "churn did not publish");
    assert_eq!(pinned.epoch(), pinned_epoch, "pinned snapshot mutated");

    // The same queries on the pinned snapshot still walk the same paths.
    for (q, (executor, hops)) in before.iter().enumerate() {
        let from = ids[(q * 7) % ids.len()];
        let again = router
            .route(&*pinned, from, coord(3, q as u64), &RouteOptions::Greedy)
            .expect("routable");
        assert_eq!(again, *executor, "query {q}");
        assert_eq!(router.hops(), &hops[..], "query {q}");
    }
}
