//! Quickstart: build a GeoGrid, route queries, measure the overlay.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use geogrid::core::builder::{Mode, NetworkBuilder};
use geogrid::core::load::LoadMap;
use geogrid::core::routing::{RouteOptions, Router};
use geogrid::geometry::{Point, Space};
use geogrid::metrics::Summary;
use geogrid::workload::{HotSpotField, WorkloadGrid};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's evaluation plane: 64 x 64 miles.
    let space = Space::paper_evaluation();

    // 1. Build a 500-node dual-peer GeoGrid with the Gnutella-skewed
    //    capacity profile (the paper's Figure 3 network).
    let net = NetworkBuilder::new(space, 42)
        .mode(Mode::DualPeer)
        .build(500);
    let topo = net.topology();
    println!(
        "built a {}-node network partitioned into {} regions",
        topo.node_count(),
        topo.region_count()
    );

    // 2. Route a few location queries and observe the O(2*sqrt(N)) hops.
    //    One Router recycles its buffers across all three queries.
    let entry = topo.first_region()?;
    let mut router = Router::new();
    for target in [
        Point::new(5.0, 5.0),
        Point::new(60.0, 60.0),
        Point::new(32.0, 8.0),
    ] {
        let executor = router.route(topo, entry, target, &RouteOptions::Greedy)?;
        println!(
            "query at {target}: {} hops to executor region {executor}",
            router.hop_count(),
        );
    }

    // 3. Drop a hot-spot workload on the plane and read the per-node
    //    workload index (the paper's central metric).
    let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
    let field = HotSpotField::random(&mut rng, space, 10);
    let grid = WorkloadGrid::from_field(space, 0.5, &field);
    let loads = LoadMap::from_grid(topo, &grid);
    let summary: Summary = loads.summary(topo);
    println!(
        "workload index over {} nodes: mean={:.2e} std={:.2e} max={:.2e}",
        summary.len(),
        summary.mean(),
        summary.std_dev(),
        summary.max()
    );
    Ok(())
}
