//! Machine-readable routing baseline: ns/route on a hot-spot workload
//! for the allocating reference, the greedy mesh walk and the two-phase
//! express engine, written to `BENCH_routing.json`.
//!
//! Regenerate with exactly one command (from the repo root):
//!
//! ```text
//! cargo run --release -p geogrid-bench --bin routing_bench
//! ```
//!
//! Network sizes come from `GEOGRID_BENCH_SIZES` (comma-separated) or
//! numeric CLI arguments, defaulting to the full sweep up to 1,048,576
//! regions; `GEOGRID_BENCH_ROUTES` overrides the per-size query count
//! (default 20,000). A non-numeric argument names the output file.
//!
//! Each size routes one query stream three times, each in a single
//! timed pass: `reference_ns` through `routing::route_uncached`
//! (per-query `HashSet` and `Vec`s), `greedy_ns` through one persistent
//! `Router` with `RouteOptions::greedy()` (hop-for-hop identical to the
//! reference, so the ratio isolates the recycled buffers), and
//! `express_ns` with `RouteOptions::express()`, whose express-finger
//! descent shortens long paths to O(log N) hops before handing off to
//! the same greedy walk. Routing keeps nothing between queries, so
//! there is no warm-up pass. Each engine's hops-vs-N scaling exponent
//! is fitted by least squares on the log-log sweep.

use std::time::Instant;

use geogrid_bench::common::build_network;
use geogrid_bench::ExperimentConfig;
use geogrid_core::builder::Mode;
use geogrid_core::routing::{self, RouteOptions, Router};
use geogrid_core::RegionId;
use geogrid_geometry::Point;

/// Default network sizes swept (basic mode: regions == nodes).
const DEFAULT_SIZES: [usize; 5] = [1_024, 4_096, 16_384, 65_536, 1_048_576];

/// Default routed queries measured per size.
const DEFAULT_ROUTES: usize = 20_000;

/// Fixed hot points in the hot-spot square.
const HOT_POINTS: u64 = 64;

/// Hot-spot query stream (paper §4): 80% of queries target one of
/// [`HOT_POINTS`] fixed places inside a 2-mile square — location queries
/// name concrete destinations ("the traffic around Exit 89"), so the hot
/// stream repeats exact coordinates — and the rest probe uniform points
/// over the plane. Weyl sequences keep the stream deterministic.
fn hotspot_target(i: u64) -> Point {
    if i.is_multiple_of(5) {
        let u = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64;
        let v = (i.wrapping_mul(0xD1B5_4A32_D192_ED03) >> 11) as f64 / (1u64 << 53) as f64;
        Point::new(u * 64.0, v * 64.0)
    } else {
        let k = i.wrapping_mul(0xD1B5_4A32_D192_ED03) % HOT_POINTS + 1;
        let u = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64;
        let v = (k.wrapping_mul(0xD1B5_4A32_D192_ED03) >> 11) as f64 / (1u64 << 53) as f64;
        Point::new(46.0 + 2.0 * u, 46.0 + 2.0 * v)
    }
}

struct Row {
    regions: usize,
    reference_ns: f64,
    greedy_ns: f64,
    express_ns: f64,
    greedy_hops_mean: f64,
    express_hops_mean: f64,
    express_prefix_mean: f64,
}

/// One timed pass of `routes` queries through a fresh `Router`. Returns
/// (ns/route, total hops, total express-prefix hops).
fn router_pass(
    topo: &geogrid_core::Topology,
    sources: &[RegionId],
    routes: usize,
    options: RouteOptions,
) -> (f64, usize, usize) {
    let mut router = Router::new();
    let start = Instant::now();
    let (mut hops, mut prefix) = (0usize, 0usize);
    for i in 1..=routes as u64 {
        let from = sources[(i as usize).wrapping_mul(7) % sources.len()];
        router
            .route(topo, from, hotspot_target(i), &options)
            .expect("routable");
        hops += router.hop_count();
        prefix += router.express_prefix();
    }
    let ns = start.elapsed().as_nanos() as f64 / routes as f64;
    (ns, hops, prefix)
}

/// Measures one network size: the allocating reference, then the greedy
/// and express engines on the same query stream.
fn measure(config: &ExperimentConfig, n: usize, routes: usize) -> Row {
    eprintln!("routing_bench: building {n}-region network...");
    let built = Instant::now();
    let topo = build_network(config, Mode::Basic, n, 0);
    eprintln!(
        "routing_bench: built {n} regions in {:.1}s",
        built.elapsed().as_secs_f64()
    );
    let sources: Vec<RegionId> = topo.region_ids().collect();

    let start = Instant::now();
    let mut reference_hops = 0usize;
    for i in 1..=routes as u64 {
        let from = sources[(i as usize).wrapping_mul(7) % sources.len()];
        reference_hops += routing::route_uncached(&topo, from, hotspot_target(i))
            .expect("routable")
            .hop_count();
    }
    let reference_ns = start.elapsed().as_nanos() as f64 / routes as f64;

    let (greedy_ns, greedy_hops, _) = router_pass(&topo, &sources, routes, RouteOptions::greedy());
    assert_eq!(
        reference_hops, greedy_hops,
        "engines must walk identical paths"
    );
    let (express_ns, express_hops, express_prefix) =
        router_pass(&topo, &sources, routes, RouteOptions::express());
    assert!(
        express_hops <= reference_hops,
        "express walked {express_hops} total hops vs greedy {reference_hops}"
    );

    Row {
        regions: n,
        reference_ns,
        greedy_ns,
        express_ns,
        greedy_hops_mean: greedy_hops as f64 / routes as f64,
        express_hops_mean: express_hops as f64 / routes as f64,
        express_prefix_mean: express_prefix as f64 / routes as f64,
    }
}

/// Least-squares slope of ln(hops) against ln(regions) over
/// `(regions, hops_mean)` points: the fitted exponent b of hops ≈ a·N^b.
/// `null` with fewer than two sizes.
fn scaling_exponent(points: impl Iterator<Item = (usize, f64)>) -> String {
    let pts: Vec<(f64, f64)> = points.map(|(n, h)| ((n as f64).ln(), h.ln())).collect();
    if pts.len() < 2 {
        return "null".to_string();
    }
    let k = pts.len() as f64;
    let (sx, sy): (f64, f64) = pts.iter().fold((0.0, 0.0), |(a, b), p| (a + p.0, b + p.1));
    let (sxx, sxy) = pts
        .iter()
        .fold((0.0, 0.0), |(a, b), p| (a + p.0 * p.0, b + p.0 * p.1));
    format!("{:.4}", (k * sxy - sx * sy) / (k * sxx - sx * sx))
}

/// Sizes from `GEOGRID_BENCH_SIZES` / numeric CLI args; output path from
/// the first non-numeric argument.
fn parse_config() -> (Vec<usize>, usize, String) {
    let mut sizes: Vec<usize> = Vec::new();
    let mut out = "BENCH_routing.json".to_string();
    if let Ok(env_sizes) = std::env::var("GEOGRID_BENCH_SIZES") {
        sizes.extend(
            env_sizes
                .split(',')
                .filter_map(|s| s.trim().replace('_', "").parse::<usize>().ok()),
        );
    }
    for arg in std::env::args().skip(1) {
        match arg.replace('_', "").parse::<usize>() {
            Ok(n) => sizes.push(n),
            Err(_) => out = arg,
        }
    }
    if sizes.is_empty() {
        sizes.extend(DEFAULT_SIZES);
    }
    let routes = std::env::var("GEOGRID_BENCH_ROUTES")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(DEFAULT_ROUTES);
    (sizes, routes, out)
}

fn main() {
    let (sizes, routes, path) = parse_config();
    let config = ExperimentConfig::default();
    let rows: Vec<Row> = sizes.iter().map(|&n| measure(&config, n, routes)).collect();

    println!(
        "{:>8} {:>13} {:>10} {:>11} {:>12} {:>13} {:>11}",
        "regions",
        "reference_ns",
        "greedy_ns",
        "express_ns",
        "greedy_hops",
        "express_hops",
        "expr_prefix"
    );
    let mut entries = Vec::new();
    for r in &rows {
        println!(
            "{:>8} {:>13.0} {:>10.0} {:>11.0} {:>12.2} {:>13.2} {:>11.2}",
            r.regions,
            r.reference_ns,
            r.greedy_ns,
            r.express_ns,
            r.greedy_hops_mean,
            r.express_hops_mean,
            r.express_prefix_mean
        );
        entries.push(format!(
            "    {{\n      \"regions\": {},\n      \"reference_ns\": {:.1},\n      \"greedy_ns\": {:.1},\n      \"express_ns\": {:.1},\n      \"greedy_hops_mean\": {:.3},\n      \"express_hops_mean\": {:.3},\n      \"express_prefix_mean\": {:.3}\n    }}",
            r.regions,
            r.reference_ns,
            r.greedy_ns,
            r.express_ns,
            r.greedy_hops_mean,
            r.express_hops_mean,
            r.express_prefix_mean
        ));
    }

    let greedy_fit = scaling_exponent(rows.iter().map(|r| (r.regions, r.greedy_hops_mean)));
    let express_fit = scaling_exponent(rows.iter().map(|r| (r.regions, r.express_hops_mean)));
    println!("scaling exponent (hops ~ N^b): greedy b={greedy_fit}, express b={express_fit}");

    let json = format!(
        "{{\n  \"bench\": \"routing\",\n  \"command\": \"cargo run --release -p geogrid-bench --bin routing_bench\",\n  \"workload\": \"hot-spot stream: 80% of queries target one of 64 fixed hot points in a 2-mile square, 20% uniform, {routes} routes per size in one timed pass per engine (no warm-up: routing keeps no state between queries), basic-mode networks; reference = route_uncached, greedy = Router mesh walk, express = two-phase express-finger routing; ns are per route\",\n  \"scaling_exponent\": {{\n    \"greedy\": {greedy_fit},\n    \"express\": {express_fit}\n  }},\n  \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(&path, json).expect("write BENCH_routing.json");
    println!("-> wrote {path}");
}
