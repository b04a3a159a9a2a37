//! Criterion: routing on a hot-spot workload across network sizes
//! (1k / 4k / 16k regions), plus the greedy next-hop primitive — the
//! per-message costs behind the O(2√N) hop figure.
//!
//! *Reference* is [`routing::route_uncached`]: the original per-query
//! `HashSet` + `Vec` implementation. *Greedy* and *express* are
//! [`Router::route`] through one persistent [`Router`] (recycled stamp
//! and hop buffers; routing keeps nothing else between queries).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geogrid_bench::common::build_network;
use geogrid_bench::ExperimentConfig;
use geogrid_core::builder::Mode;
use geogrid_core::routing::{self, RouteOptions, Router};
use geogrid_core::{RegionId, Topology};
use geogrid_geometry::Point;
use std::hint::black_box;

/// Network sizes swept (basic mode: regions == nodes).
const SIZES: [usize; 3] = [1_024, 4_096, 16_384];

/// Fixed hot points in the hot-spot square.
const HOT_POINTS: u64 = 64;

/// Hot-spot query stream (paper §4): 80% of queries target one of
/// [`HOT_POINTS`] fixed places inside the 2-mile square (46, 46)–(48, 48)
/// — location queries name concrete destinations, so the hot stream
/// repeats exact coordinates — and the rest probe uniform points. Weyl
/// sequences keep the stream deterministic and allocation-free.
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

fn bench_routing(c: &mut Criterion) {
    let config = ExperimentConfig::default();
    let networks: Vec<Topology> = SIZES
        .iter()
        .map(|&n| build_network(&config, Mode::Basic, n, 0))
        .collect();

    let mut group = c.benchmark_group("route_reference");
    for topo in &networks {
        let sources: Vec<RegionId> = topo.region_ids().collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(topo.region_count()),
            topo,
            |b, topo| {
                let mut i = 0u64;
                b.iter(|| {
                    i = i.wrapping_add(1);
                    let from = sources[(i as usize).wrapping_mul(7) % sources.len()];
                    black_box(routing::route_uncached(topo, from, hotspot_target(i)).unwrap())
                })
            },
        );
    }
    group.finish();

    for (name, options) in [
        ("route_greedy", RouteOptions::Greedy),
        ("route_express", RouteOptions::Express),
    ] {
        let mut group = c.benchmark_group(name);
        for topo in &networks {
            let sources: Vec<RegionId> = topo.region_ids().collect();
            group.bench_with_input(
                BenchmarkId::from_parameter(topo.region_count()),
                topo,
                |b, topo| {
                    let mut router = Router::new();
                    let mut i = 0u64;
                    b.iter(|| {
                        i = i.wrapping_add(1);
                        let from = sources[(i as usize).wrapping_mul(7) % sources.len()];
                        black_box(
                            router
                                .route(topo, from, hotspot_target(i), &options)
                                .unwrap(),
                        )
                    })
                },
            );
        }
        group.finish();
    }

    let topo = &networks[1]; // 4,096 regions
    let from = topo.first_region().unwrap();
    c.bench_function("next_hop_4096", |b| {
        let visited = std::collections::HashSet::new();
        b.iter(|| {
            black_box(routing::next_hop(
                topo,
                from,
                Point::new(63.0, 63.0),
                &visited,
            ))
        })
    });
}

criterion_group!(benches, bench_routing);
criterion_main!(benches);
