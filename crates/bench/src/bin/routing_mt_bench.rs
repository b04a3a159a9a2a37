//! Machine-readable concurrent-routing baseline: routes/sec for N reader
//! threads routing lock-free over epoch-published topology snapshots
//! while a writer thread churns the live geometry, written to
//! `BENCH_routing_mt.json`.
//!
//! Regenerate with exactly one command (from the repo root):
//!
//! ```text
//! cargo run --release -p geogrid-bench --bin routing_mt_bench
//! ```
//!
//! The network size comes from `GEOGRID_MT_REGIONS` (default 65,536), the
//! swept thread counts from `GEOGRID_MT_THREADS` (comma-separated, default
//! `1,2,4,8`), and the per-trial measurement window from `GEOGRID_MT_MS`
//! (default 1,500 ms). A non-numeric CLI argument names the output file.
//!
//! Each trial pins T reader threads on one shared [`SnapshotCell`]: every
//! reader holds its own `SnapshotReader` (steady state: one atomic
//! version load per query) and `Router` (private scratch) and
//! routes a deterministic hot-spot stream for the whole window, while the
//! writer splits and merges regions at a fixed pace so snapshots actually
//! change hands mid-trial. Every 512th query is verified hop-for-hop
//! against the allocating `route_uncached` reference *on the same
//! snapshot* — under churn, parity is meaningful only against the pinned
//! epoch, never the moving topology.
//!
//! Reported scaling is honest about the host: `speedup` is raw
//! routes/sec over the single-thread trial, and `efficiency` normalizes
//! that by the *attainable* ideal `min(threads, host_cores)` — on a
//! single-core host 8 threads cannot beat 1× throughput, and the
//! interesting number is how little the lock-free read path loses to
//! scheduling overhead (≥ 0.7 = the snapshot design scales).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use geogrid_bench::common::build_network;
use geogrid_bench::ExperimentConfig;
use geogrid_core::builder::Mode;
use geogrid_core::routing::{self, RouteOptions, Router};
use geogrid_core::snapshot::{TopologySnapshot, TopologyView};
use geogrid_core::{RegionId, Topology};
use geogrid_geometry::Point;

/// Default region count (matches the acceptance sweep).
const DEFAULT_REGIONS: usize = 65_536;

/// Default reader thread counts swept.
const DEFAULT_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Default measurement window per thread count, in milliseconds.
const DEFAULT_WINDOW_MS: u64 = 1_500;

/// Check every Nth query hop-for-hop against `route_uncached`.
const PARITY_EVERY: u64 = 512;

/// Pause between writer mutations: churn at a realistic overlay pace
/// (~6 splits+merges/sec — node arrivals/departures, not a routing-rate
/// event) instead of saturating the core the readers need. Pathological
/// churn is the stress test's job (`concurrent_routing.rs`); this bench
/// measures the steady lock-free read path while snapshots change hands.
const WRITER_PACE: Duration = Duration::from_millis(160);

/// Deterministic per-thread query stream (Weyl sequence): 80% of queries
/// hit one of 64 fixed hot points in a 2-mile square, 20% probe uniform.
fn target(thread: u64, i: u64) -> Point {
    let k = thread * 1_000_000_007 + i;
    if k.is_multiple_of(5) {
        let u = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64;
        let v = (k.wrapping_mul(0xD1B5_4A32_D192_ED03) >> 11) as f64 / (1u64 << 53) as f64;
        Point::new(u * 64.0, v * 64.0)
    } else {
        let h = k.wrapping_mul(0xD1B5_4A32_D192_ED03) % 64 + 1;
        let u = (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64;
        let v = (h.wrapping_mul(0xD1B5_4A32_D192_ED03) >> 11) as f64 / (1u64 << 53) as f64;
        Point::new(46.0 + 2.0 * u, 46.0 + 2.0 * v)
    }
}

/// A live region of `snap` near slot `k` (linear probe over the slot
/// table; cheap because live density stays high under the churn mix).
fn pick_live(snap: &TopologySnapshot, k: usize) -> RegionId {
    let slots = snap.slot_count();
    let mut s = k % slots;
    loop {
        if snap.is_live(s) {
            return RegionId::new(s as u32);
        }
        s = (s + 1) % slots;
    }
}

fn grow(t: &mut Topology, at: Point) {
    let Ok(rid) = t.locate_scan(at) else { return };
    let primary = t.region(rid).expect("live").primary();
    let j = t.register_node(at, 10.0);
    let _ = t.split_region(rid, primary, j);
}

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
            let _ = t.merge_regions(rid, n, primary, None);
            return;
        }
    }
}

/// Writer pace from `GEOGRID_MT_CHURN_MS` (0 disables the writer; the
/// trial then measures the pure steady-state read path).
fn writer_pace() -> Option<Duration> {
    match std::env::var("GEOGRID_MT_CHURN_MS")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
    {
        Some(0) => None,
        Some(ms) => Some(Duration::from_millis(ms)),
        None => Some(WRITER_PACE),
    }
}

struct Trial {
    threads: usize,
    routes: u64,
    hops: u64,
    parity_checks: u64,
    writer_ops: u64,
    epochs_seen: u64,
    elapsed_s: f64,
}

/// One measurement window with `threads` readers and the churn writer.
fn run_trial(t: &mut Topology, threads: usize, window: Duration) -> Trial {
    let cell = t.publish_handle();
    let stop = AtomicBool::new(false);
    let start = Barrier::new(threads + 1);
    let began = Instant::now();
    let (mut writer_ops, mut results) = (0u64, Vec::new());
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for thread in 0..threads as u64 {
            let mut reader = cell.reader();
            let (stop, start) = (&stop, &start);
            handles.push(s.spawn(move || {
                let mut router = Router::new();
                let greedy = RouteOptions::greedy();
                let (mut routes, mut hops, mut checks, mut epochs) = (0u64, 0u64, 0u64, 0u64);
                let mut last_epoch = 0u64;
                start.wait();
                while !stop.load(Ordering::Acquire) {
                    // No Arc clone per query: route on the borrowed
                    // snapshot (steady state = one atomic version load);
                    // cloning would bounce the refcount line between
                    // every reader thread.
                    let snap: &TopologySnapshot = reader.current();
                    assert!(snap.epoch() >= last_epoch, "epoch moved backwards");
                    if snap.epoch() != last_epoch {
                        epochs += 1;
                        last_epoch = snap.epoch();
                    }
                    let from = pick_live(snap, (routes as usize).wrapping_mul(7919));
                    let q = target(thread + 1, routes);
                    let executor = router
                        .route(snap, from, q, &greedy)
                        .expect("routable on snapshot");
                    hops += router.hop_count() as u64;
                    if routes.is_multiple_of(PARITY_EVERY) {
                        let reference = routing::route_uncached(snap, from, q).expect("reference");
                        assert_eq!(executor, reference.executor, "executor diverged");
                        assert_eq!(router.hops(), &reference.hops[..], "hops diverged");
                        checks += 1;
                    }
                    routes += 1;
                }
                (routes, hops, checks, epochs)
            }));
        }

        // Churn writer: paced split/merge storm on the live topology.
        start.wait();
        let pace = writer_pace();
        while began.elapsed() < window {
            match pace {
                Some(pace) => {
                    let i = writer_ops;
                    let p = target(997, i * 3 + 1);
                    if i % 3 == 2 {
                        shrink(t, p);
                    } else {
                        grow(t, p);
                    }
                    writer_ops += 1;
                    std::thread::sleep(pace);
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        stop.store(true, Ordering::Release);
        results = handles
            .into_iter()
            .map(|h| h.join().expect("reader panicked"))
            .collect();
    });
    let elapsed_s = began.elapsed().as_secs_f64();
    Trial {
        threads,
        routes: results.iter().map(|r| r.0).sum(),
        hops: results.iter().map(|r| r.1).sum(),
        parity_checks: results.iter().map(|r| r.2).sum(),
        writer_ops,
        epochs_seen: results.iter().map(|r| r.3).sum(),
        elapsed_s,
    }
}

fn parse_config() -> (usize, Vec<usize>, Duration, String) {
    let regions = std::env::var("GEOGRID_MT_REGIONS")
        .ok()
        .and_then(|s| s.trim().replace('_', "").parse().ok())
        .unwrap_or(DEFAULT_REGIONS);
    let mut threads: Vec<usize> = std::env::var("GEOGRID_MT_THREADS")
        .map(|s| s.split(',').filter_map(|x| x.trim().parse().ok()).collect())
        .unwrap_or_default();
    if threads.is_empty() {
        threads.extend(DEFAULT_THREADS);
    }
    let window = Duration::from_millis(
        std::env::var("GEOGRID_MT_MS")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(DEFAULT_WINDOW_MS),
    );
    let mut out = "BENCH_routing_mt.json".to_string();
    for arg in std::env::args().skip(1) {
        if arg.parse::<usize>().is_err() {
            out = arg;
        }
    }
    (regions, threads, window, out)
}

fn main() {
    let (regions, threads, window, path) = parse_config();
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let config = ExperimentConfig::default();
    eprintln!("routing_mt_bench: building {regions}-region network...");
    let built = Instant::now();
    let mut topo = build_network(&config, Mode::Basic, regions, 0);
    eprintln!(
        "routing_mt_bench: built in {:.1}s; host has {host_cores} core(s)",
        built.elapsed().as_secs_f64()
    );

    let trials: Vec<Trial> = threads
        .iter()
        .map(|&n| run_trial(&mut topo, n, window))
        .collect();
    let base_rps = trials
        .first()
        .map(|t| t.routes as f64 / t.elapsed_s)
        .unwrap_or(1.0);

    println!(
        "{:>7} {:>12} {:>12} {:>8} {:>10} {:>9} {:>7} {:>7}",
        "threads", "routes", "routes/sec", "speedup", "efficiency", "hops_mean", "parity", "epochs"
    );
    let mut entries = Vec::new();
    for t in &trials {
        let rps = t.routes as f64 / t.elapsed_s;
        let speedup = rps / base_rps;
        let ideal = t.threads.min(host_cores) as f64;
        let efficiency = speedup / ideal;
        let hops_mean = t.hops as f64 / t.routes.max(1) as f64;
        println!(
            "{:>7} {:>12} {:>12.0} {:>7.2}x {:>10.3} {:>9.2} {:>7} {:>7}",
            t.threads,
            t.routes,
            rps,
            speedup,
            efficiency,
            hops_mean,
            t.parity_checks,
            t.epochs_seen
        );
        entries.push(format!(
            "    {{\n      \"threads\": {},\n      \"routes\": {},\n      \"elapsed_s\": {:.3},\n      \"routes_per_sec\": {:.0},\n      \"speedup_vs_1\": {:.3},\n      \"efficiency_vs_ideal\": {:.3},\n      \"hops_mean\": {:.3},\n      \"parity_checks\": {},\n      \"writer_ops\": {},\n      \"distinct_epochs_seen\": {}\n    }}",
            t.threads,
            t.routes,
            t.elapsed_s,
            rps,
            speedup,
            efficiency,
            hops_mean,
            t.parity_checks,
            t.writer_ops,
            t.epochs_seen
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"routing_mt\",\n  \"command\": \"cargo run --release -p geogrid-bench --bin routing_mt_bench\",\n  \"workload\": \"{regions}-region basic network; T reader threads route the hot-spot stream lock-free on epoch-published snapshots (every {PARITY_EVERY}th query verified hop-for-hop vs route_uncached on the same snapshot) while one writer splits/merges at ~6 ops/sec\",\n  \"host_cores\": {host_cores},\n  \"note\": \"speedup is raw routes/sec vs the 1-thread trial; efficiency_vs_ideal divides speedup by min(threads, host_cores) — the attainable ideal on this host\",\n  \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(&path, json).expect("write BENCH_routing_mt.json");
    println!("-> wrote {path}");
}
