//! `model_route`: the central model only — one reader thread routes the
//! hot-spot stream with express links on the latest published snapshot
//! while a paced writer splits and merges regions. Engine, store and
//! transport are bypassed.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use geogrid_core::builder::{Mode, NetworkBuilder};
use geogrid_core::routing::{self, RouteOptions, Router};
use geogrid_core::snapshot::{SnapshotReader, TopologySnapshot, TopologyView};
use geogrid_core::{RegionId, Topology};
use geogrid_geometry::{Point, Space};

use crate::gen::{SplitMix64, HOT_ORIGIN, HOT_POINTS, HOT_SIDE, LAYOUT_SEED};
use crate::stats::{self, Windowed};
use crate::trace::{Kind, Tracer};
use crate::{Outcome, RunArgs};

pub const REGIONS: usize = 65_536;
/// Pause between writer operations: an overlay's churn pace, not a
/// routing-rate event. Every operation publishes a snapshot and flushes
/// the reader's epoch-keyed caches.
const WRITER_PACE: Duration = Duration::from_millis(160);
/// Routes timed together; one latency sample is a batch's mean.
const BATCH: usize = 64;
/// Every this-many-th route is checked against `route_uncached`.
const PARITY_EVERY: u64 = 512;

/// Builds the `regions`-region basic network the workload routes on.
pub fn build(regions: usize) -> Topology {
    NetworkBuilder::new(Space::paper_evaluation(), LAYOUT_SEED)
        .mode(Mode::Basic)
        .build(regions)
        .into_topology()
}

/// The seeded hot-spot target stream: 80% one of 64 fixed hot places in
/// the hot square, 20% uniform.
pub struct Targets {
    rng: SplitMix64,
    hot: Vec<Point>,
}

impl Targets {
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x3C6E_F372_FE94_F82B);
        let hot = (0..HOT_POINTS)
            .map(|_| {
                Point::new(
                    HOT_ORIGIN + HOT_SIDE * rng.unit(),
                    HOT_ORIGIN + HOT_SIDE * rng.unit(),
                )
            })
            .collect();
        Self { rng, hot }
    }

    pub fn next(&mut self) -> Point {
        if self.rng.percent(80) {
            self.hot[self.rng.below(HOT_POINTS as u64) as usize]
        } else {
            self.rng.point()
        }
    }

    /// A live region to route from, probing linearly from a random slot.
    pub fn source<V: TopologyView + ?Sized>(&mut self, view: &V) -> RegionId {
        let slots = view.slot_count();
        let mut s = self.rng.below(slots as u64) as usize;
        while !view.is_live(s) {
            s = (s + 1) % slots;
        }
        RegionId::new(s as u32)
    }
}

/// Splits the region covering `at` for a freshly registered node.
pub fn grow(t: &mut Topology, at: Point) -> bool {
    let Ok(rid) = t.locate(at) else { return false };
    let primary = t.region(rid).expect("located regions are live").primary();
    let joiner = t.register_node(at, 10.0);
    t.split_region(rid, primary, joiner).is_ok()
}

/// Merges the region covering `at` with a neighbour it re-forms a
/// rectangle with, if it has one.
pub fn shrink(t: &mut Topology, at: Point) -> bool {
    let Ok(rid) = t.locate(at) else { return false };
    let entry = t.region(rid).expect("located regions are live");
    let (rect, primary) = (entry.region(), entry.primary());
    let partner = entry.neighbors().iter().copied().find(|&n| {
        t.region(n)
            .is_some_and(|ne| rect.merge(&ne.region()).is_some())
    });
    partner.is_some_and(|n| t.merge_regions(rid, n, primary, None).is_ok())
}

#[derive(Default)]
struct ReaderStats {
    routes: u64,
    hops: u64,
    errors: u64,
    parity_checks: u64,
    parity_failures: u64,
    epochs_seen: u64,
    /// One sample per batch: mean microseconds per route.
    windows: Windowed,
    generator_ns: u64,
    wall_s: f64,
}

struct Phase {
    reader: ReaderStats,
    /// `(kind, start, end)` of every writer operation.
    churn: Vec<(Kind, Instant, Instant)>,
}

fn read_loop(
    reader: &mut SnapshotReader,
    router: &mut Router,
    targets: &mut Targets,
    stop: &AtomicBool,
    mut tracer: Option<&mut Tracer>,
) -> ReaderStats {
    let express = RouteOptions::express();
    let mut stats = ReaderStats::default();
    let mut last_epoch = reader.current().epoch();
    let began = Instant::now();
    while !stop.load(Ordering::Acquire) {
        let mut last = None;
        let batch_began = Instant::now();
        for _ in 0..BATCH {
            let drawn = tracer.is_some().then(Instant::now);
            let snap: &TopologySnapshot = reader.current();
            let from = targets.source(snap);
            let target = targets.next();
            let start = drawn.map(|d| {
                let now = Instant::now();
                stats.generator_ns += (now - d).as_nanos() as u64;
                now
            });
            let routed = router.route(snap, from, target, &express);
            if let (Some(t), Some(start)) = (tracer.as_deref_mut(), start) {
                t.record(Kind::Route, start, Instant::now(), Some((stats.routes, 0)));
            }
            stats.routes += 1;
            match routed {
                Ok(executor) => {
                    stats.hops += router.hop_count() as u64;
                    last = Some((from, target, executor));
                }
                Err(_) => stats.errors += 1,
            }
        }
        let batch_ended = Instant::now();
        stats.windows.push(
            (batch_ended - began).as_secs_f64(),
            (batch_ended - batch_began).as_secs_f64() * 1e6 / BATCH as f64,
            BATCH as u32,
        );
        // Outside the timed batch: epoch bookkeeping and the parity check
        // of the batch's last route, on the snapshot it was routed on.
        let snap = reader.pinned();
        if snap.epoch() != last_epoch {
            stats.epochs_seen += 1;
            last_epoch = snap.epoch();
        }
        if stats.routes % PARITY_EVERY < BATCH as u64 {
            if let Some((from, target, executor)) = last {
                stats.parity_checks += 1;
                let reference = routing::route_uncached(&**snap, from, target);
                if reference.map(|r| r.executor).ok() != Some(executor) {
                    stats.parity_failures += 1;
                }
            }
        }
    }
    stats.wall_s = began.elapsed().as_secs_f64();
    stats
}

/// One phase: the reader routes back to back on its own thread while this
/// thread is the paced writer.
fn run_phase(
    topo: &mut Topology,
    router: &mut Router,
    targets: &mut Targets,
    churn_rng: &mut SplitMix64,
    wall: Duration,
    tracer: Option<&mut Tracer>,
) -> Phase {
    let cell = topo.publish_handle();
    let stop = AtomicBool::new(false);
    let start = Barrier::new(2);
    let mut churn = Vec::new();
    let reader = std::thread::scope(|s| {
        let handle = s.spawn(|| {
            let mut reader = cell.reader();
            start.wait();
            read_loop(&mut reader, router, targets, &stop, tracer)
        });
        start.wait();
        let began = Instant::now();
        let mut ops = 0u64;
        while began.elapsed() + WRITER_PACE < wall {
            std::thread::sleep(WRITER_PACE);
            let at = churn_rng.point();
            let op_began = Instant::now();
            // Two splits to one merge keeps the network near its size.
            let (kind, done) = if ops % 3 == 2 {
                (Kind::Merge, shrink(topo, at))
            } else {
                (Kind::Split, grow(topo, at))
            };
            if done {
                churn.push((kind, op_began, Instant::now()));
            }
            ops += 1;
        }
        std::thread::sleep(wall.saturating_sub(began.elapsed()));
        stop.store(true, Ordering::Release);
        handle.join().expect("the reader thread does not panic")
    });
    Phase { reader, churn }
}

impl ReaderStats {
    fn rate(&self) -> f64 {
        self.windows.rate(self.wall_s)
    }
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let regions = if args.smoke { REGIONS / 16 } else { REGIONS };
    let began = Instant::now();
    let mut topo = build(regions);
    let mut setup_times = vec![began.elapsed().as_secs_f64()];
    if topo.region_count() != regions {
        return Err(format!(
            "set-up gate: built {} regions, wanted {regions}",
            topo.region_count()
        ));
    }
    let mut router = Router::new();
    let mut targets = Targets::new(args.seed);
    let mut churn_rng = SplitMix64::new(args.seed ^ 0xA54F_F53A_5F1D_36F1);
    let mut outcome = Outcome::new("model_route");

    run_phase(
        &mut topo,
        &mut router,
        &mut targets,
        &mut churn_rng,
        args.warmup(),
        None,
    );
    let measured = if args.trace {
        let half = args.measure() / 2;
        let untraced = run_phase(
            &mut topo,
            &mut router,
            &mut targets,
            &mut churn_rng,
            half,
            None,
        );
        let mut tracer = Tracer::new();
        let traced = run_phase(
            &mut topo,
            &mut router,
            &mut targets,
            &mut churn_rng,
            half,
            Some(&mut tracer),
        );
        for &(kind, start, end) in &traced.churn {
            tracer.record(kind, start, end, None);
        }
        let r = &traced.reader;
        outcome.trace_overhead_share = 1.0 - r.rate() / untraced.reader.rate();
        outcome.generator_ns_per_op = r.generator_ns as f64 / r.routes as f64;
        outcome.unattributed_share = 1.0 - tracer.total_ns(Kind::Route) / (r.wall_s * 1e9);
        outcome.tracer = Some(tracer);
        traced
    } else {
        run_phase(
            &mut topo,
            &mut router,
            &mut targets,
            &mut churn_rng,
            args.measure(),
            None,
        )
    };
    topo.validate()
        .map_err(|why| format!("topology invalid after the churn: {why}"))?;
    // The set-ups that follow exist only to time `setup_s`.
    drop(topo);
    for _ in 1..args.setups {
        let began = Instant::now();
        black_box(build(regions));
        setup_times.push(began.elapsed().as_secs_f64());
    }

    let reader = &measured.reader;
    let summary = reader
        .windows
        .summary(reader.wall_s)
        .ok_or("a window of the measured phase routed nothing")?;
    let mut churn_ms: Vec<f64> = measured
        .churn
        .iter()
        .map(|(_, start, end)| (*end - *start).as_secs_f64() * 1e3)
        .collect();
    stats::sort(&mut churn_ms);
    if churn_ms.is_empty() {
        return Err("the measured phase was too short for one churn operation".into());
    }
    if reader.parity_failures > 0 {
        eprintln!(
            "model_route: {} of {} parity checks disagreed with route_uncached",
            reader.parity_failures, reader.parity_checks
        );
    }
    outcome.attempted = reader.routes;
    outcome.failed = reader.errors + reader.parity_failures;
    outcome.setup_times = setup_times;
    outcome.window_summary(summary);
    outcome.e2e("hops_per_op", reader.hops as f64 / reader.routes as f64);
    let (tail, tail_ms) = stats::supported_tail(&churn_ms);
    outcome.note("regions", regions);
    outcome.note(
        "loop",
        "closed: 1 reader back to back + 1 writer every 160 ms (2 splits : 1 merge)",
    );
    outcome.note("routes", reader.routes);
    outcome.note("parity_checks", reader.parity_checks);
    outcome.note("reader_epochs_seen", reader.epochs_seen);
    outcome.note("churn_ops", churn_ms.len());
    outcome.note("churn_op_p50_ms", stats::percentile(&churn_ms, 50.0));
    outcome.note(&format!("churn_op_p{tail}_ms"), tail_ms);
    outcome.note("router_hit_rate", router.hit_rate());
    outcome.note("measured_wall_s", reader.wall_s);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_keeps_the_topology_valid_and_routes_agree_with_the_reference() {
        let mut topo = build(256);
        let mut rng = SplitMix64::new(9);
        let (mut grown, mut shrunk) = (0, 0);
        for i in 0..60 {
            let at = rng.point();
            if i % 3 == 2 {
                shrunk += u32::from(shrink(&mut topo, at));
            } else {
                grown += u32::from(grow(&mut topo, at));
            }
        }
        assert!(grown > 0 && shrunk > 0);
        topo.validate().expect("valid after churn");

        let mut router = Router::new();
        let mut targets = Targets::new(5);
        let mut churn_rng = SplitMix64::new(6);
        let phase = run_phase(
            &mut topo,
            &mut router,
            &mut targets,
            &mut churn_rng,
            Duration::from_millis(400),
            None,
        );
        assert!(phase.reader.routes > 0 && phase.reader.parity_checks > 0);
        assert_eq!(phase.reader.errors + phase.reader.parity_failures, 0);
        assert!(!phase.churn.is_empty());
    }
}
