//! `tcp_mix`: live `NodeRuntime`s on loopback TCP, driven in a closed loop
//! by one client with one operation outstanding — the path a real client
//! takes (`RuntimeHandle` → frame → `Envelope` → `NodeEngine` → store →
//! reply).

use std::time::{Duration, Instant};

use geogrid_core::engine::{ClientEvent, EngineMode, OwnerView};
use geogrid_core::service::{LocationQuery, Subscription};
use geogrid_core::NodeId;
use geogrid_geometry::{Point, Region, Space};
use geogrid_transport::{NodeRuntime, RuntimeConfig, RuntimeHandle};

use crate::gen::{
    self, Generator, Mix, Probes, SplitMix64, HOT_ORIGIN, HOT_SIDE, PROBES, RECORD_TTL_MS,
};
use crate::simload::engine_config;
use crate::stats::{self, Windowed};
use crate::trace::{Kind, OpKey, Tracer};
use crate::{Outcome, RunArgs};

const NODES: usize = 16;
const OBJECTS: usize = 2_000;
/// Objects kept inside the subscribed hot square; the loop re-publishes
/// these, so the state the queries read stays the same size all run.
const HOT_POOL: u64 = 64;
/// The node holding the standing subscription; clients are the nodes
/// after it.
pub const SUBSCRIBER: usize = 1;
/// An operation without its completion after this long has failed.
pub const OP_TIMEOUT: Duration = Duration::from_millis(500);
/// Set-up gives up on a gate after this long.
const GATE_PATIENCE: Duration = Duration::from_secs(10);
const QUERY_MIX: Mix = Mix {
    publish_pct: 0,
    query_pct: 100,
    extent: (0.25, 2.0),
};

/// The hot square, which is also the subscribed area.
fn hot_square() -> Region {
    Region::new(HOT_ORIGIN, HOT_ORIGIN, HOT_SIDE, HOT_SIDE)
}

/// A live overlay and the bookkeeping a client needs to recognise its
/// completions.
pub struct Cluster {
    pub handles: Vec<RuntimeHandle>,
    /// User queries issued per node; engines number them the same way.
    queries: Vec<u64>,
    pub views: Vec<OwnerView>,
    began: Instant,
}

impl Cluster {
    pub fn now_ms(&self) -> u64 {
        self.began.elapsed().as_millis() as u64
    }

    /// Starts `nodes` runtimes and joins them one at a time, each through
    /// the already-joined node nearest its coordinate, polling until it
    /// owns. Gate: the regions tile the space. Also returns how long each
    /// join took, in milliseconds.
    pub async fn start(nodes: usize) -> Result<(Cluster, Vec<f64>), String> {
        let space = Space::paper_evaluation();
        let mut layout = SplitMix64::new(gen::LAYOUT_SEED);
        let config = RuntimeConfig {
            engine: engine_config(EngineMode::Basic),
            ..RuntimeConfig::default()
        };
        let began = Instant::now();
        let mut join_ms = Vec::new();
        let mut handles: Vec<RuntimeHandle> = Vec::new();
        for i in 0..nodes {
            let handle = NodeRuntime::start(
                NodeId::new(i as u64),
                layout.point(),
                10.0,
                space,
                config.clone(),
            )
            .await
            .map_err(|e| format!("starting node {i}: {e}"))?;
            if i == 0 {
                handle.bootstrap().await;
            } else {
                let coord = handle.info().coord();
                let entry = handles
                    .iter()
                    .min_by(|a, b| {
                        let d = |h: &RuntimeHandle| h.info().coord().distance_squared(coord);
                        d(a).partial_cmp(&d(b)).expect("coordinates are finite")
                    })
                    .expect("node 0 exists");
                let join_began = Instant::now();
                let mut asked: Option<Instant> = None;
                while handle.owner_view().await.is_none() {
                    if join_began.elapsed() > GATE_PATIENCE {
                        return Err(format!("set-up gate: node {i} never became an owner"));
                    }
                    if asked.is_none_or(|t| t.elapsed() > Duration::from_secs(1)) {
                        asked = Some(Instant::now());
                        handle.join(entry.info().id(), entry.local_addr()).await;
                    }
                    tokio::time::sleep(Duration::from_millis(1)).await;
                }
                join_ms.push(join_began.elapsed().as_secs_f64() * 1e3);
                // The split's announcements travel one more hop.
                tokio::time::sleep(Duration::from_millis(10)).await;
            }
            handles.push(handle);
        }
        let mut cluster = Cluster {
            queries: vec![0; nodes],
            views: Vec::new(),
            handles,
            began,
        };
        cluster.views = cluster.gather_views().await?;
        let covered: f64 = cluster.views.iter().map(|v| v.region.area()).sum();
        if (covered - space.bounds().area()).abs() > 1e-6 {
            return Err(format!(
                "set-up gate: regions cover {covered}, not the whole space"
            ));
        }
        Ok((cluster, join_ms))
    }

    /// Installs the standing subscription over the hot square and
    /// preloads every object, polling until the subscription notifies
    /// and the nodes' record totals match the preload.
    async fn load(&mut self, generator: &mut Generator) -> Result<(), String> {
        let nodes = self.handles.len();
        let me = self.handles[SUBSCRIBER].info().id();
        self.handles[SUBSCRIBER]
            .subscribe(Subscription::new(1, hot_square(), me, RECORD_TTL_MS))
            .await;
        // Gate: the subscription is live once a publish into it notifies.
        for id in 0..HOT_POOL {
            let spot = generator.hot_place(id);
            let record = generator.objects.publish(id, spot, self.now_ms());
            if id > 0 {
                self.handles[2 % nodes].publish(record).await;
                continue;
            }
            let give_up = Instant::now() + GATE_PATIENCE;
            while self
                .publish_notified(2 % nodes, record.clone(), Duration::from_millis(100))
                .await
                .is_none()
            {
                if Instant::now() > give_up {
                    return Err("set-up gate: the standing subscription never notified".into());
                }
            }
        }
        let objects = generator.objects.len();
        for id in HOT_POOL..objects as u64 {
            let record = generator.objects.record(id, self.now_ms());
            self.handles[id as usize % nodes].publish(record).await;
            if id % 100 == 99 {
                tokio::time::sleep(Duration::from_millis(5)).await;
            }
        }
        let give_up = Instant::now() + GATE_PATIENCE;
        loop {
            self.views = self.gather_views().await?;
            let held: usize = self.views.iter().map(|v| v.records).sum();
            if held == objects {
                break;
            }
            if Instant::now() > give_up {
                return Err(format!(
                    "set-up gate: nodes hold {held} records, {objects} were preloaded"
                ));
            }
            tokio::time::sleep(Duration::from_millis(10)).await;
        }
        for node in 0..nodes {
            self.drain(node).await;
        }
        Ok(())
    }

    async fn gather_views(&self) -> Result<Vec<OwnerView>, String> {
        let mut views = Vec::new();
        for (i, handle) in self.handles.iter().enumerate() {
            views.push(
                handle
                    .owner_view()
                    .await
                    .ok_or(format!("node {i} is not an owner"))?,
            );
        }
        Ok(views)
    }

    /// Discards the events waiting at `node` (late partial results).
    async fn drain(&mut self, node: usize) {
        while self.handles[node]
            .next_event_timeout(Duration::ZERO)
            .await
            .is_some()
        {}
    }

    async fn issue_query(&mut self, node: usize, area: Region) -> u64 {
        let issuer = self.handles[node].info().id();
        self.queries[node] += 1;
        self.handles[node]
            .query(LocationQuery::new(area, issuer))
            .await;
        self.queries[node]
    }

    /// Queries from `node`; the time to the first `QueryResults` carrying
    /// this query's id, or `None` on timeout.
    pub async fn query(&mut self, node: usize, area: Region) -> Option<(Duration, OpKey)> {
        self.drain(node).await;
        let began = Instant::now();
        let id = self.issue_query(node, area).await;
        let deadline = began + OP_TIMEOUT;
        loop {
            let left = deadline.checked_duration_since(Instant::now())?;
            match self.handles[node].next_event_timeout(left).await? {
                ClientEvent::QueryResults { query_id, .. } if query_id == id => {
                    return Some((began.elapsed(), (node as u64, id)));
                }
                _ => {}
            }
        }
    }

    /// Publishes from `node`; the time until the subscriber is notified
    /// of exactly this record, or `None` on timeout.
    pub async fn publish_notified(
        &mut self,
        node: usize,
        record: geogrid_core::service::LocationRecord,
        timeout: Duration,
    ) -> Option<Duration> {
        self.drain(SUBSCRIBER).await;
        let expected = gen::returned(&record);
        let began = Instant::now();
        self.handles[node].publish(record).await;
        let deadline = began + timeout;
        loop {
            let left = deadline.checked_duration_since(Instant::now())?;
            match self.handles[SUBSCRIBER].next_event_timeout(left).await? {
                ClientEvent::Notified { record } if gen::returned(&record) == expected => {
                    return Some(began.elapsed());
                }
                _ => {}
            }
        }
    }

    /// Overlay hops the greedy rule takes from `node` to the owner of
    /// `target`, replayed over the owner views gathered after set-up.
    fn hops(&self, node: usize, target: Point) -> u64 {
        let space = Space::paper_evaluation();
        let (mut at, mut hops) = (node, 0);
        while !space.region_covers(&self.views[at].region, target) && hops < 64 {
            let next = self.views[at]
                .neighbors
                .iter()
                .map(|n| (n.region.distance_to_point(target), n.primary.id()))
                .min_by(|a, b| a.partial_cmp(b).expect("distances are finite"));
            match next {
                Some((_, id)) => at = id.as_u64() as usize,
                None => break,
            }
            hops += 1;
        }
        hops
    }

    /// The first client from `start` on whose own region is clear of
    /// `area`. A node that overlaps a query it issued without being its
    /// executor is sent its own partial result, and the runtime parks a
    /// message addressed to itself forever (its own address is never in
    /// its address book), so a union gathered there would be incomplete.
    fn client_clear_of(&self, start: usize, area: &Region) -> usize {
        let clients = self.handles.len() - 2;
        (0..clients)
            .map(|k| 2 + (start + k) % clients)
            .find(|&node| !self.views[node].region.intersects(area))
            .unwrap_or(2 + start % clients)
    }

    pub async fn shutdown(self) {
        for handle in &self.handles {
            handle.shutdown().await;
        }
    }
}

/// What one closed-loop phase measured.
#[derive(Default)]
struct Phase {
    wall_s: f64,
    attempted: u64,
    timed_out: u64,
    query_us: Vec<f64>,
    notify_us: Vec<f64>,
    /// Every completed operation: when, and its latency.
    windows: Windowed,
    hops: u64,
    query_hops: u64,
    generator_ns: u64,
}

impl Phase {
    fn rate(&self) -> f64 {
        self.windows.rate(self.wall_s)
    }
}

/// Alternates a hot-spot range query and a publish into the subscribed
/// square, from each client node in turn, one operation outstanding.
async fn run_phase(
    cluster: &mut Cluster,
    generator: &mut Generator,
    wall: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let clients = cluster.handles.len() - 2;
    let mut phase = Phase::default();
    let began = Instant::now();
    while began.elapsed() < wall {
        let node = 2 + (phase.attempted / 2) as usize % clients;
        let drawn = Instant::now();
        phase.attempted += 1;
        if phase.attempted % 2 == 1 {
            let area = generator.query_area();
            phase.generator_ns += drawn.elapsed().as_nanos() as u64;
            let hops = cluster.hops(node, area.center());
            phase.hops += hops;
            let start = Instant::now();
            match cluster.query(node, area).await {
                Some((took, op)) => {
                    phase.query_hops += hops;
                    phase.query_us.push(took.as_secs_f64() * 1e6);
                    let at = began.elapsed().as_secs_f64();
                    phase.windows.push(at, took.as_secs_f64() * 1e6, 1);
                    if let Some(t) = tracer.as_deref_mut() {
                        t.record(Kind::RuntimeQuery, start, start + took, Some(op));
                    }
                }
                None => phase.timed_out += 1,
            }
        } else {
            let id = generator.rng().below(HOT_POOL);
            let pos = generator.gps_step(generator.objects.position(id), &hot_square());
            let record = generator.objects.publish(id, pos, cluster.now_ms());
            phase.generator_ns += drawn.elapsed().as_nanos() as u64;
            phase.hops += cluster.hops(node, pos);
            let op = (id, u64::from(gen::returned(&record).1));
            let start = Instant::now();
            match cluster.publish_notified(node, record, OP_TIMEOUT).await {
                Some(took) => {
                    phase.notify_us.push(took.as_secs_f64() * 1e6);
                    let at = began.elapsed().as_secs_f64();
                    phase.windows.push(at, took.as_secs_f64() * 1e6, 1);
                    if let Some(t) = tracer.as_deref_mut() {
                        t.record(Kind::RuntimeNotify, start, start + took, Some(op));
                    }
                }
                None => phase.timed_out += 1,
            }
        }
    }
    phase.wall_s = began.elapsed().as_secs_f64();
    phase
}

/// Issues [`PROBES`] range queries from the clients in turn, gathers
/// every partial result, and checks each union against the oracle.
async fn probe(cluster: &mut Cluster, generator: &mut Generator) -> (u64, Option<String>) {
    let nodes = cluster.handles.len();
    for node in 0..nodes {
        cluster.drain(node).await;
    }
    let mut probes = Probes::default();
    for i in 0..PROBES {
        let area = generator.probe_area(i);
        let node = cluster.client_clear_of(i, &area);
        let id = cluster.issue_query(node, area).await;
        probes.ask((node as u64, id), area);
        tokio::time::sleep(Duration::from_millis(2)).await;
    }
    tokio::time::sleep(Duration::from_millis(300)).await;
    for node in 0..nodes {
        while let Some(event) = cluster.handles[node]
            .next_event_timeout(Duration::ZERO)
            .await
        {
            if let ClientEvent::QueryResults { query_id, records } = event {
                probes.gather((node as u64, query_id), &records);
            }
        }
    }
    probes.verdict(&generator.objects)
}

/// What the stacked estimate behind `bench.unattributed_share` needs from
/// the workload.
#[derive(Debug, Clone, Copy)]
pub struct QueryPath {
    pub query_p50_us: f64,
    pub mean_hops: f64,
}

async fn run_async(args: &RunArgs) -> Result<Outcome, String> {
    let (nodes, objects) = if args.smoke {
        (NODES / 2, OBJECTS / 4)
    } else {
        (NODES, OBJECTS)
    };
    let mut generator = Generator::new(args.seed, objects, QUERY_MIX);
    let began = Instant::now();
    let (mut cluster, _) = Cluster::start(nodes).await?;
    cluster.load(&mut generator).await?;
    let mut setup_times = vec![began.elapsed().as_secs_f64()];

    run_phase(&mut cluster, &mut generator, args.warmup(), None).await;
    let mut outcome = Outcome::new("tcp_mix");
    let measured = if args.trace {
        let half = args.measure() / 2;
        let untraced = run_phase(&mut cluster, &mut generator, half, None).await;
        let mut tracer = Tracer::new();
        let traced = run_phase(&mut cluster, &mut generator, half, Some(&mut tracer)).await;
        outcome.trace_overhead_share = 1.0 - traced.rate() / untraced.rate();
        outcome.generator_ns_per_op = traced.generator_ns as f64 / traced.attempted as f64;
        outcome.tracer = Some(tracer);
        traced
    } else {
        run_phase(&mut cluster, &mut generator, args.measure(), None).await
    };
    let (probe_failures, first_failure) = probe(&mut cluster, &mut generator).await;
    if let Some(why) = first_failure {
        eprintln!("tcp_mix: {why}");
    }
    cluster.shutdown().await;
    // The set-ups that follow exist only to time `setup_s`.
    for _ in 1..args.setups {
        let mut again = Generator::new(args.seed, objects, QUERY_MIX);
        let began = Instant::now();
        let (mut cluster, _) = Cluster::start(nodes).await?;
        cluster.load(&mut again).await?;
        setup_times.push(began.elapsed().as_secs_f64());
        cluster.shutdown().await;
    }

    let (mut query_us, mut notify_us) = (measured.query_us.clone(), measured.notify_us.clone());
    let summary = measured
        .windows
        .summary(measured.wall_s)
        .filter(|_| !query_us.is_empty() && !notify_us.is_empty())
        .ok_or("a window of the measured phase completed no operation")?;
    stats::sort(&mut query_us);
    stats::sort(&mut notify_us);
    outcome.attempted = measured.attempted + PROBES as u64;
    outcome.failed = measured.timed_out + probe_failures;
    outcome.setup_times = setup_times;
    outcome.window_summary(summary);
    outcome.e2e(
        "hops_per_op",
        measured.hops as f64 / measured.attempted as f64,
    );
    let (q_tail, q_tail_us) = stats::supported_tail(&query_us);
    let (n_tail, n_tail_us) = stats::supported_tail(&notify_us);
    outcome.query_path = Some(QueryPath {
        query_p50_us: stats::percentile(&query_us, 50.0),
        mean_hops: measured.query_hops as f64 / query_us.len() as f64,
    });
    outcome.note("nodes", nodes);
    outcome.note("objects", objects);
    outcome.note("engine_mode", "Basic");
    outcome.note(
        "loop",
        "closed, 1 client, 1 outstanding op; 500 ms timeout = failed",
    );
    outcome.note("query_samples", query_us.len());
    outcome.note("query_p50_us", stats::percentile(&query_us, 50.0));
    outcome.note(&format!("query_p{q_tail}_us"), q_tail_us);
    outcome.note("notify_samples", notify_us.len());
    outcome.note("notify_p50_us", stats::percentile(&notify_us, 50.0));
    outcome.note(&format!("notify_p{n_tail}_us"), n_tail_us);
    outcome.note("timed_out", measured.timed_out);
    outcome.note("measured_wall_s", measured.wall_s);
    Ok(outcome)
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    tokio::runtime::block_on(run_async(args))
}
