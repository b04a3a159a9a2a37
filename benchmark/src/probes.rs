//! Per-layer metrics of a traced run: direct-drive probes of each layer's
//! public functions, measured the same way whatever workload ran, plus the
//! figures the workload's own spans gave.

use std::hint::black_box;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use geogrid_core::engine::{Message, NeighborInfo};
use geogrid_core::routing::{self, RouteOptions, Router};
use geogrid_core::service::{LocationQuery, LocationRecord, RegionStore, Subscription};
use geogrid_core::snapshot::TopologyView;
use geogrid_core::{NodeId, NodeInfo, Topology};
use geogrid_geometry::{Point, Region};
use geogrid_transport::frame::{read_frame, write_frame};
use geogrid_transport::wire::referenced_nodes;
use geogrid_transport::Envelope;
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::mpsc;

use crate::gen::{self, Generator, Mix, SplitMix64, RECORD_TTL_MS, SPACE_SIDE};
use crate::model::{self, Targets};
use crate::simload;
use crate::spec::WIRE_SHAPES;
use crate::tcpload::{Cluster, OP_TIMEOUT, SUBSCRIBER};
use crate::{host, stats, value_of, Outcome, RunArgs};

type Metrics = Vec<(String, f64)>;

/// Median over `chunks` of the mean nanoseconds one call of `f` takes
/// across `iters` back-to-back calls.
fn time_ns(iters: usize, chunks: usize, mut f: impl FnMut()) -> f64 {
    let per_chunk: Vec<f64> = (0..chunks)
        .map(|_| {
            let began = Instant::now();
            for _ in 0..iters {
                f();
            }
            began.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::median(&per_chunk)
}

const PROBE_MIX: Mix = Mix {
    publish_pct: 100,
    query_pct: 0,
    extent: (0.25, 2.0),
};

// ---------------------------------------------------------------- wire

fn node_info(id: u64) -> NodeInfo {
    NodeInfo::new(NodeId::new(id), Point::new(10.0 + id as f64, 20.0), 10.0)
}

fn addr_of(id: u64) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], 40_000 + id as u16))
}

fn neighbor(id: u64) -> NeighborInfo {
    NeighborInfo::new(node_info(id), Region::new(8.0 * id as f64, 16.0, 8.0, 8.0))
}

/// The five representative envelopes, in [`WIRE_SHAPES`] order, addressed
/// the way `runtime.rs` addresses them (one address-book entry per node
/// the message references).
fn envelopes(generator: &Generator) -> Vec<Envelope> {
    let record = |id: u64| generator.objects.record(id, 0);
    let query = LocationQuery::new(Region::new(46.0, 46.0, 1.0, 1.0), NodeId::new(3));
    let mut replica = RegionStore::new();
    for id in 0..1_024 {
        replica.publish(record(id), 1);
    }
    let messages = vec![
        Message::Publish {
            record: record(1),
            hops: 3,
        },
        Message::Query {
            query,
            query_id: 77,
            reply_to: NodeId::new(3),
            hops: 3,
            fanout: false,
        },
        Message::QueryReply {
            query_id: 77,
            records: (0..32).map(record).collect(),
        },
        Message::Heartbeat {
            info: neighbor(2),
            index: 0.5,
        },
        Message::SyncState {
            store: Box::new(replica),
            neighbors: (1..=6).map(neighbor).collect(),
        },
    ];
    messages
        .into_iter()
        .map(|message| Envelope {
            sender: node_info(2),
            sender_addr: addr_of(2),
            addrs: referenced_nodes(&message)
                .into_iter()
                .map(|id| (id, addr_of(id.as_u64())))
                .collect(),
            message,
        })
        .collect()
}

fn wire(generator: &Generator, m: &mut Metrics) -> Vec<u8> {
    let mut publish_bytes = Vec::new();
    for (shape, envelope) in WIRE_SHAPES.iter().zip(envelopes(generator)) {
        let bytes = envelope.encode();
        let iters = (2_000_000 / bytes.len()).clamp(20, 20_000);
        let encode = time_ns(iters, 5, || {
            black_box(black_box(&envelope).encode());
        });
        let decode = time_ns(iters, 5, || {
            black_box(Envelope::decode(black_box(&bytes)).expect("decodes what encode wrote"));
        });
        m.push((format!("transport.wire.encode_ns.{shape}"), encode));
        m.push((format!("transport.wire.decode_ns.{shape}"), decode));
        m.push((format!("transport.wire.bytes.{shape}"), bytes.len() as f64));
        if *shape == "publish" {
            publish_bytes = bytes.to_vec();
        }
    }
    publish_bytes
}

// --------------------------------------------------------------- frame

/// Fresh connections timed.
const FRAME_ROUNDS: usize = 300;
/// Round trips timed on the established connection. Few, because each
/// takes two delayed-ACK periods: `write_frame` writes the length and the
/// payload separately and the sockets leave Nagle's algorithm on.
const REUSED_ROUNDS: usize = 15;

/// `write_frame`/`read_frame` over loopback sockets the probe opens:
/// a round trip on an established connection, and what `transmit` pays
/// per message today — connect, one frame, the peer's read on a freshly
/// spawned task.
async fn frame(seed: u64, payload: &[u8], m: &mut Metrics) -> Result<(), String> {
    let mut rng = SplitMix64::new(seed ^ 0x9B05_688C_2B3E_6C1F);
    let io = |e: std::io::Error| format!("frame probe: {e}");
    let listener = TcpListener::bind(SocketAddr::from(([127, 0, 0, 1], 0)))
        .await
        .map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let (seen_tx, mut seen_rx) = mpsc::channel::<()>(4);
    // Serves the echo connection, then one connection per frame, as the
    // runtime's accept loop does.
    let server = tokio::spawn(async move {
        let (mut echo, _) = listener.accept().await?;
        tokio::spawn(async move {
            while let Ok(Some(frame)) = read_frame(&mut echo).await {
                if write_frame(&mut echo, &frame).await.is_err() {
                    break;
                }
            }
        });
        for _ in 0..FRAME_ROUNDS {
            let (mut stream, _) = listener.accept().await?;
            let seen = seen_tx.clone();
            tokio::spawn(async move {
                if let Ok(Some(_)) = read_frame(&mut stream).await {
                    let _ = seen.send(()).await;
                }
            });
        }
        Ok::<(), std::io::Error>(())
    });

    let mut stream = TcpStream::connect(addr).await.map_err(io)?;
    let mut reused = Vec::with_capacity(REUSED_ROUNDS);
    for _ in 0..REUSED_ROUNDS {
        let began = Instant::now();
        write_frame(&mut stream, payload).await.map_err(io)?;
        read_frame(&mut stream).await.map_err(io)?;
        reused.push(began.elapsed().as_secs_f64() * 1e6);
    }
    drop(stream);
    let mut fresh = Vec::with_capacity(FRAME_ROUNDS);
    for _ in 0..FRAME_ROUNDS {
        // The accept loop re-polls about once a millisecond; arrive at a
        // random point of that period, as an overlay's messages do,
        // instead of right after the previous accept.
        std::thread::sleep(Duration::from_secs_f64(rng.unit() * 2e-3));
        let began = Instant::now();
        let mut stream = TcpStream::connect(addr).await.map_err(io)?;
        write_frame(&mut stream, payload).await.map_err(io)?;
        seen_rx
            .recv()
            .await
            .ok_or("frame probe: the peer stopped reading")?;
        fresh.push(began.elapsed().as_secs_f64() * 1e6);
    }
    server
        .await
        .map_err(|e| format!("frame probe server: {e}"))?
        .map_err(io)?;
    m.push((
        "transport.frame.roundtrip_us.reused".into(),
        stats::median(&reused),
    ));
    m.push((
        "transport.frame.connect_send_us".into(),
        stats::median(&fresh),
    ));
    Ok(())
}

// ------------------------------------------------------------- runtime

const RUNTIME_ROUNDS: usize = 200;
const IDLE_NODES: usize = 16;

async fn median_query_us(cluster: &mut Cluster, node: usize, area: Region) -> Result<f64, String> {
    let mut us = Vec::with_capacity(RUNTIME_ROUNDS);
    for _ in 0..RUNTIME_ROUNDS {
        let (took, _) = cluster
            .query(node, area)
            .await
            .ok_or("runtime probe: a query timed out")?;
        us.push(took.as_secs_f64() * 1e6);
    }
    Ok(stats::median(&us))
}

/// Small live overlays: a query that never leaves its node, a query and a
/// publish→notify that cross one link, how long a join takes, and what
/// sixteen idle nodes cost in threads and CPU.
async fn runtime(generator: &mut Generator, m: &mut Metrics) -> Result<(), String> {
    let spot = |c: &Cluster, node: usize| gen::square_around(c.views[node].region.center(), 0.5);

    let (mut one, _) = Cluster::start(1).await?;
    for id in 0..100 {
        let record = generator.objects.record(id, one.now_ms());
        one.handles[0].publish(record).await;
    }
    let whole = Region::new(0.0, 0.0, SPACE_SIDE, SPACE_SIDE);
    m.push((
        "transport.runtime.local_query_us".into(),
        median_query_us(&mut one, 0, gen::square_around(whole.center(), 4.0)).await?,
    ));
    one.shutdown().await;

    let (mut two, _) = Cluster::start(2).await?;
    let far = spot(&two, 0);
    m.push((
        "transport.runtime.one_hop_query_us".into(),
        median_query_us(&mut two, SUBSCRIBER, far).await?,
    ));
    let me = two.handles[SUBSCRIBER].info().id();
    two.handles[SUBSCRIBER]
        .subscribe(Subscription::new(1, far, me, RECORD_TTL_MS))
        .await;
    tokio::time::sleep(Duration::from_millis(50)).await;
    let mut notify_us = Vec::with_capacity(RUNTIME_ROUNDS);
    for _ in 0..RUNTIME_ROUNDS {
        let record = generator.objects.publish(0, far.center(), two.now_ms());
        let took = two
            .publish_notified(SUBSCRIBER, record, OP_TIMEOUT)
            .await
            .ok_or("runtime probe: a notification timed out")?;
        notify_us.push(took.as_secs_f64() * 1e6);
    }
    m.push((
        "transport.runtime.one_hop_notify_us".into(),
        stats::median(&notify_us),
    ));
    two.shutdown().await;

    // Threads of earlier overlays whose accept loops never end are still
    // polling: measure them first and report the idle overlay's share on
    // top of that.
    let share_over = |wall: Duration| async move {
        let (cpu, began) = (host::cpu_seconds(), Instant::now());
        tokio::time::sleep(wall).await;
        (host::cpu_seconds() - cpu) / began.elapsed().as_secs_f64()
    };
    let baseline_share = share_over(Duration::from_secs(1)).await;
    let threads_before = host::threads();
    let (idle, join_ms) = Cluster::start(IDLE_NODES).await?;
    let threads = host::threads() - threads_before;
    let idle_share = share_over(Duration::from_secs(2)).await;
    idle.shutdown().await;
    m.push(("transport.runtime.join_ms".into(), stats::median(&join_ms)));
    m.push(("transport.runtime.threads".into(), threads as f64));
    m.push((
        "transport.runtime.idle_cpu_share".into(),
        (idle_share - baseline_share).max(0.0),
    ));
    Ok(())
}

// --------------------------------------------------------------- store

/// A store holding the generator's first `n` objects.
fn store_with(generator: &Generator, n: u64) -> RegionStore {
    let mut store = RegionStore::new();
    store.set_node(1);
    let mut notified = Vec::new();
    for id in 0..n {
        store.publish_into(generator.objects.record(id, 1), 1, &mut notified);
    }
    store
}

/// The next `n` GPS re-publishes of the stream, drawn before the timing
/// starts (virtual time advances two milliseconds per draw).
fn republishes(generator: &mut Generator, n: u64, now: u64) -> Vec<LocationRecord> {
    (0..n)
        .map(|i| {
            let (id, pos) = generator.publish(now + 2 * i);
            generator.objects.publish(id, pos, now)
        })
        .collect()
}

/// Median nanoseconds of splitting `store` down the middle of the space
/// and of absorbing the half given away again. Marked for the workspace
/// lint (GG007), which otherwise confines store hand-off to the engine.
// audit: store-handoff
fn hand_off(store: &RegionStore) -> (f64, f64) {
    let (west, east) = Region::new(0.0, 0.0, SPACE_SIDE, SPACE_SIDE).split_preferred();
    let (mut split_ns, mut absorb_ns) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let mut kept = store.clone();
        let began = Instant::now();
        let given = kept.split_for(&west, &east);
        split_ns.push(began.elapsed().as_nanos() as f64);
        let began = Instant::now();
        kept.absorb(given);
        absorb_ns.push(began.elapsed().as_nanos() as f64);
        assert_eq!(
            kept.record_count(),
            store.record_count(),
            "hand-off keeps every record"
        );
    }
    (stats::median(&split_ns), stats::median(&absorb_ns))
}

/// Direct-drive `RegionStore` with the generator's object stream.
fn store(seed: u64, m: &mut Metrics) {
    const BIG: u64 = 65_536;
    let mut generator = Generator::new(seed, BIG as usize, PROBE_MIX);
    let mut notified = Vec::new();
    let mut ids = Vec::new();
    let mut big = store_with(&generator, BIG);

    m.push((
        "core.service.store.clone_ns.empty".into(),
        time_ns(2_000, 5, || {
            black_box(black_box(&RegionStore::new()).clone());
        }),
    ));
    for (label, size) in [("at1k", 1_024), ("at64k", BIG)] {
        let mut sized = store_with(&generator, size);
        let mut small = Generator::new(seed, size as usize, PROBE_MIX);
        let now = 2_000u64;
        let mut stream = republishes(&mut small, 20_000, now).into_iter();
        let publish = time_ns(4_000, 5, || {
            let record = stream.next().expect("20,000 were drawn");
            sized.publish_into(record, now, &mut notified);
        });
        m.push((format!("core.service.store.publish_ns.{label}"), publish));

        let (mut query_ns, mut matches) = (Vec::new(), 0usize);
        for _ in 0..2_000 {
            let query = LocationQuery::new(small.query_area(), NodeId::new(2));
            let began = Instant::now();
            sized.query_ids_into(&query, now, &mut ids);
            query_ns.push(began.elapsed().as_nanos() as f64);
            matches += ids.len();
        }
        m.push((
            format!("core.service.store.query_ns_p50.{label}"),
            stats::median(&query_ns),
        ));
        if size == BIG {
            m.push((
                "core.service.store.query_matches.at64k".into(),
                matches as f64 / query_ns.len() as f64,
            ));
        }
        let iters = if size == BIG { 4 } else { 200 };
        m.push((
            format!("core.service.store.clone_ns.{label}"),
            time_ns(iters, 5, || {
                black_box(black_box(&sized).clone());
            }),
        ));
    }

    let (split_ns, absorb_ns) = hand_off(&big);
    m.push(("core.service.store.split_for_ns.at64k".into(), split_ns));
    m.push(("core.service.store.absorb_ns.at64k".into(), absorb_ns));

    // 1,000 standing subscriptions where attention goes, then a publish
    // stream that has to consult them.
    for sub in 0..1_000 {
        let area = gen::square_around(generator.focus(), 0.5);
        big.subscribe(
            Subscription::new(sub, area, NodeId::new(100 + sub % 256), u64::MAX),
            1,
        );
    }
    let mut stream = republishes(&mut generator, 20_000, 2_000).into_iter();
    let fanout = time_ns(4_000, 5, || {
        let record = stream.next().expect("20,000 were drawn");
        big.publish_into(record, 2_000, &mut notified);
        black_box(notified.len());
    });
    m.push(("core.service.store.fanout_ns_per_publish".into(), fanout));

    // Short TTLs and a clock advanced past them, so the wheel fires.
    const DUE: u64 = 20_000;
    let mut expiring = RegionStore::new();
    for id in 0..DUE {
        let record = LocationRecord::new(id, "loc", generator.rng().point(), Vec::new())
            .with_expiry(10 + id % 1_000);
        expiring.publish_into(record, 1, &mut notified);
    }
    let work = expiring.expiry_work();
    let began = Instant::now();
    expiring.expire(5_000);
    let took = began.elapsed().as_nanos() as f64;
    assert_eq!(
        expiring.record_count(),
        0,
        "every short-lived record expired"
    );
    m.push((
        "core.service.store.expire_ns_per_due".into(),
        took / DUE as f64,
    ));
    m.push((
        "core.service.store.expiry_work_per_due".into(),
        (expiring.expiry_work() - work) as f64 / DUE as f64,
    ));
}

// ----------------------------------------- routing, topology, snapshot

/// Routes `n` targets of the stream; mean nanoseconds per route and mean
/// express-prefix length.
fn route_many<V: TopologyView + ?Sized>(
    view: &V,
    router: &mut Router,
    targets: &mut Targets,
    n: usize,
) -> (f64, f64) {
    let express = RouteOptions::express();
    let mut prefix = 0usize;
    let began = Instant::now();
    for _ in 0..n {
        let (from, target) = (targets.source(view), targets.next());
        black_box(
            router
                .route(view, from, target, &express)
                .expect("routable"),
        );
        prefix += router.express_prefix();
    }
    (
        began.elapsed().as_nanos() as f64 / n as f64,
        prefix as f64 / n as f64,
    )
}

/// Direct-drive `Router`, `Topology` and `SnapshotReader` on a
/// 65,536-region network built (and timed) here, the size `model_route`
/// routes on.
fn routing(seed: u64, m: &mut Metrics) {
    let began = Instant::now();
    let mut topo: Topology = model::build(model::REGIONS);
    m.push((
        "core.topology.build_s".into(),
        began.elapsed().as_secs_f64(),
    ));
    let cell = topo.publish_handle();
    let mut reader = cell.reader();
    let mut router = Router::new();
    let mut targets = Targets::new(seed);
    let mut rng = SplitMix64::new(seed ^ 0x510E_527F_ADE6_82D1);

    route_many(&**reader.current(), &mut router, &mut targets, 100_000);
    router.reset_stats();
    let (warm_ns, prefix) = route_many(&**reader.current(), &mut router, &mut targets, 200_000);
    m.push(("core.routing.route_ns.warm".into(), warm_ns));
    m.push(("core.routing.hit_rate".into(), router.hit_rate()));
    m.push(("core.routing.express_prefix".into(), prefix));
    m.push((
        "core.routing.cached_entries".into(),
        router.cached_entries() as f64,
    ));
    let snap = reader.current().clone();
    let uncached = time_ns(2_000, 3, || {
        let (from, target) = (targets.source(&*snap), targets.next());
        black_box(routing::route_uncached(&*snap, from, target).expect("routable"));
    });
    m.push(("core.routing.uncached_ns".into(), uncached));
    m.push((
        "core.topology.locate_ns".into(),
        time_ns(100_000, 3, || {
            black_box(topo.locate(rng.point()).expect("inside the space"));
        }),
    ));
    m.push((
        "core.snapshot.load_ns".into(),
        time_ns(1_000_000, 3, || {
            black_box(reader.current().epoch());
        }),
    ));

    // Churn: each operation publishes a snapshot; the reader then routes
    // its first 256 queries on flushed caches.
    let (mut split_ms, mut merge_ms, mut flushed_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut epochs_seen = 0u64;
    let mut last_epoch = reader.current().epoch();
    for i in 0..24 {
        let at = rng.point();
        let began = Instant::now();
        let (done, sink) = if i % 3 == 2 {
            (model::shrink(&mut topo, at), &mut merge_ms)
        } else {
            (model::grow(&mut topo, at), &mut split_ms)
        };
        if done {
            sink.push(began.elapsed().as_secs_f64() * 1e3);
        }
        let snap = reader.current().clone();
        if snap.epoch() != last_epoch {
            epochs_seen += 1;
            last_epoch = snap.epoch();
            flushed_ns.push(route_many(&*snap, &mut router, &mut targets, 256).0);
        }
    }
    m.push(("core.topology.split_ms".into(), stats::median(&split_ms)));
    m.push(("core.topology.merge_ms".into(), stats::median(&merge_ms)));
    m.push((
        "core.routing.route_ns.after_flush".into(),
        stats::median(&flushed_ns),
    ));
    m.push((
        "core.snapshot.reader_epochs_seen".into(),
        epochs_seen as f64,
    ));
}

// ------------------------------------------------------------ geometry

/// The per-neighbour cost inside greedy forwarding and fan-out.
fn geometry(seed: u64, m: &mut Metrics) {
    let mut rng = SplitMix64::new(seed ^ 0x1F83_D9AB_FB41_BD6B);
    let regions: Vec<Region> = (0..1_024)
        .map(|_| gen::square_around(rng.point(), 0.5 + 3.5 * rng.unit()))
        .collect();
    let points: Vec<Point> = (0..1_024).map(|_| rng.point()).collect();
    let mut i = 0usize;
    m.push((
        "geometry.distance_to_point_ns".into(),
        time_ns(1_000_000, 3, || {
            i = (i + 1) % 1_024;
            black_box(black_box(&regions[i]).distance_to_point(black_box(points[1_023 - i])));
        }),
    ));
    m.push((
        "geometry.intersects_ns".into(),
        time_ns(1_000_000, 3, || {
            i = (i + 1) % 1_024;
            black_box(black_box(&regions[i]).intersects(black_box(&regions[1_023 - i])));
        }),
    ));
}

// ------------------------------------------------------------ assembly

fn value(m: &Metrics, name: &str) -> f64 {
    value_of(m, name).unwrap_or(0.0)
}

/// Every per-layer metric of a traced run. Takes the engine-boundary
/// figures from the workload when it drove engines through the wrapper,
/// otherwise from the engine probe.
pub fn per_layer(args: &RunArgs, outcome: &mut Outcome) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    let mut generator = Generator::new(args.seed, 2_000, PROBE_MIX);
    let publish_bytes = wire(&generator, &mut m);
    tokio::runtime::block_on(async {
        frame(args.seed, &publish_bytes, &mut m).await?;
        runtime(&mut generator, &mut m).await
    })?;
    store(args.seed, &mut m);
    routing(args.seed, &mut m);
    geometry(args.seed, &mut m);
    // A handler kind the workload never called (replication on a basic
    // overlay) is timed on the engine probe instead, so every kind has a
    // measured figure on every workload.
    let mut engine = match outcome.engine_layer.take() {
        Some(layer) => layer,
        None => simload::engine_probe(args.seed, 1.0)?.metrics,
    };
    let uncalled = |(name, v): &(String, f64)| name.contains(".handle_ns.") && *v == 0.0;
    if engine.iter().any(uncalled) {
        let probe = simload::engine_probe(args.seed, 1.0)?.metrics;
        for entry in engine.iter_mut().filter(|e| uncalled(e)) {
            entry.1 = value(&probe, &entry.0);
        }
    }
    m.extend(engine);

    // What the CPU in every layer explains of a tcp_mix query: per
    // forward leg the codec, a connect-and-send and a forwarding
    // `handle`; then the executor's `handle` (store query included) and
    // the reply leg. The rest of the median is waiting.
    let mut unattributed = outcome.unattributed_share;
    if let Some(path) = outcome.query_path {
        let us = |name: &str| value(&m, name) / 1e3;
        let link = value(&m, "transport.frame.connect_send_us");
        let forward_leg = us("transport.wire.encode_ns.query")
            + us("transport.wire.decode_ns.query")
            + link
            + us("core.engine.handle_ns.query_forward");
        let execute = us("core.engine.handle_ns.query_execute");
        let reply_leg = us("transport.wire.encode_ns.query_reply32")
            + us("transport.wire.decode_ns.query_reply32")
            + link
            + us("core.engine.handle_ns.query_reply");
        let stacked = path.mean_hops * forward_leg + execute + reply_leg;
        let cpu_only = stacked - (path.mean_hops + 1.0) * link;
        unattributed = 1.0 - stacked / path.query_p50_us;
        outcome.note("stacked_estimate_us", stacked);
        outcome.note(
            "stacked_estimate",
            format!(
                "{:.3} hops x {forward_leg:.1} us forward leg + {execute:.1} us execute + \
                 {reply_leg:.1} us reply leg, against query_p50_us {:.1}",
                path.mean_hops, path.query_p50_us
            ),
        );
        outcome.note(
            "stacked_estimate_cpu_only_us",
            format!(
                "{cpu_only:.1} (codec + handle, {:.4} of query_p50_us); the other {:.1} us \
                 of the estimate is {:.3} connect-and-send waits of {link:.1} us",
                cpu_only / path.query_p50_us,
                stacked - cpu_only,
                path.mean_hops + 1.0
            ),
        );
    }
    m.push(("bench.unattributed_share".into(), unattributed));
    m.push((
        "bench.trace_overhead_share".into(),
        outcome.trace_overhead_share,
    ));
    m.push((
        "bench.generator_ns_per_op".into(),
        outcome.generator_ns_per_op,
    ));
    Ok(m)
}
