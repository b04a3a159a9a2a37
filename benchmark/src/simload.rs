//! The two simulator workloads: `NodeEngine`s on `geogrid-simnet`, driven
//! in an open loop in virtual time through the benchmark's own `Process`
//! wrapper. `sim_mix` and `sim_dual` share every line here and differ only
//! in their [`SimSpec`].

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;
use std::time::{Duration, Instant};

use geogrid_core::engine::{
    ClientEvent, Effect, EngineConfig, EngineMode, Input, Message, NodeEngine, OwnerView,
};
use geogrid_core::service::{LocationQuery, Subscription};
use geogrid_core::topology::Role;
use geogrid_core::{NodeId, NodeInfo};
use geogrid_geometry::Space;
use geogrid_simnet::{Addr, Context, Process, SimConfig, SimStats, SimTime, Simulation};

use crate::gen::{self, Generator, Mix, Op, Probes, SplitMix64, PROBES};
use crate::stats::Windowed;
use crate::trace::{engine_kinds, Kind, OpKey, Tracer};
use crate::{Outcome, RunArgs};

/// Everything that distinguishes one simulator workload from the other.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    pub name: &'static str,
    pub nodes: usize,
    pub mode: EngineMode,
    pub objects: usize,
    pub mix: Mix,
    /// Open-loop rate: operations injected per *virtual* second.
    pub ops_per_vsec: u64,
}

pub const SIM_MIX: SimSpec = SimSpec {
    name: "sim_mix",
    nodes: 1_024,
    mode: EngineMode::Basic,
    objects: 100_000,
    mix: Mix {
        publish_pct: 70,
        query_pct: 25,
        extent: (0.25, 2.0),
    },
    ops_per_vsec: 5_000,
};

pub const SIM_DUAL: SimSpec = SimSpec {
    name: "sim_dual",
    nodes: 32,
    mode: EngineMode::DualPeer,
    // 5,000 rather than the 20,000 first sized: with ~1,200 records a
    // region each replication clone is ~200 KB, and on this host runs of
    // one seed then differ by ±11% (against ±3.5% at ~300 records).
    objects: 5_000,
    mix: Mix {
        publish_pct: 60,
        query_pct: 40,
        extent: (0.5, 4.0),
    },
    ops_per_vsec: 1_000,
};

/// The engine probe every traced run of a non-simulator workload drives
/// through the same wrapper, so `core.engine.*` and `simnet.*` are
/// measured everywhere: a small dual-peer overlay, so every handler kind
/// (replication included) is exercised.
pub const ENGINE_PROBE: SimSpec = SimSpec {
    name: "engine_probe",
    nodes: 16,
    mode: EngineMode::DualPeer,
    objects: 2_000,
    mix: Mix {
        publish_pct: 55,
        query_pct: 40,
        extent: (0.5, 4.0),
    },
    ops_per_vsec: 1_000,
};

impl SimSpec {
    /// The `--smoke` size: an eighth of the nodes, a quarter of the
    /// objects and of the rate.
    pub fn smoke(self) -> SimSpec {
        SimSpec {
            nodes: (self.nodes / 8).max(8),
            objects: self.objects / 4,
            ops_per_vsec: self.ops_per_vsec / 4,
            ..self
        }
    }
}

/// Virtual length of one open-loop slice.
const SLICE_MS: u64 = 10;
/// Virtual TTL of the subscriptions the mix issues.
const SUB_TTL_MS: u64 = 2_000;
/// Virtual time allowed for in-flight operations to finish once the
/// generator stops: far longer than any route.
const DRAIN_MS: u64 = 1_000;
/// Virtual step in which set-up polls a joiner (one simulated link delay).
const JOIN_POLL_MS: u64 = 5;
/// A joiner still not an owner after this long re-issues its request.
const JOIN_RETRY_MS: u64 = 2_000;
/// Set-up gives up (and the run fails) after this much virtual time
/// without reaching its gate.
const SETUP_PATIENCE_MS: u64 = 60_000;
/// Preloaded publishes per slice during set-up.
const PRELOAD_PER_SLICE: usize = 200;

/// Engine settings fixed for every overlay workload and recorded in the
/// output: adaptation off (it is not what is measured), 100 ms heartbeat.
pub fn engine_config(mode: EngineMode) -> EngineConfig {
    EngineConfig {
        mode,
        heartbeat_interval: 100,
        balance_enabled: false,
        ..EngineConfig::default()
    }
}

/// What a `handle` call was given, decided before the input moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Tick,
    Heartbeat,
    SyncState,
    Notify,
    QueryReply,
    QueryFanout,
    /// A query still being routed (user input or non-fan-out message).
    QueryRouted,
    /// A publish being routed (user input or message).
    PublishRouted,
    /// A subscribe still being routed.
    SubscribeRouted,
    SubscribeFanout,
    Other,
}

fn class_of(input: &Input) -> Class {
    match input {
        Input::Tick => Class::Tick,
        Input::UserQuery { .. } => Class::QueryRouted,
        Input::UserPublish { .. } => Class::PublishRouted,
        Input::UserSubscribe { .. } => Class::SubscribeRouted,
        Input::Message { message, .. } => match message {
            Message::Heartbeat { .. } => Class::Heartbeat,
            Message::SyncState { .. } => Class::SyncState,
            Message::Notify { .. } => Class::Notify,
            Message::QueryReply { .. } => Class::QueryReply,
            Message::Query { fanout: true, .. } => Class::QueryFanout,
            Message::Query { fanout: false, .. } => Class::QueryRouted,
            Message::Publish { .. } => Class::PublishRouted,
            Message::Subscribe { fanout: true, .. } => Class::SubscribeFanout,
            Message::Subscribe { fanout: false, .. } => Class::SubscribeRouted,
            _ => Class::Other,
        },
        _ => Class::Other,
    }
}

/// Whether the effects pass the routed operation on to another node
/// (forward) rather than carrying it out here (execute).
fn forwards(class: Class, effects: &[Effect]) -> bool {
    effects.iter().any(|e| {
        let Effect::Send { message, .. } = e else {
            return false;
        };
        match (class, message) {
            (Class::QueryRouted, Message::Query { fanout, .. }) => !fanout,
            (Class::PublishRouted, Message::Publish { .. }) => true,
            (Class::SubscribeRouted, Message::Subscribe { fanout, .. }) => !fanout,
            _ => false,
        }
    })
}

/// The span kind of one `handle` call: its input class, split by
/// forward/execute where the input was still being routed.
pub fn classify(class: Class, effects: &[Effect]) -> Kind {
    match class {
        Class::Tick => Kind::Tick,
        Class::Heartbeat => Kind::Heartbeat,
        Class::SyncState => Kind::SyncState,
        Class::Notify => Kind::Notify,
        Class::QueryReply => Kind::QueryReply,
        Class::QueryFanout => Kind::QueryFanout,
        Class::SubscribeRouted | Class::SubscribeFanout => Kind::Subscribe,
        Class::Other => Kind::EngineOther,
        Class::QueryRouted if forwards(class, effects) => Kind::QueryForward,
        Class::QueryRouted => Kind::QueryExecute,
        Class::PublishRouted if forwards(class, effects) => Kind::PublishForward,
        Class::PublishRouted => Kind::PublishExecute,
    }
}

/// Counters the wrapper keeps at the engine boundary, traced or not.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Deliveries of routed (non-fan-out) query/publish/subscribe
    /// messages: the overlay hops operations took.
    pub hops: u64,
    /// Routed publishes that stopped being forwarded (executed).
    pub publishes_done: u64,
    /// Routed subscribes that reached their covering region.
    pub subscribes_done: u64,
    /// `NodeEngine::handle` calls.
    pub calls: u64,
    /// Effects those calls returned.
    pub effects: u64,
    /// `SyncState` messages sent by executing publishes.
    pub syncs_from_publish: u64,
}

impl Counts {
    fn since(self, earlier: Counts) -> Counts {
        Counts {
            hops: self.hops - earlier.hops,
            publishes_done: self.publishes_done - earlier.publishes_done,
            subscribes_done: self.subscribes_done - earlier.subscribes_done,
            calls: self.calls - earlier.calls,
            effects: self.effects - earlier.effects,
            syncs_from_publish: self.syncs_from_publish - earlier.syncs_from_publish,
        }
    }
}

/// State the wrappers of one overlay share with the driver.
#[derive(Debug, Default)]
pub struct Shared {
    /// Client events since the driver last drained them.
    events: Vec<(u64, ClientEvent)>,
    counts: Counts,
    tracer: Option<Tracer>,
}

/// The benchmark's `Process`: one engine, every `handle` call counted,
/// classified and (when tracing) timed.
pub struct BenchNode {
    engine: NodeEngine,
    startup: Option<Input>,
    shared: Rc<RefCell<Shared>>,
    /// User queries issued here; the engine numbers them the same way.
    queries: u64,
    outbox: Vec<(NodeId, Message)>,
}

fn op_key(input: &Input, me: u64, queries: u64) -> Option<OpKey> {
    match input {
        Input::UserQuery { .. } => Some((me, queries)),
        Input::UserPublish { record }
        | Input::Message {
            message: Message::Publish { record, .. },
            ..
        } => {
            let (id, seq, _) = gen::returned(record);
            Some((id, u64::from(seq)))
        }
        Input::UserSubscribe { sub }
        | Input::Message {
            message: Message::Subscribe { sub, .. },
            ..
        } => Some((sub.subscriber().as_u64(), sub.id())),
        Input::Message {
            message: Message::Query {
                query_id, reply_to, ..
            },
            ..
        } => Some((reply_to.as_u64(), *query_id)),
        Input::Message {
            message: Message::QueryReply { query_id, .. },
            ..
        } => Some((me, *query_id)),
        _ => None,
    }
}

impl BenchNode {
    /// Runs one input through the engine; sends land in `self.outbox`,
    /// client events in the shared sink.
    fn drive(&mut self, now_ms: u64, input: Input) {
        let me = self.engine.info().id().as_u64();
        let class = class_of(&input);
        let routed_delivery = matches!(
            (&input, class),
            (
                Input::Message { .. },
                Class::QueryRouted | Class::PublishRouted | Class::SubscribeRouted
            )
        );
        if matches!(input, Input::UserQuery { .. }) {
            self.queries += 1;
        }
        let mut shared = self.shared.borrow_mut();
        // Tracing: `None` when off, `Some(None)` for a call only counted,
        // `Some(Some(..))` for a call timed.
        let span = shared.tracer.as_mut().map(|tracer| {
            let op = op_key(&input, me, self.queries);
            tracer.wants(op).then(|| (op, Instant::now()))
        });
        let effects = self.engine.handle(now_ms, input);
        let end = matches!(span, Some(Some(_))).then(Instant::now);

        let kind = classify(class, &effects);
        let counts = &mut shared.counts;
        counts.calls += 1;
        counts.effects += effects.len() as u64;
        counts.hops += u64::from(routed_delivery);
        match kind {
            Kind::PublishExecute => {
                counts.publishes_done += 1;
                counts.syncs_from_publish += effects
                    .iter()
                    .filter(|e| {
                        matches!(
                            e,
                            Effect::Send {
                                message: Message::SyncState { .. },
                                ..
                            }
                        )
                    })
                    .count() as u64;
            }
            Kind::Subscribe if class == Class::SubscribeRouted && !forwards(class, &effects) => {
                counts.subscribes_done += 1;
            }
            _ => {}
        }
        match (shared.tracer.as_mut(), span, end) {
            (Some(tracer), Some(Some((op, start))), Some(end)) => {
                tracer.record(kind, start, end, op);
            }
            (Some(tracer), ..) => tracer.skip(kind),
            _ => {}
        }
        for effect in effects {
            match effect {
                Effect::Send { to, message } => self.outbox.push((to, message)),
                Effect::Client(event) => shared.events.push((me, event)),
            }
        }
    }

    fn step(&mut self, ctx: &mut Context<'_, Message>, input: Input) {
        self.drive(ctx.now().as_micros() / 1_000, input);
        for (to, message) in self.outbox.drain(..) {
            ctx.send(Addr::from_raw(to.as_u64()), message);
        }
    }

    fn arm_tick(&self, ctx: &mut Context<'_, Message>) {
        ctx.set_timer(
            SimTime::from_millis(self.engine.config().heartbeat_interval),
            0,
        );
    }
}

impl Process for BenchNode {
    type Msg = Message;

    fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
        if let Some(input) = self.startup.take() {
            self.step(ctx, input);
        }
        self.arm_tick(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Message>, from: Addr, message: Message) {
        let from = NodeId::new(from.as_u64());
        self.step(ctx, Input::Message { from, message });
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Message>, _timer: u64) {
        self.step(ctx, Input::Tick);
        self.arm_tick(ctx);
    }
}

/// A built, preloaded overlay and the open-loop driver around it.
pub struct Overlay {
    spec: SimSpec,
    sim: Simulation<BenchNode>,
    shared: Rc<RefCell<Shared>>,
    /// Draws node coordinates and capacities: the overlay's fixed shape.
    layout: SplitMix64,
    /// Draws the node each operation is injected at.
    rng: SplitMix64,
    next_sub_id: u64,
    /// Queries issued and not yet answered: `(issuer, query id)`.
    outstanding: HashSet<OpKey>,
    issued: Issued,
    answered: u64,
}

/// Operations handed to the overlay so far, by type.
#[derive(Debug, Clone, Copy, Default)]
struct Issued {
    publishes: u64,
    queries: u64,
    subscribes: u64,
}

impl Issued {
    fn total(self) -> u64 {
        self.publishes + self.queries + self.subscribes
    }
}

/// What one open-loop phase measured.
#[derive(Debug)]
struct Phase {
    wall_s: f64,
    issued: u64,
    /// One sample per slice: wall microseconds per operation issued, and
    /// the operations that completed during it.
    windows: Windowed,
    sim: SimStats,
    counts: Counts,
    generator_ns: u64,
}

fn sim_since(now: SimStats, earlier: SimStats) -> SimStats {
    SimStats {
        sent: now.sent - earlier.sent,
        delivered: now.delivered - earlier.delivered,
        lost: now.lost - earlier.lost,
        undeliverable: now.undeliverable - earlier.undeliverable,
        timers_fired: now.timers_fired - earlier.timers_fired,
        events: now.events - earlier.events,
    }
}

impl Overlay {
    /// Builds the overlay and preloads every object, polling the set-up
    /// gates: all nodes own, primary areas tile the space, and the
    /// primaries' record totals match the preload.
    pub fn build(spec: SimSpec, seed: u64, generator: &Generator) -> Result<Overlay, String> {
        let space = Space::paper_evaluation();
        let shared = Rc::new(RefCell::new(Shared::default()));
        let mut overlay = Overlay {
            spec,
            sim: Simulation::new(SimConfig::default(), seed),
            shared,
            layout: SplitMix64::new(gen::LAYOUT_SEED),
            rng: SplitMix64::new(seed ^ 0x6A09_E667_F3BC_C908),
            next_sub_id: 0,
            outstanding: HashSet::new(),
            issued: Issued::default(),
            answered: 0,
        };
        overlay.join_all(space)?;
        overlay.preload(generator)?;
        Ok(overlay)
    }

    fn now_ms(&self) -> u64 {
        self.sim.now().as_micros() / 1_000
    }

    fn advance(&mut self, ms: u64) {
        let deadline = self.sim.now() + SimTime::from_millis(ms);
        self.sim.run_until(deadline, u64::MAX);
    }

    fn node(&self, index: u64) -> &BenchNode {
        self.sim
            .process(Addr::from_raw(index))
            .expect("benchmark nodes never stop")
    }

    fn spawn(&mut self, space: Space, startup: Input) {
        let id = NodeId::new(self.sim.len() as u64);
        let capacity = [1.0, 10.0, 100.0, 1_000.0][self.layout.below(4) as usize];
        let info = NodeInfo::new(id, self.layout.point(), capacity);
        let addr = self.sim.add_process(BenchNode {
            engine: NodeEngine::new(info, space, engine_config(self.spec.mode)),
            startup: Some(startup),
            shared: Rc::clone(&self.shared),
            queries: 0,
            outbox: Vec::new(),
        });
        assert_eq!(addr.as_u64(), id.as_u64(), "addresses mirror node ids");
    }

    /// Hands `input` to node `index` as its co-located client would.
    /// Returns how many user queries that node has now issued: the id its
    /// engine gave this one, if it is a query.
    fn inject(&mut self, index: u64, input: Input) -> u64 {
        let now_ms = self.now_ms();
        let addr = Addr::from_raw(index);
        let node = self
            .sim
            .process_mut(addr)
            .expect("benchmark nodes never stop");
        node.drive(now_ms, input);
        let queries = node.queries;
        for (to, message) in std::mem::take(&mut node.outbox) {
            self.sim.post(addr, Addr::from_raw(to.as_u64()), message);
        }
        queries
    }

    /// Joins the nodes one at a time, each through the already-joined node
    /// nearest its coordinate, waiting until it owns before the next
    /// starts: joins that overlap leave neighbour tables that never learn
    /// of each other, and later joiners are then routed in circles.
    fn join_all(&mut self, space: Space) -> Result<(), String> {
        self.spawn(space, Input::BootstrapAsFirst);
        self.advance(JOIN_POLL_MS);
        while self.sim.len() < self.spec.nodes {
            let node = self.sim.len() as u64;
            self.spawn(
                space,
                Input::Join {
                    entry: NodeId::new(0),
                },
            );
            // `spawn` drew the coordinate; re-aim the request at the
            // nearest joined node before the process starts.
            let coord = self.node(node).engine.info().coord();
            let entry = (0..node)
                .min_by(|&a, &b| {
                    let d = |i| self.node(i).engine.info().coord().distance_squared(coord);
                    d(a).partial_cmp(&d(b)).expect("coordinates are finite")
                })
                .map(NodeId::new)
                .expect("node 0 exists");
            self.sim
                .process_mut(Addr::from_raw(node))
                .expect("just spawned")
                .startup = Some(Input::Join { entry });
            let mut asked = self.now_ms();
            let give_up = asked + SETUP_PATIENCE_MS;
            while !self.node(node).engine.is_owner() {
                self.advance(JOIN_POLL_MS);
                let now = self.now_ms();
                if now >= give_up {
                    return Err(format!(
                        "set-up gate: node {node} of {} never became an owner",
                        self.spec.nodes
                    ));
                }
                if now >= asked + JOIN_RETRY_MS {
                    asked = now;
                    self.inject(node, Input::Join { entry });
                }
            }
            // The split's announcements travel one more hop.
            self.advance(2 * JOIN_POLL_MS);
        }
        let covered: f64 = self
            .views()
            .iter()
            .filter(|v| v.role == Role::Primary)
            .map(|v| v.region.area())
            .sum();
        if (covered - space.bounds().area()).abs() > 1e-6 {
            return Err(format!(
                "set-up gate: primary regions cover {covered}, not the whole space"
            ));
        }
        Ok(())
    }

    /// Every live owner's view, by node id.
    pub fn views(&self) -> Vec<OwnerView> {
        (0..self.sim.len() as u64)
            .filter_map(|i| self.node(i).engine.owner_view())
            .collect()
    }

    fn primary_records(&self) -> usize {
        self.views()
            .iter()
            .filter(|v| v.role == Role::Primary)
            .map(|v| v.records)
            .sum()
    }

    fn preload(&mut self, generator: &Generator) -> Result<(), String> {
        let objects = generator.objects.len();
        for id in 0..objects as u64 {
            let node = self.rng.below(self.spec.nodes as u64);
            let record = generator.objects.record(id, self.now_ms());
            self.issued.publishes += 1;
            self.inject(node, Input::UserPublish { record });
            if id as usize % PRELOAD_PER_SLICE == PRELOAD_PER_SLICE - 1 {
                self.advance(SLICE_MS);
            }
        }
        for _ in 0..SETUP_PATIENCE_MS / SLICE_MS {
            if self.shared.borrow().counts.publishes_done as usize >= objects {
                break;
            }
            self.advance(SLICE_MS);
        }
        self.shared.borrow_mut().events.clear();
        match self.primary_records() {
            n if n == objects => Ok(()),
            n => Err(format!(
                "set-up gate: primaries hold {n} records, {objects} were preloaded"
            )),
        }
    }

    fn issue(&mut self, op: Op, generator: &mut Generator) {
        let node = self.rng.below(self.spec.nodes as u64);
        let issuer = NodeId::new(node);
        let now_ms = self.now_ms();
        match op {
            Op::Publish { id, pos } => {
                let record = generator.objects.publish(id, pos, now_ms);
                self.issued.publishes += 1;
                self.inject(node, Input::UserPublish { record });
            }
            Op::Query { area } => {
                let query = LocationQuery::new(area, issuer);
                self.issued.queries += 1;
                let id = self.inject(node, Input::UserQuery { query });
                self.outstanding.insert((node, id));
            }
            Op::Subscribe { area } => {
                self.next_sub_id += 1;
                let sub = Subscription::new(self.next_sub_id, area, issuer, now_ms + SUB_TTL_MS);
                self.issued.subscribes += 1;
                self.inject(node, Input::UserSubscribe { sub });
            }
        }
    }

    /// Takes the client events of the last slice: the first result of a
    /// query completes it; everything else is dropped, so memory does not
    /// grow with run length.
    fn drain_events(&mut self) {
        let mut shared = self.shared.borrow_mut();
        for (node, event) in shared.events.drain(..) {
            if let ClientEvent::QueryResults { query_id, .. } = event {
                if self.outstanding.remove(&(node, query_id)) {
                    self.answered += 1;
                }
            }
        }
    }

    fn completed(&self) -> u64 {
        let counts = self.shared.borrow().counts;
        self.answered + counts.publishes_done + counts.subscribes_done
    }

    /// Runs the open loop for `wall` of wall-clock time.
    fn run_phase(&mut self, generator: &mut Generator, wall: Duration) -> Phase {
        let per_slice = (self.spec.ops_per_vsec * SLICE_MS / 1_000).max(1);
        let traced = self.shared.borrow().tracer.is_some();
        let (sim0, counts0) = (self.sim.stats(), self.shared.borrow().counts);
        let issued0 = self.issued.total();
        let mut completed = self.completed();
        let mut windows = Windowed::default();
        let mut generator_ns = 0u64;
        let began = Instant::now();
        let mut slice_began = began;
        loop {
            let now_ms = self.now_ms();
            for _ in 0..per_slice {
                let drawn = traced.then(Instant::now);
                let op = generator.next_op(now_ms);
                if let Some(drawn) = drawn {
                    generator_ns += drawn.elapsed().as_nanos() as u64;
                }
                self.issue(op, generator);
            }
            self.advance(SLICE_MS);
            self.drain_events();
            let slice_ended = Instant::now();
            let completed_now = self.completed();
            windows.push(
                (slice_ended - began).as_secs_f64(),
                (slice_ended - slice_began).as_secs_f64() * 1e6 / per_slice as f64,
                (completed_now - completed) as u32,
            );
            completed = completed_now;
            slice_began = slice_ended;
            if slice_ended - began >= wall {
                break;
            }
        }
        Phase {
            wall_s: began.elapsed().as_secs_f64(),
            issued: self.issued.total() - issued0,
            windows,
            sim: sim_since(self.sim.stats(), sim0),
            counts: self.shared.borrow().counts.since(counts0),
            generator_ns,
        }
    }

    /// Lets in-flight operations finish; returns how many never did.
    fn drain(&mut self) -> u64 {
        self.advance(DRAIN_MS);
        self.drain_events();
        self.issued.total() - self.completed()
    }

    /// Issues [`PROBES`] range queries — half hot-spot ranges from the
    /// mix, half small squares around objects chosen at random — gathers
    /// every partial result, and checks each union against the oracle.
    /// Returns the failures and the first one's description.
    fn probe(&mut self, generator: &mut Generator) -> (u64, Option<String>) {
        let mut probes = Probes::default();
        for i in 0..PROBES {
            let area = generator.probe_area(i);
            let node = self.rng.below(self.spec.nodes as u64);
            let query = LocationQuery::new(area, NodeId::new(node));
            let id = self.inject(node, Input::UserQuery { query });
            probes.ask((node, id), area);
            if i % 20 == 19 {
                self.advance(SLICE_MS);
            }
        }
        self.advance(DRAIN_MS);
        for (node, event) in self.shared.borrow_mut().events.drain(..) {
            if let ClientEvent::QueryResults { query_id, records } = event {
                probes.gather((node, query_id), &records);
            }
        }
        probes.verdict(&generator.objects)
    }
}

/// Builds an overlay from scratch and times it.
fn timed_build(spec: SimSpec, seed: u64, generator: &Generator) -> Result<(Overlay, f64), String> {
    let began = Instant::now();
    let overlay = Overlay::build(spec, seed, generator)?;
    Ok((overlay, began.elapsed().as_secs_f64()))
}

/// What the traced half of a run found at the engine and simulator
/// boundaries (`core.engine.*`, `simnet.*`, and the `bench.*` shares).
#[derive(Debug)]
pub struct EngineLayer {
    pub metrics: Vec<(String, f64)>,
    pub generator_ns_per_op: f64,
    pub trace_overhead_share: f64,
}

fn engine_layer(untraced: &Phase, traced: &Phase, tracer: &Tracer) -> EngineLayer {
    let ops = traced.issued.max(1) as f64;
    let mut m: Vec<(String, f64)> = engine_kinds()
        .map(|k| {
            (
                format!("core.engine.handle_ns.{}", k.name()),
                tracer.mean_ns(k),
            )
        })
        .collect();
    let wall_ns = traced.wall_s * 1e9;
    let engine_ns = tracer.engine_ns();
    let c = traced.counts;
    m.push(("core.engine.calls_per_op".into(), c.calls as f64 / ops));
    m.push((
        "core.engine.effects_per_call".into(),
        c.effects as f64 / c.calls.max(1) as f64,
    ));
    m.push(("core.engine.busy_share".into(), engine_ns / wall_ns));
    m.push((
        "core.engine.sync_per_publish".into(),
        c.syncs_from_publish as f64 / c.publishes_done.max(1) as f64,
    ));
    m.push((
        "simnet.events_per_op".into(),
        traced.sim.events as f64 / ops,
    ));
    m.push((
        "simnet.timers_per_op".into(),
        traced.sim.timers_fired as f64 / ops,
    ));
    m.push((
        "simnet.msgs_per_op".into(),
        traced.sim.delivered as f64 / ops,
    ));
    m.push((
        "simnet.self_ns_per_event".into(),
        (wall_ns - engine_ns - traced.generator_ns as f64).max(0.0)
            / traced.sim.events.max(1) as f64,
    ));
    EngineLayer {
        metrics: m,
        generator_ns_per_op: traced.generator_ns as f64 / ops,
        trace_overhead_share: 1.0
            - traced.windows.rate(traced.wall_s) / untraced.windows.rate(untraced.wall_s),
    }
}

/// Drives the engine probe: a short untraced phase, then a traced one.
pub fn engine_probe(seed: u64, seconds: f64) -> Result<EngineLayer, String> {
    let mut generator = Generator::new(seed, ENGINE_PROBE.objects, ENGINE_PROBE.mix);
    let mut overlay = Overlay::build(ENGINE_PROBE, seed, &generator)?;
    let half = Duration::from_secs_f64(seconds / 2.0);
    let untraced = overlay.run_phase(&mut generator, half);
    overlay.shared.borrow_mut().tracer = Some(Tracer::new());
    let traced = overlay.run_phase(&mut generator, half);
    let tracer = overlay
        .shared
        .borrow_mut()
        .tracer
        .take()
        .expect("installed above");
    Ok(engine_layer(&untraced, &traced, &tracer))
}

/// Runs one simulator workload end to end.
pub fn run(spec: SimSpec, args: &RunArgs) -> Result<Outcome, String> {
    let mut generator = Generator::new(args.seed, spec.objects, spec.mix);
    let (mut overlay, first_setup_s) = timed_build(spec, args.seed, &generator)?;
    let views = overlay.views();
    let primaries = views.iter().filter(|v| v.role == Role::Primary).count();

    overlay.run_phase(&mut generator, args.warmup());
    // Warm-up stragglers must not be charged to the measured phase.
    overlay.drain();
    overlay.outstanding.clear();
    let lost_before = overlay.issued.total() - overlay.completed();

    let mut outcome = Outcome::new(spec.name);
    outcome.note("nodes", spec.nodes);
    outcome.note("primary_regions", primaries);
    outcome.note("objects", spec.objects);
    outcome.note("engine_mode", format!("{:?}", spec.mode));
    outcome.note("ops_per_virtual_second", spec.ops_per_vsec);
    outcome.note(
        "loop",
        "open in virtual time, 10 ms slices; wall time is what is measured",
    );
    outcome.note("simnet_latency", "5 ms constant, lossless");

    let measured = if args.trace {
        // Half the time untraced as the reference, half traced.
        let half = args.measure() / 2;
        let untraced = overlay.run_phase(&mut generator, half);
        overlay.shared.borrow_mut().tracer = Some(Tracer::new());
        let traced = overlay.run_phase(&mut generator, half);
        let tracer = overlay
            .shared
            .borrow_mut()
            .tracer
            .take()
            .expect("installed above");
        let layer = engine_layer(&untraced, &traced, &tracer);
        outcome.trace_overhead_share = layer.trace_overhead_share;
        outcome.generator_ns_per_op = layer.generator_ns_per_op;
        outcome.engine_layer = Some(layer.metrics);
        outcome.tracer = Some(tracer);
        traced
    } else {
        overlay.run_phase(&mut generator, args.measure())
    };
    let lost = overlay.drain() - lost_before;
    let (probe_failures, first_failure) = overlay.probe(&mut generator);
    if let Some(why) = first_failure {
        eprintln!("{}: {why}", spec.name);
    }

    let summary = measured
        .windows
        .summary(measured.wall_s)
        .ok_or("a window of the measured phase held no slice")?;
    // The set-ups that follow exist only to time `setup_s`.
    drop(overlay);
    let mut setup_times = vec![first_setup_s];
    for _ in 1..args.setups {
        let fresh = Generator::new(args.seed, spec.objects, spec.mix);
        setup_times.push(timed_build(spec, args.seed, &fresh)?.1);
    }
    outcome.attempted = measured.issued + PROBES as u64;
    outcome.failed = lost + probe_failures;
    outcome.setup_times = setup_times;
    outcome.window_summary(summary);
    outcome.e2e(
        "hops_per_op",
        measured.counts.hops as f64 / measured.issued as f64,
    );
    outcome.note(
        "msgs_per_op",
        measured.sim.delivered as f64 / measured.issued as f64,
    );
    outcome.note("measured_ops", measured.issued);
    outcome.note("measured_wall_s", measured.wall_s);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geogrid_core::service::LocationRecord;
    use geogrid_geometry::{Point, Region};

    fn send(message: Message) -> Effect {
        Effect::Send {
            to: NodeId::new(9),
            message,
        }
    }

    fn record() -> LocationRecord {
        LocationRecord::new(1, "loc", Point::new(1.0, 1.0), vec![1, 0, 0, 0])
    }

    fn query(fanout: bool) -> Message {
        Message::Query {
            query: LocationQuery::new(Region::new(0.0, 0.0, 1.0, 1.0), NodeId::new(1)),
            query_id: 1,
            reply_to: NodeId::new(1),
            hops: 1,
            fanout,
        }
    }

    #[test]
    fn routed_inputs_split_into_forward_and_execute() {
        let publish = Message::Publish {
            record: record(),
            hops: 1,
        };
        let forward = [send(publish.clone())];
        assert_eq!(
            classify(Class::PublishRouted, &forward),
            Kind::PublishForward
        );
        // Executing a publish may notify and replicate, but not re-publish.
        let execute = [
            send(Message::Notify { record: record() }),
            Effect::Client(ClientEvent::Notified { record: record() }),
        ];
        assert_eq!(
            classify(Class::PublishRouted, &execute),
            Kind::PublishExecute
        );
        assert_eq!(classify(Class::PublishRouted, &[]), Kind::PublishExecute);

        assert_eq!(
            classify(Class::QueryRouted, &[send(query(false))]),
            Kind::QueryForward
        );
        // The executor fans out and replies: still an execute.
        let executed = [
            send(query(true)),
            send(Message::QueryReply {
                query_id: 1,
                records: vec![],
            }),
        ];
        assert_eq!(classify(Class::QueryRouted, &executed), Kind::QueryExecute);
        assert_eq!(classify(Class::QueryFanout, &executed), Kind::QueryFanout);
    }

    #[test]
    fn inputs_map_to_their_class() {
        let from = NodeId::new(2);
        let message = |message| Input::Message { from, message };
        assert_eq!(class_of(&Input::Tick), Class::Tick);
        assert_eq!(class_of(&message(query(true))), Class::QueryFanout);
        assert_eq!(class_of(&message(query(false))), Class::QueryRouted);
        assert_eq!(
            class_of(&Input::UserPublish { record: record() }),
            Class::PublishRouted
        );
        assert_eq!(class_of(&message(Message::LeaveNotice)), Class::Other);
        assert_eq!(class_of(&Input::Leave), Class::Other);
    }

    #[test]
    fn a_small_overlay_builds_serves_and_passes_its_probes() {
        let spec = SimSpec {
            nodes: 12,
            objects: 3_000,
            ..SIM_DUAL
        };
        let mut generator = Generator::new(11, spec.objects, spec.mix);
        let mut overlay = Overlay::build(spec, 11, &generator).expect("set-up gates pass");
        assert_eq!(overlay.views().len(), 12);
        let phase = overlay.run_phase(&mut generator, Duration::from_millis(200));
        assert!(phase.issued > 0 && phase.counts.hops > 0);
        assert_eq!(overlay.drain(), 0, "every operation completes");
        let (failures, why) = overlay.probe(&mut generator);
        assert_eq!(failures, 0, "{why:?}");
    }
}
