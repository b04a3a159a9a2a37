//! Running [`NodeEngine`]s on the deterministic simulator.
//!
//! A private `SimNode` adapts the sans-io engine to `geogrid-simnet`'s
//! [`Process`] interface; [`SimHarness`] builds whole simulated GeoGrid
//! deployments — the message-level counterpart of the model's
//! `NetworkBuilder`, used to check that the distributed protocol reaches the same structural
//! invariants as the centrally modelled topology.

use geogrid_geometry::{Point, Space};
use geogrid_simnet::{Addr, Context, Process, SimConfig, SimTime, Simulation};

use crate::engine::{ClientEvent, Effect, EngineConfig, Input, Message, NodeEngine};
use crate::{NodeId, NodeInfo};

/// Timer id used for the engine's periodic tick.
const TICK_TIMER: u64 = 1;

/// A simulated GeoGrid node: one engine plus its collected client events.
///
/// The simulator address and the GeoGrid [`NodeId`] are kept numerically
/// equal (see [`addr`]), so effects translate 1:1 into simulator sends.
#[derive(Debug)]
struct SimNode {
    engine: NodeEngine,
    /// Client events observed so far (tests inspect these).
    events: Vec<ClientEvent>,
    /// Pending local inputs injected before the process started.
    startup: Vec<Input>,
}

impl SimNode {
    /// Sends the engine's outgoing messages through the simulator and
    /// records its client events.
    fn apply_effects(&mut self, ctx: &mut Context<'_, Message>, effects: Vec<Effect>) {
        for effect in effects {
            match effect {
                Effect::Send { to, message } => ctx.send(addr(to), message),
                Effect::Client(event) => self.events.push(event),
            }
        }
    }
}

/// The simulator address of node `id`: `Simulation::add_process`
/// allocates sequentially from 0, and the harness registers nodes in the
/// same order it allocates ids.
fn addr(id: NodeId) -> Addr {
    Addr::from_raw(id.as_u64())
}

impl Process for SimNode {
    type Msg = Message;

    fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
        let now = ctx.now().as_micros() / 1_000;
        let startup = std::mem::take(&mut self.startup);
        for input in startup {
            let effects = self.engine.handle(now, input);
            self.apply_effects(ctx, effects);
        }
        ctx.set_timer(
            SimTime::from_millis(self.engine.config().heartbeat_interval),
            TICK_TIMER,
        );
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Message>, from: Addr, msg: Message) {
        let now = ctx.now().as_micros() / 1_000;
        let effects = self.engine.handle(
            now,
            Input::Message {
                from: NodeId::new(from.as_u64()),
                message: msg,
            },
        );
        self.apply_effects(ctx, effects);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Message>, timer: u64) {
        if timer != TICK_TIMER {
            return;
        }
        let now = ctx.now().as_micros() / 1_000;
        let effects = self.engine.handle(now, Input::Tick);
        self.apply_effects(ctx, effects);
        ctx.set_timer(
            SimTime::from_millis(self.engine.config().heartbeat_interval),
            TICK_TIMER,
        );
    }
}

/// Builds and drives whole simulated GeoGrid networks.
///
/// # Examples
///
/// ```
/// use geogrid_core::engine::sim::SimHarness;
/// use geogrid_core::engine::{EngineConfig, EngineMode};
/// use geogrid_geometry::{Point, Space};
///
/// let mut h = SimHarness::new(Space::paper_evaluation(), EngineConfig::default(), 7);
/// h.bootstrap(Point::new(10.0, 10.0), 10.0);
/// h.join(Point::new(50.0, 50.0), 100.0);
/// h.settle();
/// assert_eq!(h.owner_count(), 2);
/// ```
#[derive(Debug)]
pub struct SimHarness {
    space: Space,
    config: EngineConfig,
    sim: Simulation<SimNode>,
    /// Nodes spawned so far; node `i` lives at simulator address `i`.
    nodes: u64,
}

impl SimHarness {
    /// Creates a harness over `space` with the given engine config and
    /// simulation seed.
    pub fn new(space: Space, config: EngineConfig, seed: u64) -> Self {
        Self {
            space,
            config,
            sim: Simulation::new(SimConfig::default(), seed),
            nodes: 0,
        }
    }

    /// Adds the first node, owning the whole space.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn bootstrap(&mut self, coord: Point, capacity: f64) -> NodeId {
        assert_eq!(self.nodes, 0, "bootstrap exactly once");
        self.spawn(coord, capacity, vec![Input::BootstrapAsFirst])
    }

    /// Adds a node that joins through the first node as entry.
    ///
    /// # Panics
    ///
    /// Panics if the network was never bootstrapped.
    pub fn join(&mut self, coord: Point, capacity: f64) -> NodeId {
        assert!(self.nodes > 0, "bootstrap first");
        let entry = NodeId::new(0);
        self.spawn(coord, capacity, vec![Input::Join { entry }])
    }

    fn spawn(&mut self, coord: Point, capacity: f64, startup: Vec<Input>) -> NodeId {
        let id = NodeId::new(self.nodes);
        let info = NodeInfo::new(id, coord, capacity);
        let engine = NodeEngine::new(info, self.space, self.config);
        let node = SimNode {
            engine,
            events: Vec::new(),
            startup,
        };
        assert_eq!(
            self.sim.add_process(node).as_u64(),
            id.as_u64(),
            "process address must equal node id"
        );
        self.nodes += 1;
        id
    }

    /// Lets joins, updates and heartbeats settle: [`Self::run_for`] one
    /// simulated second (heartbeat timers re-arm forever, so the
    /// simulation is never quiescent).
    pub fn settle(&mut self) {
        self.run_for(1_000);
    }

    /// Runs the simulation for `ms` simulated milliseconds.
    pub fn run_for(&mut self, ms: u64) {
        let deadline = self.sim.now() + SimTime::from_millis(ms);
        self.sim.run_until(deadline, 5_000_000);
    }

    /// Injects a local input into node `id` and processes it immediately
    /// (outside the message flow — models the co-located client).
    pub fn inject(&mut self, id: NodeId, input: Input) {
        // Deliver through a self-addressed message-free path: run the
        // engine directly and replay effects through the simulator.
        let from = addr(id);
        let now = self.sim.now().as_micros() / 1_000;
        let Some(node) = self.sim.process_mut(from) else {
            return;
        };
        let effects = node.engine.handle(now, input);
        let mut outgoing = Vec::new();
        for effect in effects {
            match effect {
                Effect::Send { to, message } => outgoing.push((to, message)),
                Effect::Client(event) => node.events.push(event),
            }
        }
        for (to, message) in outgoing {
            self.sim.post(from, addr(to), message);
        }
    }

    /// Crashes a node without warning.
    pub fn crash(&mut self, id: NodeId) {
        self.sim.crash(addr(id));
    }

    /// Number of live nodes currently owning (or co-owning) a region.
    pub fn owner_count(&self) -> usize {
        (0..self.nodes)
            .filter_map(|i| self.node(NodeId::new(i)))
            .filter(|n| n.engine.is_owner())
            .count()
    }

    /// Snapshot of every live owner's view, ordered by node id.
    pub fn owner_views(&self) -> Vec<(NodeId, crate::engine::OwnerView)> {
        (0..self.nodes)
            .map(NodeId::new)
            .filter_map(|id| Some((id, self.node(id)?.engine.owner_view()?)))
            .collect()
    }

    /// The engine of live node `id`.
    pub fn engine(&self, id: NodeId) -> Option<&NodeEngine> {
        self.node(id).map(|n| &n.engine)
    }

    /// Client events observed by node `id` so far.
    pub fn events_of(&self, id: NodeId) -> &[ClientEvent] {
        self.node(id).map_or(&[], |n| n.events.as_slice())
    }

    fn node(&self, id: NodeId) -> Option<&SimNode> {
        self.sim.process(addr(id))
    }

    /// Message statistics from the underlying simulator.
    pub fn stats(&self) -> geogrid_simnet::SimStats {
        self.sim.stats()
    }

    /// The simulated space.
    pub fn space(&self) -> Space {
        self.space
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineMode;
    use crate::node::Role;
    use geogrid_geometry::Region;

    fn harness(mode: EngineMode, seed: u64) -> SimHarness {
        SimHarness::new(
            Space::paper_evaluation(),
            EngineConfig {
                mode,
                ..EngineConfig::default()
            },
            seed,
        )
    }

    /// Deterministic pseudo-random coordinate sequence.
    fn coords(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let x = ((i as f64 + 1.0) * 0.754877666).fract() * 63.0 + 0.5;
                let y = ((i as f64 + 1.0) * 0.569840296).fract() * 63.0 + 0.5;
                Point::new(x, y)
            })
            .collect()
    }

    /// The primary regions of a settled network must tile the space.
    fn assert_tiles(views: &[(NodeId, crate::engine::OwnerView)], space: Space) {
        let primaries: Vec<Region> = views
            .iter()
            .filter(|(_, v)| v.role == Role::Primary)
            .map(|(_, v)| v.region)
            .collect();
        let area: f64 = primaries.iter().map(Region::area).sum();
        assert!(
            (area - space.bounds().area()).abs() < 1e-6,
            "primary regions cover {area}, space is {}",
            space.bounds().area()
        );
        for (i, a) in primaries.iter().enumerate() {
            for b in primaries.iter().skip(i + 1) {
                assert!(!a.intersects(b), "{a} overlaps {b}");
            }
        }
    }

    #[test]
    fn basic_network_converges_to_tiling() {
        let mut h = harness(EngineMode::Basic, 1);
        let pts = coords(16);
        h.bootstrap(pts[0], 10.0);
        for p in &pts[1..] {
            h.join(*p, 10.0);
            h.run_for(200); // let each join finish before the next
        }
        h.settle();
        assert_eq!(h.owner_count(), 16);
        let views = h.owner_views();
        assert_tiles(&views, h.space());
    }

    #[test]
    fn dual_network_pairs_owners() {
        let mut h = harness(EngineMode::DualPeer, 2);
        let pts = coords(12);
        h.bootstrap(pts[0], 10.0);
        for (i, p) in pts[1..].iter().enumerate() {
            h.join(*p, if i % 2 == 0 { 100.0 } else { 1.0 });
            h.run_for(200);
        }
        h.settle();
        assert_eq!(h.owner_count(), 12);
        let views = h.owner_views();
        assert_tiles(&views, h.space());
        // Every secondary's peer is a primary of the same region.
        for (_, v) in &views {
            if v.role == Role::Secondary {
                let peer = v.peer.expect("secondary has a peer");
                let partner = views.iter().find(|(id, _)| *id == peer.id());
                if let Some((_, pv)) = partner {
                    assert_eq!(pv.region, v.region);
                    assert_eq!(pv.role, Role::Primary);
                }
            }
        }
        // Fewer primary regions than nodes (pairs formed).
        let primaries = views
            .iter()
            .filter(|(_, v)| v.role == Role::Primary)
            .count();
        assert!(primaries < 12, "no pairing happened");
    }

    #[test]
    fn failover_promotes_secondary_and_keeps_tiling() {
        let mut h = harness(EngineMode::DualPeer, 3);
        let pts = coords(6);
        h.bootstrap(pts[0], 10.0);
        for p in &pts[1..] {
            h.join(*p, 10.0);
            h.run_for(200);
        }
        h.settle();
        // Find a primary with a peer and crash it.
        let victim = h
            .owner_views()
            .into_iter()
            .find(|(_, v)| v.role == Role::Primary && v.peer.is_some())
            .map(|(id, _)| id)
            .expect("a full region exists");
        h.crash(victim);
        h.run_for(3_000); // several heartbeat timeouts
        let views = h.owner_views();
        assert_tiles(&views, h.space());
        // Someone reported a promotion.
        let promoted = views.iter().any(|(id, _)| {
            h.events_of(*id)
                .iter()
                .any(|e| matches!(e, ClientEvent::PromotedToPrimary { .. }))
        });
        assert!(promoted, "no promotion observed");
    }

    #[test]
    fn publish_query_and_notify_flow_end_to_end() {
        use crate::service::{LocationQuery, LocationRecord, Subscription};
        let mut h = harness(EngineMode::Basic, 4);
        let pts = coords(8);
        h.bootstrap(pts[0], 10.0);
        for p in &pts[1..] {
            h.join(*p, 10.0);
            h.run_for(200);
        }
        h.settle();
        let subscriber = NodeId::new(3);
        let publisher = NodeId::new(5);
        let asker = NodeId::new(7);
        let spot = Point::new(20.0, 20.0);
        // Subscribe around the spot, publish at it, query it.
        h.inject(
            subscriber,
            Input::UserSubscribe {
                sub: Subscription::new(
                    1,
                    Region::new(spot.x - 2.0, spot.y - 2.0, 4.0, 4.0),
                    subscriber,
                    1_000_000,
                ),
            },
        );
        h.run_for(500);
        h.inject(
            publisher,
            Input::UserPublish {
                record: LocationRecord::new(1, "traffic", spot, b"jam".to_vec()),
            },
        );
        h.run_for(500);
        let notified = h
            .events_of(subscriber)
            .iter()
            .any(|e| matches!(e, ClientEvent::Notified { .. }));
        assert!(notified, "subscriber never notified");
        h.inject(
            asker,
            Input::UserQuery {
                query: LocationQuery::new(Region::new(spot.x - 1.0, spot.y - 1.0, 2.0, 2.0), asker),
            },
        );
        h.run_for(500);
        let got = h
            .events_of(asker)
            .iter()
            .any(|e| matches!(e, ClientEvent::QueryResults { records, .. } if !records.is_empty()));
        assert!(got, "query returned nothing");
    }

    #[test]
    fn deterministic_under_seed() {
        let build = |seed: u64| {
            let mut h = harness(EngineMode::DualPeer, seed);
            let pts = coords(10);
            h.bootstrap(pts[0], 10.0);
            for p in &pts[1..] {
                h.join(*p, 10.0);
                h.run_for(200);
            }
            h.settle();
            let mut views: Vec<(u64, Region)> = h
                .owner_views()
                .into_iter()
                .map(|(id, v)| (id.as_u64(), v.region))
                .collect();
            views.sort_by_key(|(id, _)| *id);
            views
        };
        assert_eq!(build(7), build(7));
    }
}
