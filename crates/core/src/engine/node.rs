//! The per-node protocol state machine.

use geogrid_geometry::{Point, Region, Space};

use crate::engine::messages::{Message, NeighborInfo};
use crate::node::Role;
use crate::rules::{self, Candidate, Donor, DonorChoice, Placement};
use crate::service::{LocationQuery, LocationRecord, RegionStore, Subscription};
use crate::{NodeId, NodeInfo};

/// Ticks per workload-statistics window: the served-request count is
/// folded into the node's workload index at this cadence, and the
/// adaptation trigger is evaluated.
const STATS_WINDOW_TICKS: u64 = 5;

/// Hop budget for greedy forwarding and fan-out floods (loop guard).
const MAX_HOPS: u32 = 256;

/// How long a finger is taken after its node was last heard from (a lookup
/// answer or any message from it). Past that, a route that would take it
/// goes greedy and re-confirms it with a lookup sent straight to the node,
/// and a lookup unanswered within [`LOOKUP_TIMEOUT`] drops the finger: a
/// crashed node stops drawing requests within one TTL. Shorter costs more
/// re-confirmations, longer loses more requests to crashed nodes.
const FINGER_TTL: u64 = 10_000;

/// A finger lookup unanswered for this long may be sent again, and drops
/// the finger it re-confirms.
const LOOKUP_TIMEOUT: u64 = 1_000;

/// Which join protocol the engine speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Basic GeoGrid: every join splits the covering region.
    #[default]
    Basic,
    /// Dual-peer GeoGrid: joins fill half-full regions first.
    DualPeer,
}

/// Engine tuning. Times are in the driver's tick domain (milliseconds
/// under both the simulator and the TCP runtime).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Join protocol.
    pub mode: EngineMode,
    /// How often the driver is expected to deliver [`Input::Tick`].
    pub heartbeat_interval: u64,
    /// A dual peer silent for this long is declared failed (§2.3 has
    /// primaries and secondaries heartbeat "at a higher frequency").
    pub peer_timeout: u64,
    /// A neighbor primary silent for this long is dropped from the
    /// routing table.
    pub neighbor_timeout: u64,
    /// Whether the engine runs the message-level load-balance adaptation
    /// (mechanisms (a)/(e) of §2.4; the remote and merge/split mechanisms
    /// are exercised through the topology model).
    pub balance_enabled: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            mode: EngineMode::DualPeer,
            heartbeat_interval: 100,
            peer_timeout: 350,
            neighbor_timeout: 1_000,
            balance_enabled: true,
        }
    }
}

/// Local input to the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// Become the first node: own the entire space.
    BootstrapAsFirst,
    /// Start joining through `entry` (any known node).
    Join {
        /// The entry node to contact.
        entry: NodeId,
    },
    /// A protocol message arrived.
    Message {
        /// Sender node.
        from: NodeId,
        /// The message.
        message: Message,
    },
    /// Periodic driver tick (heartbeats, timeouts).
    Tick,
    /// Gracefully leave the network (§2.3 "Node Departure").
    Leave,
    /// The local user (mobile client) issues a query.
    UserQuery {
        /// The query.
        query: LocationQuery,
    },
    /// The local user publishes a record.
    UserPublish {
        /// The record.
        record: LocationRecord,
    },
    /// The local user registers a subscription.
    UserSubscribe {
        /// The subscription.
        sub: Subscription,
    },
}

/// Externally visible consequence of handling an input.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Send a protocol message to another node.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        message: Message,
    },
    /// Deliver an event to the local client.
    Client(ClientEvent),
}

/// Events the engine reports to its local client (the proxied mobile
/// user / operator).
#[derive(Debug, Clone, PartialEq)]
pub enum ClientEvent {
    /// The node now (co-)owns a region.
    Joined {
        /// The owned region.
        region: Region,
        /// The role held.
        role: Role,
    },
    /// The node's dual peer failed or left; this node is now the primary.
    PromotedToPrimary {
        /// The owned region.
        region: Region,
    },
    /// This primary's secondary went silent; the region is half-full.
    PeerLost {
        /// The owned region.
        region: Region,
    },
    /// Results for a user query arrived. One event arrives per answering
    /// region (the executor plus each fanned-out overlapping region);
    /// `query_id` correlates them to the issuing [`Input::UserQuery`].
    QueryResults {
        /// The correlation id returned by the issuing engine.
        query_id: u64,
        /// Matching records from one answering region.
        records: Vec<LocationRecord>,
    },
    /// A subscribed publication arrived.
    Notified {
        /// The matching record.
        record: LocationRecord,
    },
    /// This node executed a load-balance adaptation (§2.4).
    AdaptationExecuted {
        /// The paper's letter for the mechanism used ('a' or 'e' at the
        /// engine level).
        mechanism: char,
    },
    /// The node has left the overlay (after [`Input::Leave`]); the driver
    /// may shut the node down.
    Left,
    /// A graceful departure was requested but the region has no dual peer
    /// and no mergeable neighbor to hand it to; the node stays (retry
    /// later, after churn reshapes the neighborhood, or crash-leave and
    /// let the model-level repair take over).
    LeaveDeferred,
}

/// Read-only view of an owner's protocol state (drivers and tests).
#[derive(Debug, Clone, PartialEq)]
pub struct OwnerView {
    /// The owned region.
    pub region: Region,
    /// This node's role.
    pub role: Role,
    /// The dual peer, if any.
    pub peer: Option<NodeInfo>,
    /// Known neighbor entries.
    pub neighbors: Vec<NeighborInfo>,
    /// Number of records held.
    pub records: usize,
}

#[derive(Debug, Clone, PartialEq)]
enum State {
    Idle,
    Joining,
    // Boxed: Owner is two orders of magnitude larger than the other
    // variants (store, neighbor table), and engines move between states
    // rarely.
    Owner(Box<Owner>),
}

/// One row of an owner's neighbor table.
#[derive(Debug, Clone, PartialEq)]
struct Neighbor {
    info: NeighborInfo,
    /// Tick at which the entry was last refreshed; silence is measured
    /// from here.
    last_seen: u64,
    /// Workload index from its primary's latest heartbeat, once one came.
    index: Option<f64>,
}

/// One express link of an owner's finger table: a hint of which node
/// owned which region around finger point `slot`
/// ([`rules::finger_point`]) when it was learned. A hint only: the node
/// it names routes on from its own real region.
#[derive(Debug, Clone, PartialEq)]
struct Finger {
    /// The finger slot the hint was looked up for.
    slot: u8,
    /// The region's primary, as the lookup found it.
    node: NodeId,
    region: Region,
    /// Tick from which the hint is not taken until a lookup re-confirms it.
    expires: u64,
}

impl Neighbor {
    /// A freshly received entry: it counts as heard from at `now`, with no
    /// workload index reported yet.
    fn new(info: NeighborInfo, now: u64) -> Self {
        Self {
            info,
            last_seen: now,
            index: None,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Owner {
    region: Region,
    role: Role,
    peer: Option<NodeInfo>,
    neighbors: Vec<Neighbor>,
    store: RegionStore,
    last_peer_seen: u64,
    /// Queries/publications served since the last statistics window.
    served: f64,
    /// Workload index measured over the last window (served / capacity).
    my_index: f64,
    /// An adaptation request is outstanding (avoid concurrent attempts).
    steal_in_flight: bool,
    /// Ticks seen (drives the statistics window).
    ticks: u64,
    /// Silent sibling regions queued for absorption, pending the
    /// [`Message::WhoOwns`] ring-check (entry, absorb-after deadline).
    pending_claims: Vec<(NeighborInfo, u64)>,
    /// Whether the current peer has heartbeat us since it was installed.
    /// An unconfirmed secondary is still settling a hand-off and must not
    /// be granted away to a steal request.
    peer_confirmed: bool,
    /// Recently seen fan-out keys (query/subscription flood dedup), a
    /// bounded FIFO.
    seen_fanout: std::collections::VecDeque<(NodeId, u64)>,
    /// Express links, learned lazily by [`Message::Locate`]; at most one
    /// per answering region.
    fingers: Vec<Finger>,
    /// Finger lookups in flight: (slot, tick sent).
    lookups: Vec<(u8, u64)>,
}

impl From<Owner> for State {
    fn from(owner: Owner) -> State {
        State::Owner(Box::new(owner))
    }
}

/// Outcome of the forwarding step for one routed request.
enum Route {
    /// Our region covers the target: the request is executed here.
    Execute,
    /// Not ours: pass it on to this node with this hop count — or drop it
    /// when there is none (hop budget spent, or no neighbor known). The
    /// step may also send one finger lookup: its first hop and the finger
    /// point.
    Forward(Option<(NodeId, u32)>, Option<(NodeId, Point)>),
}

/// The effects of [`Route::Forward`]: the request re-wrapped with its new
/// hop count and sent to the next node (or nothing), and `me`'s lookup.
fn forward(
    me: NodeId,
    next: Option<(NodeId, u32)>,
    lookup: Option<(NodeId, Point)>,
    wrap: impl FnOnce(u32) -> Message,
) -> Vec<Effect> {
    let send = next.map(|(to, hops)| (to, wrap(hops)));
    let locate = lookup.map(|(to, target)| {
        let (reply_to, hops) = (me, 1);
        (
            to,
            Message::Locate {
                target,
                reply_to,
                hops,
            },
        )
    });
    let sends = send.into_iter().chain(locate);
    sends
        .map(|(to, message)| Effect::Send { to, message })
        .collect()
}

/// Whether the owner of `mine` absorbs the silent region `gone`: only as
/// its congruent *west* sibling. Merge compatibility already forces equal
/// y/height for a west-east pair, and at most one region can sit flush to
/// the dead region's west edge with its exact extent — so the claimant is
/// globally unique without coordination. (A south sibling could also
/// merge; letting both claim could overlap, so it does not.)
fn claims_as_west_sibling(mine: &Region, gone: &Region) -> bool {
    gone.merge(mine).is_some() && (mine.y() - gone.y()).abs() < 1e-9 && mine.x() < gone.x()
}

impl Owner {
    fn new(
        node: NodeId,
        region: Region,
        role: Role,
        peer: Option<NodeInfo>,
        neighbors: Vec<NeighborInfo>,
        mut store: RegionStore,
        now: u64,
    ) -> Self {
        // Re-home the store's HLC clock: stamps minted for records
        // published here must carry this owner's id so hand-off
        // last-write-wins is totally ordered across owners.
        store.set_node(node.as_u64());
        Self {
            region,
            role,
            peer,
            neighbors: Self::table(neighbors, now),
            store,
            last_peer_seen: now,
            served: 0.0,
            my_index: 0.0,
            steal_in_flight: false,
            ticks: 0,
            pending_claims: Vec::new(),
            peer_confirmed: false,
            seen_fanout: std::collections::VecDeque::new(),
            fingers: Vec::new(),
            lookups: Vec::new(),
        }
    }

    /// Takes on a new region shape. The finger slots aim from the
    /// region's center, so the finger table starts over.
    fn reshape(&mut self, region: Region) {
        self.region = region;
        self.fingers.clear();
        self.lookups.clear();
    }

    /// A neighbor table out of freshly received entries.
    fn table(infos: Vec<NeighborInfo>, now: u64) -> Vec<Neighbor> {
        infos
            .into_iter()
            .map(|info| Neighbor::new(info, now))
            .collect()
    }

    /// The table's entries, as hand-off and replication messages carry
    /// them.
    fn neighbor_infos(&self) -> Vec<NeighborInfo> {
        self.neighbors.iter().map(|n| n.info.clone()).collect()
    }

    /// This region's routing entry as its owners stand now (`me` is the
    /// node this state belongs to).
    fn self_entry(&self, me: NodeInfo) -> NeighborInfo {
        let (primary, secondary) = match (self.role, self.peer) {
            (Role::Secondary, Some(primary)) => (primary, Some(me)),
            _ => (me, self.peer),
        };
        NeighborInfo {
            primary,
            secondary,
            region: self.region,
        }
    }

    /// Routing-table maintenance: sends our current entry to every
    /// neighbor primary.
    fn announce(&self, me: NodeInfo, effects: &mut Vec<Effect>) {
        let info = self.self_entry(me);
        effects.extend(self.neighbors.iter().map(|n| Effect::Send {
            to: n.info.primary.id(),
            message: Message::NeighborUpdate { info: info.clone() },
        }));
    }

    /// The hand-off that seats `primary` and `secondary` in this region,
    /// with our neighbor table and a copy of our store.
    fn handoff(&self, primary: NodeInfo, secondary: Option<NodeInfo>) -> Message {
        Message::Install {
            region: self.region,
            primary,
            secondary,
            neighbors: self.neighbor_infos(),
            store: Box::new(self.store.clone()),
        }
    }

    /// Upserts a neighbor entry (keyed by node and by rectangle), keeping
    /// the node's last reported workload index unless `index` brings a
    /// newer one; entries no longer adjacent to us are dropped.
    fn upsert_neighbor(&mut self, info: NeighborInfo, now: u64, mut index: Option<f64>) {
        // Fresh knowledge about the area cancels any pending absorption
        // overlapping it (the region is not dead after all).
        self.pending_claims
            .retain(|(gone, _)| !gone.region.intersects(&info.region));
        self.neighbors.retain(|n| {
            let same_node = n.info.primary.id() == info.primary.id();
            if same_node {
                index = index.or(n.index);
            }
            !same_node && n.info.region != info.region
        });
        if info.region.touches_edge(&self.region) {
            self.neighbors.push(Neighbor {
                info,
                last_seen: now,
                index,
            });
        }
    }

    /// Greedy next hop toward `target` (§2.2): the neighbor whose
    /// rectangle is closest, ties broken by center distance, then node id
    /// — the key of the central model's `routing::next_hop`. The model
    /// also keeps a visited set; a message cannot, so a neighbor that
    /// *covers* the target goes first: a target exactly on a shared corner
    /// is at distance zero from every rectangle around it, and the center
    /// tie-break alone can bounce it between two that do not own it. Nor
    /// does the step hand a request straight back to `from`, the node it
    /// came from, unless that is the only neighbor: around a hole a crash
    /// left, two owners can each see the other as closest.
    fn next_hop(&self, space: &Space, target: Point, from: NodeId) -> Option<NodeId> {
        // Forwarding is the engine's hot path and exact ties are rare: the
        // cover test and the center distance (with its sqrt) are worked
        // out only for the two sides of one.
        let tie_break = |n: &Neighbor| {
            let rect = &n.info.region;
            (
                !space.region_covers(rect, target),
                rect.center().distance(target),
                n.info.primary.id(),
            )
        };
        let mut best: Option<(f64, &Neighbor)> = None;
        let back = |n: &Neighbor| n.info.primary.id() == from && self.neighbors.len() > 1;
        for n in self.neighbors.iter().filter(|n| !back(n)) {
            let d = n.info.region.distance_to_point(target);
            let closer = best.is_none_or(|(best_d, b)| {
                d < best_d || (d == best_d && tie_break(n) < tie_break(b))
            });
            if closer {
                best = Some((d, n));
            }
        }
        best.map(|(_, n)| n.info.primary.id())
    }

    /// The forwarding step every routed request takes (§2.2): join
    /// requests, queries, publications, subscriptions and finger lookups
    /// all come through here, toward the coordinate each is addressed to.
    /// `to_primary` says the request is served by primaries only. Past
    /// the express gate, the step takes a finger when [`rules::express`]
    /// allows it — never one naming `from`, the node the request came
    /// from — and otherwise asks for the finger it wants; greedy is the
    /// last mile.
    fn route(
        &mut self,
        space: &Space,
        now: u64,
        from: NodeId,
        target: Point,
        hops: u32,
        to_primary: bool,
    ) -> Route {
        // A secondary hands the request to its primary — the primary
        // "handles all the requests" (§2.3) — whether or not the region
        // covers the target; the hand-over is not an overlay hop.
        if to_primary && self.role == Role::Secondary {
            if let Some(primary) = self.peer {
                return Route::Forward(Some((primary.id(), hops)), None);
            }
        }
        if space.region_covers(&self.region, target) {
            return Route::Execute;
        }
        if hops >= MAX_HOPS {
            return Route::Forward(None, None);
        }
        let floor = rules::finger_base(space);
        // Past the express hop cap (stale fingers), the route is greedy.
        let engaged = (hops as usize) < rules::EXPRESS_MAX_HOPS
            && rules::express_cutoff(&self.region, target, floor).is_some();
        if !engaged {
            let next = self.next_hop(space, target, from);
            return Route::Forward(next.map(|next| (next, hops + 1)), None);
        }
        // A finger past its TTL is not taken but re-confirmed, and the hop
        // is greedy until the answer comes.
        let (next, lookup) = match self.express(from, target, floor) {
            Some(node) if !self.expired(now, node) => (Some(node), None),
            Some(node) => (
                self.next_hop(space, target, from),
                self.reconfirm(space, now, node),
            ),
            None => (
                self.next_hop(space, target, from),
                self.want_finger(space, now, from, target),
            ),
        };
        Route::Forward(next.map(|next| (next, hops + 1)), lookup)
    }

    /// The finger [`rules::express`] takes toward `target`, if any, among
    /// those not naming `from`.
    fn express(&self, from: NodeId, target: Point, floor: f64) -> Option<NodeId> {
        let fingers = self.fingers.iter().filter(|f| f.node != from);
        let fingers = fingers.map(|f| (f.region, f.node));
        let neighbors = self
            .neighbors
            .iter()
            .map(|n| (n.info.region, n.info.primary.id()));
        let center = |rect: &Region, _| rect.center();
        rules::express(&self.region, target, floor, fingers, neighbors, center)
    }

    /// The finger a route toward `target` wants: the slot whose point lies
    /// nearest the target. Looks it up, unless its point is already known
    /// (in our region, a neighbor's or a finger's) or a lookup for the slot
    /// is in flight: a [`Message::Locate`] for the point, on its first hop.
    fn want_finger(
        &mut self,
        space: &Space,
        now: u64,
        from: NodeId,
        target: Point,
    ) -> Option<(NodeId, Point)> {
        let center = self.region.center();
        let (dx, dy) = (target.x - center.x, target.y - center.y);
        // The nearest point lies along one of the two compass directions
        // facing the target, at one of the two scales around its reach.
        let base = rules::finger_base(space);
        let last = rules::FINGER_SCALES - 1;
        let (slot, point) = [(dx, 0, 2), (dy, 1, 3)]
            .into_iter()
            .flat_map(|(reach, ahead, behind)| {
                let dir = if reach >= 0.0 { ahead } else { behind };
                let scale = (reach.abs() / base).log2().floor().clamp(0.0, last as f64) as usize;
                [scale, (scale + 1).min(last)].map(|s| s * rules::FINGER_DIRS + dir)
            })
            .map(|k| (k, rules::finger_point(space, center, k)))
            .min_by(|a, b| {
                a.1.distance_squared(target)
                    .total_cmp(&b.1.distance_squared(target))
            })?;
        let known = space.region_covers(&self.region, point)
            || self
                .neighbors
                .iter()
                .any(|n| space.region_covers(&n.info.region, point))
            || self
                .fingers
                .iter()
                .any(|f| space.region_covers(&f.region, point))
            || self.lookups.iter().any(|&(k, _)| usize::from(k) == slot);
        if known {
            return None;
        }
        let to = self
            .express(from, point, base)
            .or_else(|| self.next_hop(space, point, from))?;
        self.lookups.push((slot as u8, now));
        Some((to, point))
    }

    /// Whether the finger naming `node` is past its TTL.
    fn expired(&self, now: u64, node: NodeId) -> bool {
        let finger = self.fingers.iter().find(|f| f.node == node);
        finger.is_some_and(|f| now >= f.expires)
    }

    /// A route would take the expired finger naming `node`: unless a
    /// lookup for its slot is in flight, re-confirm it by a lookup sent to
    /// `node` itself, which answers at once if it still owns the point and
    /// is lost if it crashed.
    fn reconfirm(&mut self, space: &Space, now: u64, node: NodeId) -> Option<(NodeId, Point)> {
        let slot = self.fingers.iter().find(|f| f.node == node)?.slot;
        if self.lookups.iter().any(|&(k, _)| k == slot) {
            return None;
        }
        self.lookups.push((slot, now));
        let point = rules::finger_point(space, self.region.center(), usize::from(slot));
        Some((node, point))
    }

    /// An owner entry arrived: it answers every lookup in flight whose
    /// finger point its region covers, and becomes one finger.
    fn learn(&mut self, space: &Space, now: u64, info: &NeighborInfo) {
        let center = self.region.center();
        let mut answered = None;
        self.lookups.retain(|&(k, _)| {
            let point = rules::finger_point(space, center, usize::from(k));
            let answers = space.region_covers(&info.region, point);
            if answers {
                answered = answered.or(Some(k));
            }
            !answers
        });
        let Some(slot) = answered else {
            return;
        };
        let node = info.primary.id();
        self.fingers.retain(|f| f.node != node && f.slot != slot);
        self.fingers.push(Finger {
            slot,
            node,
            region: info.region,
            expires: now + FINGER_TTL,
        });
    }

    /// Serves `query` from the local store, counting it toward the
    /// workload index.
    fn answer(&mut self, query: &LocationQuery, now: u64) -> Vec<LocationRecord> {
        self.served += 1.0;
        self.store.query(query, now).into_iter().cloned().collect()
    }

    /// Flood step of query and subscription fan-out: `copy()` to the
    /// primary of every neighbor whose region overlaps `area`.
    fn fan_out(&self, area: &Region, effects: &mut Vec<Effect>, copy: impl Fn() -> Message) {
        for n in &self.neighbors {
            if n.info.region.intersects(area) {
                effects.push(Effect::Send {
                    to: n.info.primary.id(),
                    message: copy(),
                });
            }
        }
    }

    /// Flood dedup: returns true the first time a fan-out key is seen.
    fn first_sight(&mut self, key: (NodeId, u64)) -> bool {
        if self.seen_fanout.contains(&key) {
            return false;
        }
        if self.seen_fanout.len() >= 128 {
            self.seen_fanout.pop_front();
        }
        self.seen_fanout.push_back(key);
        true
    }
}

/// The GeoGrid middleware state machine for one node.
///
/// See the [module docs](crate::engine) for the design and
/// [`crate::engine::sim`] for a complete simulated deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeEngine {
    info: NodeInfo,
    space: Space,
    config: EngineConfig,
    state: State,
    next_query_id: u64,
}

impl NodeEngine {
    /// Creates an engine for node `info` over `space`.
    pub fn new(info: NodeInfo, space: Space, config: EngineConfig) -> Self {
        Self {
            info,
            space,
            config,
            state: State::Idle,
            next_query_id: 0,
        }
    }

    /// This node's descriptor.
    pub fn info(&self) -> NodeInfo {
        self.info
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Whether the node currently owns (or co-owns) a region.
    pub fn is_owner(&self) -> bool {
        matches!(self.state, State::Owner(_))
    }

    /// A snapshot of the owner state, if owning.
    pub fn owner_view(&self) -> Option<OwnerView> {
        match &self.state {
            State::Owner(o) => Some(OwnerView {
                region: o.region,
                role: o.role,
                peer: o.peer,
                neighbors: o.neighbor_infos(),
                records: o.store.record_count(),
            }),
            _ => None,
        }
    }

    /// The store of the region owned (or replicated), if owning.
    pub fn store(&self) -> Option<&RegionStore> {
        match &self.state {
            State::Owner(o) => Some(&o.store),
            _ => None,
        }
    }

    /// Processes one input at tick `now`, returning the effects to apply.
    pub fn handle(&mut self, now: u64, input: Input) -> Vec<Effect> {
        match input {
            Input::BootstrapAsFirst => self.handle_bootstrap(now),
            Input::Join { entry } => self.handle_join_start(entry),
            Input::Message { from, message } => self.handle_message(now, from, message),
            Input::Tick => self.handle_tick(now),
            Input::Leave => self.handle_leave(),
            Input::UserQuery { query } => {
                self.next_query_id += 1;
                let (me, id) = (self.info.id(), self.next_query_id);
                self.on_query(now, me, query, id, me, 0, false)
            }
            Input::UserPublish { record } => self.on_publish(now, self.info.id(), record, 0),
            Input::UserSubscribe { sub } => self.on_subscribe(now, self.info.id(), sub, 0, false),
        }
    }

    fn handle_bootstrap(&mut self, now: u64) -> Vec<Effect> {
        let region = self.space.bounds();
        self.state = State::from(Owner::new(
            self.info.id(),
            region,
            Role::Primary,
            None,
            Vec::new(),
            RegionStore::new(),
            now,
        ));
        vec![Effect::Client(ClientEvent::Joined {
            region,
            role: Role::Primary,
        })]
    }

    /// Graceful departure (§2.3):
    /// * a secondary just notifies its primary (region becomes half-full);
    /// * a primary with a dual peer hands the region to it;
    /// * a sole owner hands region + store to a mergeable neighbor;
    /// * otherwise the departure is deferred (see
    ///   [`ClientEvent::LeaveDeferred`]).
    fn handle_leave(&mut self) -> Vec<Effect> {
        let State::Owner(owner) = &mut self.state else {
            self.state = State::Idle;
            return vec![Effect::Client(ClientEvent::Left)];
        };
        let mut effects = Vec::new();
        match (owner.role, owner.peer) {
            (Role::Secondary, Some(primary)) => {
                effects.push(Effect::Send {
                    to: primary.id(),
                    message: Message::LeaveNotice,
                });
            }
            (Role::Primary, Some(peer)) => {
                effects.push(Effect::Send {
                    to: peer.id(),
                    message: owner.handoff(peer, None),
                });
            }
            (_, None) => {
                // Sole owner: find a neighbor whose rectangle re-forms a
                // rectangle with ours and hand everything over.
                let target = owner
                    .neighbors
                    .iter()
                    .find(|n| n.info.region.merge(&owner.region).is_some())
                    .map(|n| n.info.primary.id());
                match target {
                    Some(absorber) => {
                        effects.push(Effect::Send {
                            to: absorber,
                            message: Message::MergeRegions {
                                region: owner.region,
                                store: Box::new(owner.store.clone()),
                                neighbors: owner.neighbor_infos(),
                            },
                        });
                    }
                    None => {
                        return vec![Effect::Client(ClientEvent::LeaveDeferred)];
                    }
                }
            }
        }
        self.state = State::Idle;
        effects.push(Effect::Client(ClientEvent::Left));
        effects
    }

    /// Ring-check: reply with any live entry for (part of) the asked
    /// region — our own region included (we may be the promoted owner the
    /// asker never learned about).
    fn on_who_owns(&mut self, from: NodeId, region: Region) -> Vec<Effect> {
        let State::Owner(owner) = &self.state else {
            return Vec::new();
        };
        std::iter::once(owner.self_entry(self.info))
            .chain(owner.neighbors.iter().map(|n| n.info.clone()))
            .filter(|info| info.region.intersects(&region))
            .map(|info| Effect::Send {
                to: from,
                message: Message::OwnerIs { info },
            })
            .collect()
    }

    /// Our primary granted us away (§2.4 steal): give up the secondary
    /// role and wait for the [`Message::Install`] hand-off (or a
    /// re-placement).
    fn on_detached(&mut self, from: NodeId) -> Vec<Effect> {
        if let State::Owner(owner) = &self.state {
            if owner.role == Role::Secondary && owner.peer.is_some_and(|p| p.id() == from) {
                self.state = State::Joining;
            }
        }
        Vec::new()
    }

    /// A secondary announced its departure: the region is half-full.
    fn on_leave_notice(&mut self, from: NodeId) -> Vec<Effect> {
        let mut effects = Vec::new();
        if let State::Owner(owner) = &mut self.state {
            if owner.peer.is_some_and(|p| p.id() == from) {
                owner.peer = None;
                owner.announce(self.info, &mut effects);
            }
        }
        effects
    }

    /// A departing sole-owner neighbor handed us its region: absorb it.
    fn on_merge_regions(
        &mut self,
        now: u64,
        region: Region,
        store: RegionStore,
        neighbors: Vec<NeighborInfo>,
    ) -> Vec<Effect> {
        let State::Owner(owner) = &mut self.state else {
            return Vec::new();
        };
        let Some(merged) = owner.region.merge(&region) else {
            return Vec::new(); // stale request: shapes changed
        };
        owner.reshape(merged);
        owner.store.absorb(store);
        // Union the departed node's neighbor table with ours (first entry
        // per node wins); entries are re-filtered against the merged
        // rectangle.
        let ours = std::mem::take(&mut owner.neighbors);
        for n in ours.into_iter().chain(Owner::table(neighbors, now)) {
            let id = n.info.primary.id();
            if id != self.info.id()
                && n.info.region.touches_edge(&merged)
                && !owner.neighbors.iter().any(|k| k.info.primary.id() == id)
            {
                owner.neighbors.push(Neighbor {
                    last_seen: now,
                    ..n
                });
            }
        }
        let mut effects = Vec::new();
        owner.announce(self.info, &mut effects);
        effects
    }

    fn handle_join_start(&mut self, entry: NodeId) -> Vec<Effect> {
        self.state = State::Joining;
        vec![Effect::Send {
            to: entry,
            message: Message::JoinRequest {
                joiner: self.info,
                hops: 0,
            },
        }]
    }

    fn handle_tick(&mut self, now: u64) -> Vec<Effect> {
        let State::Owner(owner) = &mut self.state else {
            return Vec::new();
        };
        let mut effects = Vec::new();
        // Fold the served-request count into the workload index at the
        // statistics-window cadence (§2.4: nodes periodically exchange
        // workload statistics).
        owner.ticks += 1;
        let window_closed = owner.ticks.is_multiple_of(STATS_WINDOW_TICKS);
        if window_closed {
            owner.my_index = owner.served / self.info.capacity();
            owner.served = 0.0;
        }
        let heartbeat = Message::Heartbeat {
            info: owner.self_entry(self.info),
            index: owner.my_index,
        };
        // Heartbeat the dual peer (both directions, high frequency).
        if let Some(peer) = owner.peer {
            effects.push(Effect::Send {
                to: peer.id(),
                message: heartbeat.clone(),
            });
            if now.saturating_sub(owner.last_peer_seen) > self.config.peer_timeout {
                // Peer declared failed.
                let region = owner.region;
                let was_secondary = owner.role == Role::Secondary;
                owner.peer = None;
                owner.last_peer_seen = 0;
                if was_secondary {
                    owner.role = Role::Primary;
                    // The replica's seen-times are stale by construction
                    // (neighbors heartbeat the primary, not the secondary);
                    // restart the silence clocks or the fresh primary would
                    // immediately drop its whole table.
                    for n in &mut owner.neighbors {
                        n.last_seen = now;
                    }
                    effects.push(Effect::Client(ClientEvent::PromotedToPrimary { region }));
                    // Tell neighbors the primary changed.
                    owner.announce(self.info, &mut effects);
                } else {
                    effects.push(Effect::Client(ClientEvent::PeerLost { region }));
                }
            }
        }
        let (fingers, lookups) = (&mut owner.fingers, &mut owner.lookups);
        lookups.retain(|&(slot, sent)| {
            let answered_in_time = now < sent + LOOKUP_TIMEOUT;
            if !answered_in_time {
                fingers.retain(|f| f.slot != slot);
            }
            answered_in_time
        });
        if owner.role != Role::Primary {
            return effects;
        }
        // Anti-entropy: records reach the dual peer per publish
        // (`Replicate`); every fifth tick a full snapshot also carries
        // subscriptions, removals and the neighbor table, so a promoted
        // secondary starts from fresh state.
        if let Some(peer) = owner.peer {
            let period = self.config.heartbeat_interval.max(1);
            if (now / period).is_multiple_of(5) {
                effects.push(Effect::Send {
                    to: peer.id(),
                    message: Message::SyncState {
                        store: Box::new(owner.store.clone()),
                        neighbors: owner.neighbor_infos(),
                    },
                });
            }
        }
        // Primaries heartbeat neighbor primaries (lower frequency is the
        // driver's choice of tick cadence; every tick here).
        effects.extend(owner.neighbors.iter().map(|n| Effect::Send {
            to: n.info.primary.id(),
            message: heartbeat.clone(),
        }));
        // Drop neighbors that went silent (their secondary will
        // re-announce via its own promotion update).
        let timeout = self.config.neighbor_timeout;
        let mut dead = Vec::new();
        owner.neighbors.retain(|n| {
            let silent = n.last_seen > 0 && now.saturating_sub(n.last_seen) > timeout;
            if silent {
                dead.push(n.info.clone());
            }
            !silent
        });
        owner
            .fingers
            .retain(|f| !dead.iter().any(|d| d.primary.id() == f.node));
        // Coverage repair: a silent region whose owners (primary *and* any
        // secondary -- a live secondary would have promoted and
        // re-announced within the timeout) are gone leaves a hole in the
        // space. If the dead region is our congruent sibling -- merging
        // yields a rectangle -- and we are the west sibling (a
        // deterministic, purely local tie-break so at most one claimant
        // exists), absorb it. Its data is lost (that is what the failover
        // experiment measures); coverage is restored.
        for gone in dead {
            if !claims_as_west_sibling(&owner.region, &gone.region) {
                continue;
            }
            // Ring-check before absorbing: a promoted secondary we never
            // learned about may own the region. Ask every current
            // neighbor, and the silent region's own secondary (its
            // promotion announcement went to primaries that may be dead
            // too); absorb only if nobody knows a live owner by the
            // deadline.
            let asked = owner.neighbors.iter().map(|n| n.info.primary);
            effects.extend(asked.chain(gone.secondary).map(|to| Effect::Send {
                to: to.id(),
                message: Message::WhoOwns {
                    region: gone.region,
                },
            }));
            owner
                .pending_claims
                .push((gone, now + self.config.neighbor_timeout));
        }
        // Absorb pending claims whose ring-check came back empty.
        let mut due = Vec::new();
        owner.pending_claims.retain(|(gone, deadline)| {
            if now >= *deadline {
                due.push(gone.region);
            }
            now < *deadline
        });
        for gone in due {
            // Re-verify: shapes may have changed while waiting, and a live
            // overlapping entry means the region is owned.
            let still_claimable = claims_as_west_sibling(&owner.region, &gone)
                && !owner
                    .neighbors
                    .iter()
                    .any(|n| n.info.region.intersects(&gone));
            if !still_claimable {
                continue;
            }
            let merged = owner.region.merge(&gone);
            owner.reshape(
                merged.expect("invariant: still_claimable re-verified the rectangles merge"),
            );
            // Growing the region only gains edge contact, so the existing
            // entries stay valid; announce the new shape.
            owner.announce(self.info, &mut effects);
        }
        // Adaptation trigger (§2.4): a primary whose index exceeds √2×
        // the lowest neighbor index asks the least-loaded neighbor with a
        // stronger secondary for it — (a) steal it when half-full, (e)
        // switch places with it when full.
        if self.config.balance_enabled
            && !owner.steal_in_flight
            && window_closed
            && rules::overloaded(
                owner.my_index,
                owner
                    .neighbors
                    .iter()
                    .filter_map(|n| n.index)
                    .reduce(f64::min),
                rules::TRIGGER_RATIO,
            )
        {
            let donors = owner.neighbors.iter().filter_map(|n| {
                Some(Donor {
                    key: n.info.primary.id(),
                    secondary: n.info.secondary?.capacity(),
                    index: n.index.unwrap_or(f64::INFINITY),
                })
            });
            let choice = DonorChoice::LeastLoaded;
            if let Some(donor) = rules::donor(donors, self.info.capacity(), choice) {
                owner.steal_in_flight = true;
                effects.push(Effect::Send {
                    to: donor,
                    message: Message::StealSecondaryRequest {
                        requester: self.info,
                        index: owner.my_index,
                        swap: owner.peer.is_some(),
                    },
                });
            }
        }
        effects
    }

    /// Donor side of mechanisms (a)/(e): detach our secondary for the
    /// overloaded requester if the request still makes sense.
    fn on_steal_request(
        &mut self,
        now: u64,
        from: NodeId,
        requester: NodeInfo,
        index: f64,
        swap: bool,
    ) -> Vec<Effect> {
        let State::Owner(owner) = &mut self.state else {
            return Vec::new();
        };
        // Only give up a secondary that actually helps (stronger than the
        // requester's primary), only if we are less loaded ourselves, and
        // only if the secondary has confirmed itself since installation —
        // granting away a peer that is still settling a hand-off of its
        // own forks region ownership.
        let secondary = owner.peer.filter(|secondary| {
            owner.role == Role::Primary
                && secondary.capacity() > requester.capacity()
                && owner.my_index < index
                && owner.peer_confirmed
        });
        let Some(secondary) = secondary else {
            return vec![Effect::Send {
                to: from,
                message: Message::StealSecondaryDeny,
            }];
        };
        if swap {
            // Mechanism (e): the requester becomes our new secondary.
            owner.peer = Some(requester);
            owner.last_peer_seen = now;
            owner.peer_confirmed = false;
        } else {
            // Mechanism (a): we are left half-full.
            owner.peer = None;
        }
        let mut effects = vec![
            Effect::Send {
                to: from,
                message: Message::StealSecondaryGrant {
                    secondary,
                    donor_region: owner.region,
                    swap,
                },
            },
            // The detached secondary must not promote itself while the
            // hand-off is in flight.
            Effect::Send {
                to: secondary.id(),
                message: Message::Detached,
            },
        ];
        // Routing-table maintenance: our entry changed.
        owner.announce(self.info, &mut effects);
        effects
    }

    /// Requester side: install the stolen node as our region's primary.
    fn on_steal_grant(
        &mut self,
        now: u64,
        from: NodeId,
        secondary: NodeInfo,
        donor_region: Region,
        swap: bool,
    ) -> Vec<Effect> {
        let State::Owner(owner) = &mut self.state else {
            return Vec::new();
        };
        owner.steal_in_flight = false;
        // Mechanism (e) seats us under the donor, so it must still be a
        // neighbor we know.
        let donor = owner
            .neighbors
            .iter()
            .find(|n| n.info.primary.id() == from)
            .map(|n| n.info.primary);
        let premise_holds = owner.role == Role::Primary
            && if swap {
                owner.peer.is_some() && donor.is_some()
            } else {
                owner.peer.is_none()
            };
        if !premise_holds {
            // Our situation changed between request and grant (a split, a
            // join, a promotion). The stolen node is detached from its
            // donor and MUST be placed somewhere or its stale self-view
            // eventually promotes into an overlap: run it through the
            // normal dual-peer placement as if it were a fresh joiner.
            return self.dual_peer_place(now, secondary);
        }
        let new_secondary = if swap { owner.peer } else { Some(self.info) };
        let effects = vec![
            Effect::Send {
                to: secondary.id(),
                message: owner.handoff(secondary, new_secondary),
            },
            Effect::Client(ClientEvent::AdaptationExecuted {
                mechanism: if swap { 'e' } else { 'a' },
            }),
        ];
        match donor.filter(|_| swap) {
            // Mechanism (e): we take the stolen node's old place as the
            // donor's secondary.
            Some(donor) => {
                self.state = State::from(Owner::new(
                    self.info.id(),
                    donor_region,
                    Role::Secondary,
                    Some(donor),
                    Vec::new(), // refreshed by the donor's periodic SyncState
                    RegionStore::new(),
                    now,
                ));
            }
            // Mechanism (a): we retire to secondary of our own region
            // under the stronger stolen node.
            None => {
                owner.role = Role::Secondary;
                owner.peer = Some(secondary);
                owner.last_peer_seen = now;
            }
        }
        effects
    }

    /// "You now own `region`" (§2.3): the one way a node is seated in a
    /// region, whichever of join, split, steal or departure put it there.
    #[allow(clippy::too_many_arguments)]
    fn on_install(
        &mut self,
        now: u64,
        from: NodeId,
        region: Region,
        primary: NodeInfo,
        secondary: Option<NodeInfo>,
        neighbors: Vec<NeighborInfo>,
        store: RegionStore,
    ) -> Vec<Effect> {
        let me = self.info.id();
        let (role, peer) = if primary.id() == me {
            (Role::Primary, secondary)
        } else if secondary.is_some_and(|s| s.id() == me) {
            (Role::Secondary, Some(primary))
        } else {
            return Vec::new(); // names us in neither seat
        };
        // Stale-placement guard: a primary owns its region exclusively, so
        // a reordered or repeated placement must never re-seat it (the
        // region would be orphaned). A secondary may be re-seated — its
        // old region stays with its old primary — and so may a primary by
        // its own dual peer, who keeps the rest of the region they shared.
        if let State::Owner(owner) = &self.state {
            if owner.role == Role::Primary && owner.peer.is_none_or(|p| p.id() != from) {
                return Vec::new();
            }
        }
        let owner = Owner::new(me, region, role, peer, neighbors, store, now);
        let mut effects = vec![Effect::Client(ClientEvent::Joined { region, role })];
        if role == Role::Primary {
            owner.announce(self.info, &mut effects);
            // Re-seat an inherited secondary under us. Without this, a
            // secondary inherited from the displaced primary keeps
            // pointing its peer link at the departed node, times it out,
            // and promotes into an ownership fork. (The sender needs no
            // telling: it built this placement.)
            if let Some(inherited) = peer.filter(|s| s.id() != from) {
                effects.push(Effect::Send {
                    to: inherited.id(),
                    message: owner.handoff(self.info, peer),
                });
            }
        }
        self.state = State::from(owner);
        effects
    }

    fn handle_message(&mut self, now: u64, from: NodeId, message: Message) -> Vec<Effect> {
        // Any message is news that its sender is alive.
        if let State::Owner(owner) = &mut self.state {
            for f in owner.fingers.iter_mut().filter(|f| f.node == from) {
                f.expires = now + FINGER_TTL;
            }
        }
        match message {
            Message::JoinRequest { joiner, hops } => self.on_join_request(now, from, joiner, hops),
            Message::JoinDirected { joiner } => self.on_join_directed(now, joiner),
            Message::Install {
                region,
                primary,
                secondary,
                neighbors,
                store,
            } => self.on_install(now, from, region, primary, secondary, neighbors, *store),
            Message::NeighborUpdate { info } => self.on_neighbor_update(now, info, false),
            Message::OwnerIs { info } => self.on_neighbor_update(now, info, true),
            Message::Locate {
                target,
                reply_to,
                hops,
            } => self.on_locate(now, from, target, reply_to, hops),
            Message::Query {
                query,
                query_id,
                reply_to,
                hops,
                fanout,
            } => self.on_query(now, from, query, query_id, reply_to, hops, fanout),
            Message::QueryReply { query_id, records } => {
                vec![Effect::Client(ClientEvent::QueryResults {
                    query_id,
                    records,
                })]
            }
            Message::Publish { record, hops } => self.on_publish(now, from, record, hops),
            Message::Subscribe { sub, hops, fanout } => {
                self.on_subscribe(now, from, sub, hops, fanout)
            }
            Message::Notify { record } => {
                vec![Effect::Client(ClientEvent::Notified { record })]
            }
            Message::Heartbeat { info, index } => self.on_heartbeat(now, from, info, index),
            Message::StealSecondaryRequest {
                requester,
                index,
                swap,
            } => self.on_steal_request(now, from, requester, index, swap),
            Message::StealSecondaryGrant {
                secondary,
                donor_region,
                swap,
            } => self.on_steal_grant(now, from, secondary, donor_region, swap),
            Message::StealSecondaryDeny => {
                if let State::Owner(owner) = &mut self.state {
                    owner.steal_in_flight = false;
                }
                Vec::new()
            }
            Message::LeaveNotice => self.on_leave_notice(from),
            Message::Detached => self.on_detached(from),
            Message::WhoOwns { region } => self.on_who_owns(from, region),
            Message::MergeRegions {
                region,
                store,
                neighbors,
            } => self.on_merge_regions(now, region, *store, neighbors),
            Message::SyncState { store, neighbors } => self.on_sync_state(now, *store, neighbors),
            Message::Replicate { record, stamp } => {
                if let State::Owner(owner) = &mut self.state {
                    if owner.role == Role::Secondary {
                        owner.store.insert_replica(record, stamp);
                    }
                }
                Vec::new()
            }
        }
    }

    fn on_join_request(
        &mut self,
        now: u64,
        from: NodeId,
        joiner: NodeInfo,
        hops: u32,
    ) -> Vec<Effect> {
        let State::Owner(owner) = &mut self.state else {
            return Vec::new(); // not an owner: drop (bootstrap servers
                               // hand out owner nodes as entries)
        };
        // Either dual peer places a joiner: both hold the neighbor table
        // the placement probe reads.
        if let Route::Forward(next, lookup) =
            owner.route(&self.space, now, from, joiner.coord(), hops, false)
        {
            let me = self.info.id();
            return forward(me, next, lookup, |hops| Message::JoinRequest {
                joiner,
                hops,
            });
        }
        match self.config.mode {
            EngineMode::Basic => self.split_and_place(now, joiner),
            EngineMode::DualPeer => self.dual_peer_place(now, joiner),
        }
    }

    fn on_join_directed(&mut self, now: u64, joiner: NodeInfo) -> Vec<Effect> {
        let State::Owner(owner) = &self.state else {
            return Vec::new();
        };
        if owner.role != Role::Primary {
            return Vec::new();
        }
        if owner.peer.is_none() && !owner.steal_in_flight {
            self.accept_join_as_peer(now, joiner)
        } else if owner.peer.is_some() {
            // Filled up since the referral: split ourselves.
            self.split_and_place(now, joiner)
        } else {
            // Steal in flight: place the joiner like a fresh request so it
            // lands on a stable owner.
            self.dual_peer_place(now, joiner)
        }
    }

    /// Splits the region to place `joiner` (§2.3), keeping the half that
    /// contains our coordinate. A sole owner hands the other half to the
    /// joiner; a full region splits between its dual peers — leaving both
    /// halves half-full — and the joiner is then paired with the weaker
    /// half-owner.
    fn split_and_place(&mut self, now: u64, joiner: NodeInfo) -> Vec<Effect> {
        let State::Owner(owner) = &mut self.state else {
            return Vec::new();
        };
        if !owner.region.is_splittable() {
            // At the extent floor: refuse. The joiner is dropped and does
            // not retry (the model's joins walk outward instead).
            return Vec::new();
        }
        let (low, high) = owner.region.split_preferred();
        let keep_low =
            low.contains(self.info.coord()) || self.space.region_covers(&low, self.info.coord());
        let (kept, given) = if keep_low { (low, high) } else { (high, low) };
        let given_store = owner.store.split_for(&kept, &given);
        let heir = owner.peer.take().unwrap_or(joiner);
        owner.reshape(kept);
        owner.role = Role::Primary;
        owner.last_peer_seen = 0;

        let my_entry = owner.self_entry(self.info);
        let heir_entry = NeighborInfo::new(heir, given);
        let mut heir_neighbors = vec![my_entry.clone()];
        let mut effects = Vec::new();
        for n in std::mem::take(&mut owner.neighbors) {
            if n.info.region.touches_edge(&given) {
                heir_neighbors.push(n.info.clone());
            }
            // Tell every old neighbor about both new rectangles; they
            // upsert/drop by their own touch test.
            for info in [&my_entry, &heir_entry] {
                effects.push(Effect::Send {
                    to: n.info.primary.id(),
                    message: Message::NeighborUpdate { info: info.clone() },
                });
            }
            if n.info.region.touches_edge(&kept) {
                owner.neighbors.push(Neighbor {
                    last_seen: now,
                    ..n
                });
            }
        }
        owner.neighbors.push(Neighbor::new(heir_entry, now));
        effects.push(Effect::Send {
            to: heir.id(),
            message: Message::Install {
                region: given,
                primary: heir,
                secondary: None,
                neighbors: heir_neighbors,
                store: Box::new(given_store),
            },
        });
        if heir.id() != joiner.id() {
            // Pair the joiner with the weaker half-owner.
            if self.info.capacity() <= heir.capacity() {
                effects.extend(self.accept_join_as_peer(now, joiner));
            } else {
                effects.push(Effect::Send {
                    to: heir.id(),
                    message: Message::JoinDirected { joiner },
                });
            }
        }
        effects
    }

    /// Dual-peer placement probe (§2.3): [`rules::place`] over our own
    /// region first, then the neighbor table in order, so ties go to us
    /// and then to the earlier neighbor.
    fn dual_peer_place(&mut self, now: u64, joiner: NodeInfo) -> Vec<Effect> {
        let State::Owner(owner) = &self.state else {
            return Vec::new();
        };
        // A node with a steal in flight takes no peer: accepting one now
        // would break the premise of the grant already under way.
        let me = Candidate {
            capacity: self.info.capacity(),
            fillable: owner.peer.is_none() && !owner.steal_in_flight,
            splittable: owner.region.is_splittable(),
        };
        let neighbors = owner.neighbors.iter().map(|n| Candidate {
            capacity: n.info.primary.capacity(),
            fillable: n.info.secondary.is_none(),
            splittable: n.info.region.is_splittable(),
        });
        let candidates: Vec<Candidate> = std::iter::once(me).chain(neighbors).collect();
        match rules::place(&candidates) {
            Placement::Fill(0) => self.accept_join_as_peer(now, joiner),
            // Half-full ourselves with a steal in flight: nobody to split
            // with, and the grant under way needs us as we are.
            Placement::Split(0) if owner.peer.is_none() => Vec::new(),
            Placement::Split(0) => self.split_and_place(now, joiner),
            Placement::Fill(i) | Placement::Split(i) => vec![Effect::Send {
                to: owner.neighbors[i - 1].info.primary.id(),
                message: Message::JoinDirected { joiner },
            }],
            // Nothing nearby can take the joiner: it is dropped (the
            // model walks outward instead).
            Placement::Widen => Vec::new(),
        }
    }

    /// Accepts `joiner` as this region's dual peer. If the joiner is
    /// stronger, it takes the primary role (§2.3 "Node Join").
    fn accept_join_as_peer(&mut self, now: u64, joiner: NodeInfo) -> Vec<Effect> {
        let State::Owner(owner) = &mut self.state else {
            return Vec::new();
        };
        owner.peer = Some(joiner);
        owner.last_peer_seen = now;
        owner.peer_confirmed = false;
        if joiner.capacity() > self.info.capacity() {
            owner.role = Role::Secondary;
        }
        let seats = owner.self_entry(self.info);
        let mut effects = vec![Effect::Send {
            to: joiner.id(),
            message: owner.handoff(seats.primary, seats.secondary),
        }];
        owner.announce(self.info, &mut effects);
        effects
    }

    /// A routing entry arrived: a neighbor's announcement, or an
    /// [`Message::OwnerIs`] answer, which may also answer a finger lookup.
    fn on_neighbor_update(&mut self, now: u64, info: NeighborInfo, answer: bool) -> Vec<Effect> {
        if let State::Owner(owner) = &mut self.state {
            if info.primary.id() != self.info.id() {
                if answer {
                    owner.learn(&self.space, now, &info);
                }
                owner.upsert_neighbor(info, now, None);
            }
        }
        Vec::new()
    }

    /// A finger lookup: routed like a query; the primary covering its
    /// point answers with its own entry.
    fn on_locate(
        &mut self,
        now: u64,
        from: NodeId,
        target: Point,
        reply_to: NodeId,
        hops: u32,
    ) -> Vec<Effect> {
        let State::Owner(owner) = &mut self.state else {
            return Vec::new();
        };
        let me = self.info.id();
        match owner.route(&self.space, now, from, target, hops, true) {
            Route::Forward(next, lookup) => forward(me, next, lookup, |hops| Message::Locate {
                target,
                reply_to,
                hops,
            }),
            Route::Execute if reply_to == me => Vec::new(),
            Route::Execute => vec![Effect::Send {
                to: reply_to,
                message: Message::OwnerIs {
                    info: owner.self_entry(self.info),
                },
            }],
        }
    }

    fn on_heartbeat(
        &mut self,
        now: u64,
        from: NodeId,
        info: NeighborInfo,
        index: f64,
    ) -> Vec<Effect> {
        let State::Owner(owner) = &mut self.state else {
            return Vec::new();
        };
        if owner.peer.is_some_and(|p| p.id() == from) {
            owner.last_peer_seen = now;
            owner.peer_confirmed = true;
        } else if info.primary.id() != self.info.id() {
            let index = Some(index).filter(|i| i.is_finite() && *i >= 0.0);
            owner.upsert_neighbor(info, now, index);
        }
        Vec::new()
    }

    fn on_sync_state(
        &mut self,
        now: u64,
        store: RegionStore,
        neighbors: Vec<NeighborInfo>,
    ) -> Vec<Effect> {
        if let State::Owner(owner) = &mut self.state {
            if owner.role == Role::Secondary {
                owner.store.adopt_snapshot(store);
                owner.neighbors = Owner::table(neighbors, now);
            }
        }
        Vec::new()
    }

    #[allow(clippy::too_many_arguments)]
    fn on_query(
        &mut self,
        now: u64,
        from: NodeId,
        query: LocationQuery,
        query_id: u64,
        reply_to: NodeId,
        hops: u32,
        fanout: bool,
    ) -> Vec<Effect> {
        let State::Owner(owner) = &mut self.state else {
            return Vec::new();
        };
        if fanout {
            // Flood delivery over the regions overlapping the query
            // rectangle: answer locally, then re-forward to overlapping
            // neighbors. The (issuer, query id) dedup key keeps the flood
            // from looping; hops bound its depth.
            if !owner.first_sight((reply_to, query_id)) {
                return Vec::new();
            }
            let records = owner.answer(&query, now);
            let mut effects = vec![Effect::Send {
                to: reply_to,
                message: Message::QueryReply { query_id, records },
            }];
            if hops < MAX_HOPS {
                owner.fan_out(&query.area(), &mut effects, || Message::Query {
                    query: query.clone(),
                    query_id,
                    reply_to,
                    hops: hops + 1,
                    fanout: true,
                });
            }
            return effects;
        }
        let me = self.info.id();
        if let Route::Forward(next, lookup) =
            owner.route(&self.space, now, from, query.target(), hops, true)
        {
            return forward(me, next, lookup, |hops| Message::Query {
                query,
                query_id,
                reply_to,
                hops,
                fanout: false,
            });
        }
        // Executor: answer locally and fan out to overlapping neighbors.
        owner.first_sight((reply_to, query_id));
        let records = owner.answer(&query, now);
        let mut effects = Vec::new();
        owner.fan_out(&query.area(), &mut effects, || Message::Query {
            query: query.clone(),
            query_id,
            reply_to,
            hops: hops + 1,
            fanout: true,
        });
        if reply_to == self.info.id() {
            effects.push(Effect::Client(ClientEvent::QueryResults {
                query_id,
                records,
            }));
        } else {
            effects.push(Effect::Send {
                to: reply_to,
                message: Message::QueryReply { query_id, records },
            });
        }
        effects
    }

    fn on_publish(
        &mut self,
        now: u64,
        from: NodeId,
        record: LocationRecord,
        hops: u32,
    ) -> Vec<Effect> {
        let State::Owner(owner) = &mut self.state else {
            return Vec::new();
        };
        let me = self.info.id();
        if let Route::Forward(next, lookup) =
            owner.route(&self.space, now, from, record.position(), hops, true)
        {
            return forward(me, next, lookup, |hops| Message::Publish { record, hops });
        }
        let notified = owner.store.publish(record.clone(), now);
        owner.served += 1.0;
        let mut effects: Vec<Effect> = Vec::new();
        for subscriber in notified {
            if subscriber == me {
                effects.push(Effect::Client(ClientEvent::Notified {
                    record: record.clone(),
                }));
            } else {
                effects.push(Effect::Send {
                    to: subscriber,
                    message: Message::Notify {
                        record: record.clone(),
                    },
                });
            }
        }
        // Replicate the stored record to the dual peer (nothing was stored
        // if it arrived expired).
        if owner.role == Role::Primary {
            let stamp = owner.store.stamp_of(record.id());
            if let (Some(peer), Some(stamp)) = (owner.peer, stamp) {
                effects.push(Effect::Send {
                    to: peer.id(),
                    message: Message::Replicate { record, stamp },
                });
            }
        }
        effects
    }

    fn on_subscribe(
        &mut self,
        now: u64,
        from: NodeId,
        sub: Subscription,
        hops: u32,
        fanout: bool,
    ) -> Vec<Effect> {
        let State::Owner(owner) = &mut self.state else {
            return Vec::new();
        };
        // Fan-out copies are addressed to the primaries of overlapping
        // regions, so only the routed copy takes the forwarding step.
        if !fanout {
            let (me, target) = (self.info.id(), sub.area().center());
            if let Route::Forward(next, lookup) =
                owner.route(&self.space, now, from, target, hops, true)
            {
                return forward(me, next, lookup, |hops| Message::Subscribe {
                    sub,
                    hops,
                    fanout: false,
                });
            }
        }
        // Flood the subscription over every region overlapping its area
        // (the paper's region-2-and-3 example, generalized), with the same
        // dedup discipline as query fan-out.
        if !owner.first_sight((sub.subscriber(), sub.id())) {
            return Vec::new();
        }
        owner.store.subscribe(sub.clone(), now);
        let mut effects = Vec::new();
        if hops < MAX_HOPS {
            owner.fan_out(&sub.area(), &mut effects, || Message::Subscribe {
                sub: sub.clone(),
                hops: hops + 1,
                fanout: true,
            });
        }
        effects
    }
}

#[cfg(test)]
mod tests {
    use geogrid_geometry::MIN_SPLIT_EXTENT;

    use super::*;

    fn node(id: u64, x: f64, y: f64, cap: f64) -> NodeInfo {
        NodeInfo::new(NodeId::new(id), Point::new(x, y), cap)
    }

    fn engine(info: NodeInfo, mode: EngineMode) -> NodeEngine {
        NodeEngine::new(
            info,
            Space::paper_evaluation(),
            EngineConfig {
                mode,
                ..EngineConfig::default()
            },
        )
    }

    fn msg(from: NodeId, message: Message) -> Input {
        Input::Message { from, message }
    }

    /// `joiner`'s own join request, fresh.
    fn join_request(joiner: NodeInfo) -> Input {
        msg(joiner.id(), Message::JoinRequest { joiner, hops: 0 })
    }

    fn sends(effects: &[Effect]) -> Vec<(NodeId, &Message)> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send { to, message } => Some((*to, message)),
                _ => None,
            })
            .collect()
    }

    /// Hands each `(recipient, input)` to its engine among `engines` at
    /// tick `now`, and every message they send in turn, until none is left.
    /// Returns the messages sent to nodes outside `engines`.
    fn exchange(
        engines: &mut [NodeEngine],
        now: u64,
        mut inbox: Vec<(NodeId, Input)>,
    ) -> Vec<(NodeId, Message)> {
        let mut outside = Vec::new();
        while let Some((at, input)) = inbox.pop() {
            let Some(e) = engines.iter_mut().find(|e| e.info().id() == at) else {
                if let Input::Message { message, .. } = input {
                    outside.push((at, message));
                }
                continue;
            };
            let from = e.info().id();
            for effect in e.handle(now, input) {
                if let Effect::Send { to, message } = effect {
                    inbox.push((to, Input::Message { from, message }));
                }
            }
        }
        outside
    }

    /// Seats `e` as the primary of `region`.
    fn install(
        e: &mut NodeEngine,
        region: Region,
        secondary: Option<NodeInfo>,
        neighbors: Vec<NeighborInfo>,
    ) -> Vec<Effect> {
        let primary = e.info();
        let store = Box::new(RegionStore::new());
        let message = Message::Install {
            region,
            primary,
            secondary,
            neighbors,
            store,
        };
        let from = NodeId::new(99);
        e.handle(0, Input::Message { from, message })
    }

    #[test]
    fn bootstrap_owns_whole_space() {
        let mut e = engine(node(1, 10.0, 10.0, 10.0), EngineMode::Basic);
        let fx = e.handle(0, Input::BootstrapAsFirst);
        assert!(e.is_owner());
        let view = e.owner_view().unwrap();
        assert_eq!(view.region, Space::paper_evaluation().bounds());
        assert_eq!(view.role, Role::Primary);
        assert!(matches!(fx[0], Effect::Client(ClientEvent::Joined { .. })));
    }

    #[test]
    fn basic_join_splits_and_hands_half() {
        let mut first = engine(node(1, 10.0, 10.0, 10.0), EngineMode::Basic);
        first.handle(0, Input::BootstrapAsFirst);
        let joiner = node(2, 50.0, 50.0, 10.0);
        let fx = first.handle(1, join_request(joiner));
        let sent = sends(&fx);
        let split = sent
            .iter()
            .find_map(|(to, m)| match m {
                Message::Install { region, .. } if *to == joiner.id() => Some(*region),
                _ => None,
            })
            .expect("join split sent");
        // Joiner's half covers its coordinate; first keeps its own.
        let space = Space::paper_evaluation();
        assert!(space.region_covers(&split, joiner.coord()));
        let view = first.owner_view().unwrap();
        assert!(space.region_covers(&view.region, Point::new(10.0, 10.0)));
        assert_eq!(view.neighbors.len(), 1);
        assert_eq!(view.neighbors[0].region, split);
    }

    #[test]
    fn joiner_installs_state_from_join_split() {
        let mut j = engine(node(2, 50.0, 50.0, 10.0), EngineMode::Basic);
        j.handle(
            0,
            Input::Join {
                entry: NodeId::new(1),
            },
        );
        let region = Region::new(0.0, 32.0, 64.0, 32.0);
        let south = Region::new(0.0, 0.0, 64.0, 32.0);
        let neighbors = vec![NeighborInfo::new(node(1, 10.0, 10.0, 10.0), south)];
        let fx = install(&mut j, region, None, neighbors);
        assert!(j.is_owner());
        assert_eq!(j.owner_view().unwrap().region, region);
        assert!(matches!(fx[0], Effect::Client(ClientEvent::Joined { .. })));
    }

    #[test]
    fn dual_join_fills_half_full_region() {
        let mut first = engine(node(1, 10.0, 10.0, 10.0), EngineMode::DualPeer);
        first.handle(0, Input::BootstrapAsFirst);
        let joiner = node(2, 50.0, 50.0, 5.0);
        let fx = first.handle(1, join_request(joiner));
        let sent = sends(&fx);
        assert!(sent.iter().any(|(to, m)| {
            *to == joiner.id()
                && matches!(m, Message::Install { primary, .. } if primary.id() == NodeId::new(1))
        }));
        let view = first.owner_view().unwrap();
        assert_eq!(view.role, Role::Primary);
        assert_eq!(view.peer.unwrap().id(), joiner.id());
    }

    #[test]
    fn stronger_dual_joiner_takes_primary() {
        let mut first = engine(node(1, 10.0, 10.0, 10.0), EngineMode::DualPeer);
        first.handle(0, Input::BootstrapAsFirst);
        let joiner = node(2, 50.0, 50.0, 1000.0);
        let fx = first.handle(1, join_request(joiner));
        assert_eq!(first.owner_view().unwrap().role, Role::Secondary);
        let sent = sends(&fx);
        assert!(sent.iter().any(|(to, m)| {
            *to == joiner.id()
                && matches!(m, Message::Install { primary, .. } if primary.id() == joiner.id())
        }));
    }

    #[test]
    fn stronger_dual_joiner_learns_its_real_peer() {
        // Regression: the hand-off that gave a stronger joiner the primary
        // role did not name the old owner, so the joiner made one up — a
        // peer at the region's center with the smallest positive capacity,
        // which then rode every heartbeat's `secondary` field and switched
        // mechanisms (a)/(e) off for the region.
        let old_owner = node(1, 10.0, 10.0, 10.0);
        let joiner = node(2, 50.0, 50.0, 1000.0);
        let mut first = engine(old_owner, EngineMode::DualPeer);
        first.handle(0, Input::BootstrapAsFirst);
        let fx = first.handle(1, join_request(joiner));
        let handoff = sends(&fx)
            .into_iter()
            .find_map(|(to, m)| (to == joiner.id()).then(|| m.clone()))
            .expect("hand-off sent to the joiner");
        let mut second = engine(joiner, EngineMode::DualPeer);
        second.handle(
            0,
            Input::Join {
                entry: old_owner.id(),
            },
        );
        second.handle(2, msg(old_owner.id(), handoff));
        let view = second.owner_view().unwrap();
        assert_eq!(view.role, Role::Primary);
        assert_eq!(view.peer, Some(old_owner));
    }

    #[test]
    fn every_routed_kind_takes_the_same_next_hop() {
        // We own the south-west quarter, under `north` and beside two
        // eastern neighbors stacked on each other.
        let entry =
            |id, x, y, w, h| NeighborInfo::new(node(id, 1.0, 1.0, 10.0), Region::new(x, y, w, h));
        let north = entry(2, 0.0, 32.0, 32.0, 32.0);
        let east_top = entry(3, 32.0, 16.0, 16.0, 16.0);
        let east_low = entry(7, 32.0, 0.0, 16.0, 16.0);
        let mut e = engine(node(1, 10.0, 10.0, 10.0), EngineMode::Basic);
        let neighbors = vec![north, east_top.clone(), east_low.clone()];
        install(&mut e, Region::new(0.0, 0.0, 32.0, 32.0), None, neighbors);
        let cases = [
            // `north` and `east_top` are both exactly 13 away: east_top has
            // the closer center, north the lower node id.
            (Point::new(45.0, 45.0), &east_top),
            // On the edge the eastern two share, so zero away from both,
            // and their centers tie too: east_top has the lower id, but
            // east_low owns the point (regions are closed to the north).
            (Point::new(40.0, 16.0), &east_low),
        ];
        for (target, expected) in cases {
            let area = Region::new(target.x - 1.0, target.y - 1.0, 2.0, 2.0);
            let asker = NodeId::new(50);
            let routed = [
                Message::JoinRequest {
                    joiner: NodeInfo::new(asker, target, 10.0),
                    hops: 4,
                },
                Message::Query {
                    query: LocationQuery::new(area, asker),
                    query_id: 1,
                    reply_to: asker,
                    hops: 4,
                    fanout: false,
                },
                Message::Publish {
                    record: LocationRecord::new(1, "traffic", target, vec![]),
                    hops: 4,
                },
                Message::Subscribe {
                    sub: Subscription::new(1, area, asker, 1_000),
                    hops: 4,
                    fanout: false,
                },
                Message::Locate {
                    target,
                    reply_to: asker,
                    hops: 4,
                },
            ];
            for message in routed {
                let kind = message.kind();
                let fx = e.handle(1, msg(asker, message));
                let sent = sends(&fx);
                assert_eq!(sent.len(), 1, "{kind} toward {target:?}: {fx:?}");
                let (to, forwarded) = sent[0];
                assert_eq!(to, expected.primary.id(), "{kind} toward {target:?}");
                assert_eq!(forwarded.kind(), kind);
                assert!(
                    matches!(
                        forwarded,
                        Message::JoinRequest { hops: 5, .. }
                            | Message::Query { hops: 5, .. }
                            | Message::Publish { hops: 5, .. }
                            | Message::Subscribe { hops: 5, .. }
                            | Message::Locate { hops: 5, .. }
                    ),
                    "{kind}: hop count not advanced in {forwarded:?}"
                );
            }
        }
    }

    #[test]
    fn full_region_splits_on_third_join() {
        let mut first = engine(node(1, 10.0, 10.0, 10.0), EngineMode::DualPeer);
        first.handle(0, Input::BootstrapAsFirst);
        let second = node(2, 50.0, 50.0, 5.0);
        first.handle(1, join_request(second));
        let third = node(3, 40.0, 40.0, 5.0);
        let fx = first.handle(2, join_request(third));
        let sent = sends(&fx);
        // The peer receives the other half.
        assert!(sent
            .iter()
            .any(|(to, m)| *to == second.id() && matches!(m, Message::Install { .. })));
        // The region shrank.
        let view = first.owner_view().unwrap();
        assert!(view.region.area() < Space::paper_evaluation().bounds().area());
    }

    #[test]
    fn dual_join_skips_a_weaker_neighbor_at_the_split_floor() {
        // We are full, and so is every neighbor. The weakest of them is a
        // sliver below the split floor: it would refuse the joiner, so
        // the split goes to the weakest neighbor that can split.
        let full = |id, cap, region| NeighborInfo {
            secondary: Some(node(id + 100, 1.0, 1.0, 1.0)),
            ..NeighborInfo::new(node(id, 1.0, 1.0, cap), region)
        };
        let sliver = full(2, 1.0, Region::new(32.0, 0.0, MIN_SPLIT_EXTENT / 2.0, 32.0));
        let north = full(3, 5.0, Region::new(0.0, 32.0, 32.0, 32.0));
        let mut e = engine(node(1, 10.0, 10.0, 100.0), EngineMode::DualPeer);
        let peer = Some(node(9, 20.0, 20.0, 50.0));
        install(
            &mut e,
            Region::new(0.0, 0.0, 32.0, 32.0),
            peer,
            vec![sliver, north],
        );
        let joiner = node(4, 12.0, 12.0, 3.0);
        let fx = e.handle(1, join_request(joiner));
        let sent = sends(&fx);
        assert_eq!(sent.len(), 1, "{fx:?}");
        assert_eq!(sent[0].0, NodeId::new(3));
        assert!(matches!(sent[0].1, Message::JoinDirected { joiner: j } if j.id() == joiner.id()));
    }

    #[test]
    fn join_request_forwards_toward_coordinate() {
        let mut e = engine(node(1, 10.0, 10.0, 10.0), EngineMode::Basic);
        // Install as owner of the south half with a northern neighbor
        // (placement accepted because the engine is still joining).
        e.handle(
            0,
            Input::Join {
                entry: NodeId::new(99),
            },
        );
        let north = Region::new(0.0, 32.0, 64.0, 32.0);
        let neighbor = node(9, 50.0, 50.0, 10.0);
        let neighbors = vec![NeighborInfo::new(neighbor, north)];
        install(&mut e, Region::new(0.0, 0.0, 64.0, 32.0), None, neighbors);
        let joiner = node(3, 40.0, 60.0, 10.0); // in the north half
        let fx = e.handle(
            2,
            Input::Message {
                from: joiner.id(),
                message: Message::JoinRequest { joiner, hops: 0 },
            },
        );
        let sent = sends(&fx);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].0, neighbor.id());
        assert!(matches!(sent[0].1, Message::JoinRequest { hops: 1, .. }));
    }

    #[test]
    fn publish_stores_and_notifies_subscriber() {
        let mut e = engine(node(1, 10.0, 10.0, 10.0), EngineMode::Basic);
        e.handle(0, Input::BootstrapAsFirst);
        let sub = Subscription::new(1, Region::new(0.0, 0.0, 20.0, 20.0), NodeId::new(42), 1_000);
        e.handle(1, Input::UserSubscribe { sub });
        let record = LocationRecord::new(1, "traffic", Point::new(5.0, 5.0), b"jam".to_vec());
        let fx = e.handle(2, Input::UserPublish { record });
        let sent = sends(&fx);
        assert!(sent
            .iter()
            .any(|(to, m)| *to == NodeId::new(42) && matches!(m, Message::Notify { .. })));
        assert_eq!(e.owner_view().unwrap().records, 1);
    }

    #[test]
    fn local_query_returns_results_to_client() {
        let mut e = engine(node(1, 10.0, 10.0, 10.0), EngineMode::Basic);
        e.handle(0, Input::BootstrapAsFirst);
        let record = LocationRecord::new(1, "traffic", Point::new(5.0, 5.0), vec![]);
        e.handle(1, Input::UserPublish { record });
        let q = LocationQuery::new(Region::new(0.0, 0.0, 10.0, 10.0), NodeId::new(1));
        let fx = e.handle(2, Input::UserQuery { query: q });
        let results = fx.iter().find_map(|f| match f {
            Effect::Client(ClientEvent::QueryResults { records, .. }) => Some(records.len()),
            _ => None,
        });
        assert_eq!(results, Some(1));
    }

    #[test]
    fn secondary_promotes_after_peer_timeout() {
        let mut e = engine(node(2, 50.0, 50.0, 5.0), EngineMode::DualPeer);
        // Install as secondary directly.
        e.handle(
            0,
            msg(
                NodeId::new(1),
                Message::Install {
                    region: Space::paper_evaluation().bounds(),
                    primary: node(1, 10.0, 10.0, 10.0),
                    secondary: Some(e.info()),
                    neighbors: Vec::new(),
                    store: Box::new(RegionStore::new()),
                },
            ),
        );
        assert_eq!(e.owner_view().unwrap().role, Role::Secondary);
        // Heartbeats keep it secondary.
        let fx = e.handle(100, Input::Tick);
        assert!(sends(&fx)
            .iter()
            .any(|(to, m)| *to == NodeId::new(1) && matches!(m, Message::Heartbeat { .. })));
        // Silence beyond the timeout promotes it.
        let fx = e.handle(10_000, Input::Tick);
        assert_eq!(e.owner_view().unwrap().role, Role::Primary);
        assert!(fx
            .iter()
            .any(|f| matches!(f, Effect::Client(ClientEvent::PromotedToPrimary { .. }))));
    }

    #[test]
    fn primary_drops_silent_secondary() {
        let mut e = engine(node(1, 10.0, 10.0, 10.0), EngineMode::DualPeer);
        e.handle(0, Input::BootstrapAsFirst);
        let joiner = node(2, 50.0, 50.0, 5.0);
        e.handle(1, join_request(joiner));
        assert!(e.owner_view().unwrap().peer.is_some());
        let fx = e.handle(10_000, Input::Tick);
        assert!(e.owner_view().unwrap().peer.is_none());
        assert!(fx
            .iter()
            .any(|f| matches!(f, Effect::Client(ClientEvent::PeerLost { .. }))));
    }

    #[test]
    fn double_promotion_does_not_fork_the_west_half() {
        // Two side-by-side full regions lose both primaries at once. Both
        // secondaries promote and announce to the other region's dead
        // primary, so neither learns of the other; when the west one
        // times out the east entry, its ring-check must reach the east
        // secondary, or it absorbs the east half on top of it.
        let (west, east) = (
            Region::new(0.0, 0.0, 32.0, 64.0),
            Region::new(32.0, 0.0, 32.0, 64.0),
        );
        let (dead_w, dead_e) = (node(1, 10.0, 10.0, 10.0), node(2, 50.0, 10.0, 10.0));
        let (sw, se) = (node(3, 10.0, 50.0, 10.0), node(4, 50.0, 50.0, 10.0));
        let mut engines = [sw, se].map(|n| engine(n, EngineMode::DualPeer));
        let seats = [
            (west, dead_w, sw, east, dead_e, se),
            (east, dead_e, se, west, dead_w, sw),
        ];
        for (e, (region, primary, me, other, other_primary, other_secondary)) in
            engines.iter_mut().zip(seats)
        {
            let neighbor = NeighborInfo {
                primary: other_primary,
                secondary: Some(other_secondary),
                region: other,
            };
            let message = Message::Install {
                region,
                primary,
                secondary: Some(me),
                neighbors: vec![neighbor],
                store: Box::new(RegionStore::new()),
            };
            e.handle(0, msg(primary.id(), message));
        }
        // Tick both for four seconds, delivering their messages to each
        // other at once; sends to the dead primaries are lost.
        for now in (100..=4_000).step_by(100) {
            let ticks = engines.iter().map(|e| (e.info().id(), Input::Tick));
            let ticks = ticks.collect();
            exchange(&mut engines, now, ticks);
        }
        let [w, e] = engines.map(|e| e.owner_view().expect("both still own"));
        assert_eq!((w.role, e.role), (Role::Primary, Role::Primary));
        assert_eq!((w.region, e.region), (west, east), "the west half forked");
        assert!(w.neighbors.iter().any(|n| n.primary.id() == se.id()));
    }

    /// An entry for `region`, its primary at the center.
    fn entry(id: u64, region: Region) -> NeighborInfo {
        let c = region.center();
        NeighborInfo::new(node(id, c.x, c.y, 10.0), region)
    }

    /// The primary of `region` with the given neighbors.
    fn owner_of(id: u64, region: Region, neighbors: Vec<NeighborInfo>) -> NodeEngine {
        let info = entry(id, region).primary;
        let mut e = engine(info, EngineMode::Basic);
        install(&mut e, region, None, neighbors);
        e
    }

    fn square(x: f64, y: f64, side: f64) -> Region {
        Region::new(x, y, side, side)
    }

    /// The south-west corner square's owner (node 1), beside node 2 to
    /// the east and node 3 to the north; the express gate is 16 miles.
    fn corner_owner() -> NodeEngine {
        let table = vec![
            entry(2, square(4.0, 0.0, 4.0)),
            entry(3, square(0.0, 4.0, 4.0)),
        ];
        owner_of(1, square(0.0, 0.0, 4.0), table)
    }

    /// A query toward `target` from client node 77, one hop in.
    fn query_to(target: Point, query_id: u64) -> Input {
        let query = LocationQuery::circular(target, 0.1, NodeId::new(77));
        let (reply_to, hops, fanout) = (NodeId::new(77), 1, false);
        msg(
            reply_to,
            Message::Query {
                query,
                query_id,
                reply_to,
                hops,
                fanout,
            },
        )
    }

    /// Where each send of `effects` goes, and its kind.
    fn sent_kinds(effects: &[Effect]) -> Vec<(u64, &'static str)> {
        sends(effects)
            .into_iter()
            .map(|(to, m)| (to.as_u64(), m.kind()))
            .collect()
    }

    /// Far from the corner owner: inside the south-east corner square.
    const FAR: Point = Point { x: 60.0, y: 2.0 };

    /// Routes a far query through the corner owner `e` and answers the
    /// finger lookup it sends with `answer`.
    fn learn_finger(e: &mut NodeEngine, now: u64, answer: NeighborInfo) {
        learn_finger_from(e, now, 2, answer);
    }

    /// Routes a far query through `e`, which sends it and a finger lookup
    /// greedily to neighbor `next`, and answers the lookup with `answer`.
    fn learn_finger_from(e: &mut NodeEngine, now: u64, next: u64, answer: NeighborInfo) {
        let fx = e.handle(now, query_to(FAR, now));
        let greedy = [(next, "query"), (next, "locate")];
        assert_eq!(sent_kinds(&fx), greedy, "greedy, and a lookup");
        let Message::Locate { target, .. } = sends(&fx)[1].1 else {
            unreachable!()
        };
        assert!(Space::paper_evaluation().region_covers(&answer.region, *target));
        e.handle(
            now,
            msg(answer.primary.id(), Message::OwnerIs { info: answer }),
        );
    }

    #[test]
    fn a_far_target_takes_the_learned_finger_and_a_near_one_stays_greedy() {
        let mut e = corner_owner();
        learn_finger(&mut e, 1_000, entry(9, square(56.0, 0.0, 8.0)));
        let fx = e.handle(2_000, query_to(FAR, 2));
        assert_eq!(sent_kinds(&fx), [(9, "query")]);
        assert!(matches!(sends(&fx)[0].1, Message::Query { hops: 2, .. }));
        // Within the gate: greedy, and no lookup.
        for (i, x) in [10.0, 19.9].into_iter().enumerate() {
            let fx = e.handle(2_000, query_to(Point::new(x, 2.0), 3 + i as u64));
            assert_eq!(sent_kinds(&fx), [(2, "query")], "target x = {x}");
        }
    }

    #[test]
    fn a_crashed_finger_is_reconfirmed_past_its_ttl_then_dropped_and_learned_again() {
        // Node 9 owned the far corner square when node 1 looked it up, and
        // has crashed since: within the TTL each express hop to it is one
        // lost request, never a loop. Past it, the route goes greedy and
        // re-confirms the finger with node 9 itself; that lookup is never
        // answered, so its timeout drops the finger, and the next far route
        // looks the square up again and finds node 10, its new owner.
        let (square_se, expiry) = (square(56.0, 0.0, 8.0), 1_000 + FINGER_TTL);
        let mut e = corner_owner();
        learn_finger(&mut e, 1_000, entry(9, square_se));
        let fx = e.handle(expiry - 1, query_to(FAR, 1));
        assert_eq!(sent_kinds(&fx), [(9, "query")]);
        let fx = e.handle(expiry, query_to(FAR, 2));
        assert_eq!(sent_kinds(&fx), [(2, "query"), (9, "locate")]);
        let fx = e.handle(expiry, query_to(FAR, 3));
        assert_eq!(sent_kinds(&fx), [(2, "query")], "one lookup in flight");
        let timeout = expiry + LOOKUP_TIMEOUT;
        e.handle(timeout, Input::Tick);
        learn_finger(&mut e, timeout, entry(10, square_se));
        let fx = e.handle(timeout, query_to(FAR, 4));
        assert_eq!(sent_kinds(&fx), [(10, "query")]);
    }

    #[test]
    fn a_live_finger_is_reconfirmed_by_its_node_or_kept_by_its_messages() {
        let (far, expiry) = (entry(9, square(56.0, 0.0, 8.0)), 1_000 + FINGER_TTL);
        let mut e = corner_owner();
        learn_finger(&mut e, 1_000, far.clone());
        let fx = e.handle(expiry, query_to(FAR, 1));
        assert_eq!(sent_kinds(&fx), [(2, "query"), (9, "locate")]);
        e.handle(expiry, msg(NodeId::new(9), Message::OwnerIs { info: far }));
        let fx = e.handle(expiry, query_to(FAR, 2));
        assert_eq!(sent_kinds(&fx), [(9, "query")]);
        // Any message from node 9 is news that it is alive.
        let (heard, records) = (expiry + FINGER_TTL - 1, Vec::new());
        let reply = Message::QueryReply {
            query_id: 0,
            records,
        };
        e.handle(heard, msg(NodeId::new(9), reply));
        let fx = e.handle(expiry + FINGER_TTL, query_to(FAR, 3));
        assert_eq!(sent_kinds(&fx), [(9, "query")]);
    }

    #[test]
    fn a_stale_finger_still_delivers_and_never_bounces() {
        // Node 9 owned the far corner square when node 1 looked it up.
        let learned = || {
            let mut e = corner_owner();
            learn_finger(&mut e, 1_000, entry(9, square(56.0, 0.0, 8.0)));
            e
        };
        // It has since split, keeping the north half: it hands the query
        // on to node 10, the real owner.
        let (north, south) = (
            Region::new(56.0, 4.0, 8.0, 4.0),
            Region::new(56.0, 0.0, 8.0, 4.0),
        );
        let mut engines = [
            learned(),
            owner_of(9, north, vec![entry(10, south)]),
            owner_of(10, south, vec![entry(9, north)]),
        ];
        let outside = exchange(
            &mut engines,
            2_000,
            vec![(NodeId::new(1), query_to(FAR, 7))],
        );
        assert!(
            matches!(outside.as_slice(), [(to, Message::QueryReply { query_id: 7, .. })] if to.as_u64() == 77),
            "{outside:?}"
        );
        // Or it moved to the north-west corner, and its own, true, finger
        // for the far square points back at node 1, which the query just
        // came from: node 9 does not hand it back, but on to a neighbor.
        let table = vec![
            entry(5, square(4.0, 60.0, 4.0)),
            entry(6, square(0.0, 56.0, 4.0)),
        ];
        let mut moved = owner_of(9, square(0.0, 60.0, 4.0), table);
        let a = learned();
        let own = a.owner_view().expect("owns").region;
        learn_finger_from(&mut moved, 1_000, 6, entry(1, own));
        let outside = exchange(
            &mut [a, moved],
            2_000,
            vec![(NodeId::new(1), query_to(FAR, 7))],
        );
        let queries: Vec<_> = outside
            .iter()
            .filter(|(_, m)| matches!(m, Message::Query { .. }))
            .collect();
        assert!(
            matches!(queries.as_slice(), [(to, Message::Query { hops: 3, .. })] if to.as_u64() == 6),
            "{outside:?}"
        );
    }

    #[test]
    fn neighbor_updates_upsert_and_drop_by_touch() {
        let mut e = engine(node(1, 10.0, 10.0, 10.0), EngineMode::Basic);
        // Install as owner of the south half while joining.
        e.handle(
            0,
            Input::Join {
                entry: NodeId::new(99),
            },
        );
        install(&mut e, Region::new(0.0, 0.0, 64.0, 32.0), None, Vec::new());
        // Touching entry is added.
        let touching =
            NeighborInfo::new(node(5, 1.0, 40.0, 10.0), Region::new(0.0, 32.0, 32.0, 32.0));
        e.handle(
            2,
            msg(NodeId::new(5), Message::NeighborUpdate { info: touching }),
        );
        assert_eq!(e.owner_view().unwrap().neighbors.len(), 1);
        // Non-touching replacement for the same node is dropped entirely.
        let far = NeighborInfo::new(
            node(5, 1.0, 60.0, 10.0),
            Region::new(32.0, 48.0, 32.0, 16.0),
        );
        e.handle(
            3,
            msg(NodeId::new(5), Message::NeighborUpdate { info: far }),
        );
        assert_eq!(e.owner_view().unwrap().neighbors.len(), 0);
    }

    /// Builds a primary owning the south half with one neighbor entry.
    fn south_owner(cap: f64, neighbor: NeighborInfo) -> NodeEngine {
        let mut e = engine(node(1, 10.0, 10.0, cap), EngineMode::DualPeer);
        install(
            &mut e,
            Region::new(0.0, 0.0, 64.0, 32.0),
            None,
            vec![neighbor],
        );
        e
    }

    fn north_entry(primary_cap: f64, secondary_cap: Option<f64>) -> NeighborInfo {
        NeighborInfo {
            primary: node(7, 10.0, 50.0, primary_cap),
            secondary: secondary_cap.map(|c| node(8, 12.0, 52.0, c)),
            region: Region::new(0.0, 32.0, 64.0, 32.0),
        }
    }

    fn drive_load(e: &mut NodeEngine, queries: usize, from_tick: u64) -> Vec<Effect> {
        // Serve queries inside the south half, then tick through a stats
        // window so the index updates and the trigger runs. Neighbor
        // heartbeats are replayed between ticks so the entry is not
        // dropped as silent.
        for i in 0..queries {
            e.handle(
                from_tick + i as u64,
                msg(
                    NodeId::new(50),
                    Message::Query {
                        query: LocationQuery::new(Region::new(5.0, 5.0, 1.0, 1.0), NodeId::new(50)),
                        query_id: 1,
                        reply_to: NodeId::new(50),
                        hops: 1,
                        fanout: false,
                    },
                ),
            );
        }
        let interval = e.config().heartbeat_interval;
        let view = e.owner_view().expect("drive_load on an owner");
        let neighbors = view.neighbors.clone();
        let peer = view.peer;
        let region = view.region;
        let mut out = Vec::new();
        for k in 1..=STATS_WINDOW_TICKS {
            let now = from_tick + k * interval;
            for n in &neighbors {
                e.handle(
                    now - 1,
                    msg(
                        n.primary.id(),
                        Message::Heartbeat {
                            info: n.clone(),
                            index: 0.0,
                        },
                    ),
                );
            }
            // Keep the dual peer alive across the synthetic time jump.
            if let Some(peer) = peer {
                e.handle(
                    now - 1,
                    msg(
                        peer.id(),
                        Message::Heartbeat {
                            info: NeighborInfo {
                                primary: e.info(),
                                secondary: Some(peer),
                                region,
                            },
                            index: 0.0,
                        },
                    ),
                );
            }
            out = e.handle(now, Input::Tick);
        }
        out
    }

    #[test]
    fn overloaded_primary_requests_steal() {
        let mut e = south_owner(1.0, north_entry(10.0, Some(100.0)));
        // Report the neighbor as idle.
        e.handle(
            1,
            msg(
                NodeId::new(7),
                Message::Heartbeat {
                    info: north_entry(10.0, Some(100.0)),
                    index: 0.0,
                },
            ),
        );
        let fx = drive_load(&mut e, 20, 2);
        let steal = sends(&fx).iter().any(|(to, m)| {
            *to == NodeId::new(7) && matches!(m, Message::StealSecondaryRequest { swap: false, .. })
        });
        assert!(steal, "no steal request in {fx:?}");
    }

    #[test]
    fn no_steal_without_useful_secondary() {
        // Neighbor's secondary is weaker than us: nothing to gain.
        let mut e = south_owner(50.0, north_entry(10.0, Some(5.0)));
        e.handle(
            1,
            msg(
                NodeId::new(7),
                Message::Heartbeat {
                    info: north_entry(10.0, Some(5.0)),
                    index: 0.0,
                },
            ),
        );
        let fx = drive_load(&mut e, 20, 2);
        assert!(
            !sends(&fx)
                .iter()
                .any(|(_, m)| matches!(m, Message::StealSecondaryRequest { .. })),
            "stole a useless secondary"
        );
    }

    #[test]
    fn donor_grants_and_denies_correctly() {
        // Donor: primary (cap 10) with a secondary (cap 5) that is still
        // stronger than the cap-1 requester.
        let mut donor = engine(node(7, 10.0, 50.0, 10.0), EngineMode::DualPeer);
        donor.handle(0, Input::BootstrapAsFirst);
        let strong = node(8, 12.0, 52.0, 5.0);
        donor.handle(1, join_request(strong));
        assert!(donor.owner_view().unwrap().peer.is_some());
        // The secondary confirms itself with a heartbeat (an unconfirmed
        // peer is never granted away).
        donor.handle(
            2,
            msg(
                strong.id(),
                Message::Heartbeat {
                    info: NeighborInfo {
                        primary: node(7, 10.0, 50.0, 10.0),
                        secondary: Some(strong),
                        region: Space::paper_evaluation().bounds(),
                    },
                    index: 0.0,
                },
            ),
        );
        // A hot, weaker requester is granted.
        let fx = donor.handle(
            3,
            msg(
                NodeId::new(1),
                Message::StealSecondaryRequest {
                    requester: node(1, 10.0, 10.0, 1.0),
                    index: 5.0,
                    swap: false,
                },
            ),
        );
        assert!(sends(&fx).iter().any(|(to, m)| *to == NodeId::new(1)
            && matches!(m, Message::StealSecondaryGrant { secondary, .. } if secondary.id() == strong.id())));
        assert!(
            donor.owner_view().unwrap().peer.is_none(),
            "secondary detached"
        );
        // A second request must be denied (no secondary left).
        let fx = donor.handle(
            3,
            msg(
                NodeId::new(2),
                Message::StealSecondaryRequest {
                    requester: node(2, 11.0, 11.0, 1.0),
                    index: 5.0,
                    swap: false,
                },
            ),
        );
        assert!(sends(&fx)
            .iter()
            .any(|(to, m)| *to == NodeId::new(2) && matches!(m, Message::StealSecondaryDeny)));
    }

    #[test]
    fn donor_refuses_when_hotter_than_requester() {
        let mut donor = engine(node(7, 10.0, 50.0, 10.0), EngineMode::DualPeer);
        donor.handle(0, Input::BootstrapAsFirst);
        let strong = node(8, 12.0, 52.0, 5.0);
        donor.handle(1, join_request(strong));
        // Make the donor hot.
        drive_load(&mut donor, 50, 2);
        let fx = donor.handle(
            100_000,
            msg(
                NodeId::new(1),
                Message::StealSecondaryRequest {
                    requester: node(1, 10.0, 10.0, 1.0),
                    index: 0.001, // cooler than the donor
                    swap: false,
                },
            ),
        );
        assert!(sends(&fx)
            .iter()
            .any(|(_, m)| matches!(m, Message::StealSecondaryDeny)));
        assert!(
            donor.owner_view().unwrap().peer.is_some(),
            "kept its secondary"
        );
    }

    #[test]
    fn grant_hands_region_over_and_demotes_requester() {
        let mut e = south_owner(1.0, north_entry(10.0, Some(100.0)));
        // Pretend we asked already (set in-flight through the real path).
        e.handle(
            1,
            msg(
                NodeId::new(7),
                Message::Heartbeat {
                    info: north_entry(10.0, Some(100.0)),
                    index: 0.0,
                },
            ),
        );
        drive_load(&mut e, 20, 2);
        let stolen = node(8, 12.0, 52.0, 100.0);
        let fx = e.handle(
            50_000,
            msg(
                NodeId::new(7),
                Message::StealSecondaryGrant {
                    secondary: stolen,
                    donor_region: Region::new(0.0, 32.0, 64.0, 32.0),
                    swap: false,
                },
            ),
        );
        // The stolen node receives the region with us as its secondary.
        let handed = sends(&fx).iter().any(|(to, m)| {
            *to == stolen.id()
                && matches!(m, Message::Install { secondary: Some(s), .. } if s.id() == NodeId::new(1))
        });
        assert!(handed, "no hand-off in {fx:?}");
        let view = e.owner_view().unwrap();
        assert_eq!(view.role, Role::Secondary);
        assert_eq!(view.peer.unwrap().id(), stolen.id());
        assert!(fx.iter().any(|f| matches!(
            f,
            Effect::Client(ClientEvent::AdaptationExecuted { mechanism: 'a' })
        )));
    }

    #[test]
    fn take_over_region_installs_primary_and_notifies() {
        let mut e = engine(node(8, 12.0, 52.0, 100.0), EngineMode::DualPeer);
        let region = Region::new(0.0, 0.0, 64.0, 32.0);
        let neighbors = vec![north_entry(10.0, None)];
        let fx = e.handle(
            5,
            msg(
                NodeId::new(1),
                Message::Install {
                    region,
                    primary: e.info(),
                    secondary: Some(node(1, 10.0, 10.0, 1.0)),
                    neighbors,
                    store: Box::new(RegionStore::new()),
                },
            ),
        );
        let view = e.owner_view().unwrap();
        assert_eq!(view.role, Role::Primary);
        assert_eq!(view.region, region);
        assert_eq!(view.peer.unwrap().id(), NodeId::new(1));
        // Neighbors get the routing update.
        assert!(sends(&fx)
            .iter()
            .any(|(to, m)| *to == NodeId::new(7) && matches!(m, Message::NeighborUpdate { .. })));
    }

    #[test]
    fn deny_clears_in_flight_so_retries_happen() {
        let mut e = south_owner(1.0, north_entry(10.0, Some(100.0)));
        e.handle(
            1,
            msg(
                NodeId::new(7),
                Message::Heartbeat {
                    info: north_entry(10.0, Some(100.0)),
                    index: 0.0,
                },
            ),
        );
        let fx = drive_load(&mut e, 20, 2);
        assert!(sends(&fx)
            .iter()
            .any(|(_, m)| matches!(m, Message::StealSecondaryRequest { .. })));
        // Deny, keep the node hot: the next window must retry.
        e.handle(60_000, msg(NodeId::new(7), Message::StealSecondaryDeny));
        let fx = drive_load(&mut e, 20, 70_000);
        assert!(
            sends(&fx)
                .iter()
                .any(|(_, m)| matches!(m, Message::StealSecondaryRequest { .. })),
            "no retry after deny"
        );
    }
}
