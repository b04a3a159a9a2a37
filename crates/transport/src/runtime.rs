//! The async node runtime: one engine, one listener, one address book.
//!
//! [`NodeRuntime::start`] spawns an actor that owns a
//! [`geogrid_core::engine::NodeEngine`] and drives it from
//! three sources: inbound TCP frames, a periodic tick, and local commands
//! from the [`RuntimeHandle`]. Every outbound message is wrapped in an
//! [`Envelope`] carrying the sender's listen address plus address-book
//! entries for every node id the message references, so receivers can
//! always resolve the ids they learn.
//!
//! Connections are short-lived (one frame per connection): GeoGrid
//! management traffic is sparse and neighbor sets churn with every split,
//! so a connection cache buys little at this scale and a per-message
//! connect keeps failure handling trivial — a refused connect simply
//! drops the message, which the protocol already tolerates (heartbeats
//! re-announce state).

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::time::Duration;

use geogrid_core::engine::{
    ClientEvent, Effect, EngineConfig, Input, Message, NodeEngine, OwnerView,
};
use geogrid_core::service::{LocationQuery, LocationRecord, Subscription};
use geogrid_core::{NodeId, NodeInfo};
use geogrid_geometry::{Point, Space};
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::{mpsc, oneshot};
use tokio::time::Instant;

use crate::frame::{read_frame, write_frame};
use crate::wire::{referenced_nodes, Envelope};

/// Events surfaced to the embedding application.
pub type RuntimeEvent = ClientEvent;

/// Configuration for a [`NodeRuntime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Engine (protocol) configuration.
    pub engine: EngineConfig,
    /// Address to listen on (`127.0.0.1:0` for tests).
    pub listen: SocketAddr,
    /// Wall-clock tick driving heartbeats.
    pub tick_interval: Duration,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            listen: "127.0.0.1:0".parse().expect("valid literal"),
            tick_interval: Duration::from_millis(100),
        }
    }
}

enum Command {
    Bootstrap,
    Join { entry: NodeId, addr: SocketAddr },
    Leave,
    Query(LocationQuery),
    Publish(LocationRecord),
    Subscribe(Subscription),
    View(oneshot::Sender<Option<OwnerView>>),
    AddressOf(NodeId, oneshot::Sender<Option<SocketAddr>>),
    Shutdown,
}

/// Handle to a running node: issue commands, consume events.
#[derive(Debug)]
pub struct RuntimeHandle {
    info: NodeInfo,
    local_addr: SocketAddr,
    commands: mpsc::Sender<Command>,
    events: mpsc::Receiver<RuntimeEvent>,
}

impl RuntimeHandle {
    /// This node's descriptor.
    pub fn info(&self) -> NodeInfo {
        self.info
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Becomes the first node of a new GeoGrid (owns the whole space).
    pub async fn bootstrap(&self) {
        let _ = self.commands.send(Command::Bootstrap).await;
    }

    /// Joins an existing GeoGrid through the given entry node.
    pub async fn join(&self, entry: NodeId, addr: SocketAddr) {
        let _ = self.commands.send(Command::Join { entry, addr }).await;
    }

    /// Gracefully leaves the overlay (§2.3); a [`ClientEvent::Left`] or
    /// [`ClientEvent::LeaveDeferred`] event follows.
    pub async fn leave(&self) {
        let _ = self.commands.send(Command::Leave).await;
    }

    /// Issues a location query; results arrive as
    /// [`ClientEvent::QueryResults`] events.
    pub async fn query(&self, query: LocationQuery) {
        let _ = self.commands.send(Command::Query(query)).await;
    }

    /// Publishes a location record.
    pub async fn publish(&self, record: LocationRecord) {
        let _ = self.commands.send(Command::Publish(record)).await;
    }

    /// Registers a subscription; matches arrive as
    /// [`ClientEvent::Notified`] events.
    pub async fn subscribe(&self, sub: Subscription) {
        let _ = self.commands.send(Command::Subscribe(sub)).await;
    }

    /// Snapshot of the node's owner state.
    pub async fn owner_view(&self) -> Option<OwnerView> {
        let (tx, rx) = oneshot::channel();
        if self.commands.send(Command::View(tx)).await.is_err() {
            return None;
        }
        rx.await.ok().flatten()
    }

    /// The learned address of another node, if known.
    pub async fn address_of(&self, id: NodeId) -> Option<SocketAddr> {
        let (tx, rx) = oneshot::channel();
        if self
            .commands
            .send(Command::AddressOf(id, tx))
            .await
            .is_err()
        {
            return None;
        }
        rx.await.ok().flatten()
    }

    /// Receives the next client event (None once the runtime stopped).
    pub async fn next_event(&mut self) -> Option<RuntimeEvent> {
        self.events.recv().await
    }

    /// Receives the next event within `timeout`.
    pub async fn next_event_timeout(&mut self, timeout: Duration) -> Option<RuntimeEvent> {
        tokio::time::timeout(timeout, self.events.recv())
            .await
            .ok()
            .flatten()
    }

    /// Stops the runtime.
    pub async fn shutdown(&self) {
        let _ = self.commands.send(Command::Shutdown).await;
    }
}

/// Factory for running GeoGrid nodes on real sockets.
#[derive(Debug)]
pub struct NodeRuntime;

impl NodeRuntime {
    /// Starts a node: binds the listener and spawns the actor.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the listen address is unavailable.
    pub async fn start(
        id: NodeId,
        coord: Point,
        capacity: f64,
        space: Space,
        config: RuntimeConfig,
    ) -> io::Result<RuntimeHandle> {
        let listener = TcpListener::bind(config.listen).await?;
        let local_addr = listener.local_addr()?;
        let info = NodeInfo::new(id, coord, capacity);
        let engine = NodeEngine::new(info, space, config.engine);

        let (cmd_tx, cmd_rx) = mpsc::channel(64);
        let (event_tx, event_rx) = mpsc::channel(256);
        let (inbound_tx, inbound_rx) = mpsc::channel::<Envelope>(256);

        tokio::spawn(accept_loop(listener, inbound_tx));
        tokio::spawn(actor(
            engine,
            local_addr,
            config.tick_interval,
            cmd_rx,
            inbound_rx,
            event_tx,
        ));

        Ok(RuntimeHandle {
            info,
            local_addr,
            commands: cmd_tx,
            events: event_rx,
        })
    }
}

async fn accept_loop(listener: TcpListener, inbound: mpsc::Sender<Envelope>) {
    loop {
        let Ok((stream, _)) = listener.accept().await else {
            break;
        };
        let inbound = inbound.clone();
        tokio::spawn(async move {
            let mut stream = stream;
            while let Ok(Some(frame)) = read_frame(&mut stream).await {
                match Envelope::decode(&frame) {
                    Ok(env) => {
                        if inbound.send(env).await.is_err() {
                            return;
                        }
                    }
                    Err(_) => return, // corrupt peer: drop connection
                }
            }
        });
    }
}

struct Actor {
    engine: NodeEngine,
    local_addr: SocketAddr,
    book: HashMap<NodeId, SocketAddr>,
    pending: HashMap<NodeId, Vec<Message>>,
    events: mpsc::Sender<RuntimeEvent>,
    epoch: Instant,
}

async fn actor(
    engine: NodeEngine,
    local_addr: SocketAddr,
    tick_interval: Duration,
    mut commands: mpsc::Receiver<Command>,
    mut inbound: mpsc::Receiver<Envelope>,
    events: mpsc::Sender<RuntimeEvent>,
) {
    let mut state = Actor {
        engine,
        local_addr,
        book: HashMap::new(),
        pending: HashMap::new(),
        events,
        epoch: Instant::now(),
    };
    let mut ticker = tokio::time::interval(tick_interval);
    ticker.set_missed_tick_behavior(tokio::time::MissedTickBehavior::Delay);
    loop {
        tokio::select! {
            cmd = commands.recv() => {
                let Some(cmd) = cmd else { break };
                if !state.handle_command(cmd).await {
                    break;
                }
            }
            env = inbound.recv() => {
                let Some(env) = env else { break };
                state.handle_envelope(env).await;
            }
            _ = ticker.tick() => {
                let now = state.now();
                let effects = state.engine.handle(now, Input::Tick);
                state.apply(effects).await;
            }
        }
    }
}

impl Actor {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    async fn handle_command(&mut self, cmd: Command) -> bool {
        let now = self.now();
        match cmd {
            Command::Bootstrap => {
                let fx = self.engine.handle(now, Input::BootstrapAsFirst);
                self.apply(fx).await;
            }
            Command::Join { entry, addr } => {
                self.learn(entry, addr).await;
                let fx = self.engine.handle(now, Input::Join { entry });
                self.apply(fx).await;
            }
            Command::Leave => {
                let fx = self.engine.handle(now, Input::Leave);
                self.apply(fx).await;
            }
            Command::Query(query) => {
                let fx = self.engine.handle(now, Input::UserQuery { query });
                self.apply(fx).await;
            }
            Command::Publish(record) => {
                let fx = self.engine.handle(now, Input::UserPublish { record });
                self.apply(fx).await;
            }
            Command::Subscribe(sub) => {
                let fx = self.engine.handle(now, Input::UserSubscribe { sub });
                self.apply(fx).await;
            }
            Command::View(reply) => {
                let _ = reply.send(self.engine.owner_view());
            }
            Command::AddressOf(id, reply) => {
                let _ = reply.send(self.book.get(&id).copied());
            }
            Command::Shutdown => return false,
        }
        true
    }

    async fn handle_envelope(&mut self, env: Envelope) {
        self.learn(env.sender.id(), env.sender_addr).await;
        let addrs = env.addrs.clone();
        for (id, addr) in addrs {
            self.learn(id, addr).await;
        }
        let now = self.now();
        let effects = self.engine.handle(
            now,
            Input::Message {
                from: env.sender.id(),
                message: env.message,
            },
        );
        self.apply(effects).await;
    }

    /// Records an address and flushes messages that were waiting for it.
    async fn learn(&mut self, id: NodeId, addr: SocketAddr) {
        if id == self.engine.info().id() {
            return;
        }
        let known = self.book.insert(id, addr);
        if known != Some(addr) {
            if let Some(queued) = self.pending.remove(&id) {
                for message in queued {
                    self.transmit(id, message).await;
                }
            }
        }
    }

    async fn apply(&mut self, effects: Vec<Effect>) {
        let me = self.engine.info().id();
        let mut queue = VecDeque::from(effects);
        while let Some(effect) = queue.pop_front() {
            match effect {
                // A message to ourselves (e.g. our own partial of a fanned
                // out query) never touches the network: `learn` keeps our
                // id out of the address book, so it would park forever.
                Effect::Send { to, message } if to == me => {
                    let now = self.now();
                    let input = Input::Message { from: me, message };
                    queue.extend(self.engine.handle(now, input));
                }
                Effect::Send { to, message } => {
                    if self.book.contains_key(&to) {
                        self.transmit(to, message).await;
                    } else {
                        // Address unknown yet: park it (bounded).
                        let queue = self.pending.entry(to).or_default();
                        if queue.len() < 64 {
                            queue.push(message);
                        }
                    }
                }
                Effect::Client(event) => {
                    let _ = self.events.send(event).await;
                }
            }
        }
    }

    async fn transmit(&self, to: NodeId, message: Message) {
        let Some(&addr) = self.book.get(&to) else {
            return;
        };
        let mut attach = Vec::new();
        for id in referenced_nodes(&message) {
            if let Some(&a) = self.book.get(&id) {
                attach.push((id, a));
            }
        }
        let env = Envelope {
            sender: self.engine.info(),
            sender_addr: self.local_addr,
            addrs: attach,
            message,
        };
        let bytes = env.encode();
        // Fire-and-forget: one frame per connection; failures are dropped
        // like lost datagrams (the protocol heartbeats re-announce state).
        tokio::spawn(async move {
            if let Ok(mut stream) = TcpStream::connect(addr).await {
                let _ = write_frame(&mut stream, &bytes).await;
            }
        });
    }
}
