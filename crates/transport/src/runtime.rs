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
//! Each node keeps one long-lived connection per peer it sends to. The
//! actor hands encoded frames to one writer task through a bounded queue;
//! the writer owns a `TcpStream` per peer address (`TCP_NODELAY` set),
//! so frames to one peer arrive in the order they were sent. Each
//! accepted connection gets one blocking reader thread, which the kernel
//! wakes the moment bytes arrive. A node therefore runs an actor, a
//! writer, an accept loop, and one reader per peer that has sent to it.
//!
//! A message that cannot be delivered is dropped, like a lost datagram,
//! which the protocol already tolerates (heartbeats re-announce state):
//! when the writer's queue is full, when a connect is refused, and when a
//! write fails. A failed write re-queues its frame once behind a fresh
//! connect, so a peer that restarted still gets it. The actor never waits
//! on the network, and a connect in flight holds up only its own peer.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::time::Duration;

use bytes::Bytes;
use geogrid_core::engine::{
    ClientEvent, Effect, EngineConfig, Input, Message, NodeEngine, OwnerView,
};
use geogrid_core::service::{LocationQuery, LocationRecord, Subscription};
use geogrid_core::{NodeId, NodeInfo};
use geogrid_geometry::{Point, Space};
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::{mpsc, oneshot};
use tokio::time::Instant;

use crate::frame::{read_frame_blocking, write_frame};
use crate::wire::{referenced_nodes, Envelope};

/// Frames the actor may queue for its writer; beyond this it drops them.
const OUTBOUND_QUEUE: usize = 1_024;
/// Frames held for one peer while its connection is being opened.
const LINK_BACKLOG: usize = 64;

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
        let (outbound_tx, outbound_rx) = mpsc::channel(OUTBOUND_QUEUE);

        tokio::spawn(accept_loop(listener, inbound_tx));
        tokio::spawn(writer(outbound_rx));
        tokio::spawn(actor(
            engine,
            local_addr,
            config.tick_interval,
            cmd_rx,
            inbound_rx,
            outbound_tx,
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

/// Accepts connections until the actor drops its inbound receiver, then
/// closes the listener.
async fn accept_loop(listener: TcpListener, inbound: mpsc::Sender<Envelope>) {
    loop {
        tokio::select! {
            accepted = listener.accept() => {
                let Ok((stream, _)) = accepted else { break };
                let Ok(stream) = stream.into_std() else { continue };
                let inbound = inbound.clone();
                tokio::task::spawn_blocking(move || read_link(stream, &inbound));
            }
            _ = inbound.closed() => { break }
        }
    }
}

/// Reads one inbound connection on its own thread, blocking in the kernel
/// between frames, until the peer closes it, sends garbage, or the actor
/// is gone.
fn read_link(stream: std::net::TcpStream, inbound: &mpsc::Sender<Envelope>) {
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let mut reader = io::BufReader::new(stream);
    while let Ok(Some(frame)) = read_frame_blocking(&mut reader) {
        let Ok(env) = Envelope::decode(&frame) else {
            return; // corrupt peer: drop connection
        };
        if inbound.blocking_send(env).is_err() {
            return;
        }
    }
}

/// One peer's connection, as the writer sees it.
enum Link {
    /// A connect is in flight; frames wait here in order (bounded).
    Opening(Vec<Bytes>),
    Open(TcpStream),
}

/// The node's one writer: a connection per peer address, opened on first
/// use and again after a failed write. Ends when the actor drops its
/// sender, which closes every connection.
async fn writer(mut outbound: mpsc::Receiver<(SocketAddr, Bytes)>) {
    let (opened_tx, mut opened) = mpsc::channel(64);
    let mut links: HashMap<SocketAddr, Link> = HashMap::new();
    loop {
        tokio::select! {
            out = outbound.recv() => {
                let Some((to, frame)) = out else { break };
                match links.get_mut(&to) {
                    Some(Link::Opening(backlog)) => {
                        if backlog.len() < LINK_BACKLOG {
                            backlog.push(frame);
                        }
                    }
                    Some(Link::Open(stream)) => {
                        if write_frame(stream, &frame).await.is_err() {
                            links.insert(to, Link::Opening(vec![frame]));
                            open_link(to, &opened_tx);
                        }
                    }
                    None => {
                        links.insert(to, Link::Opening(vec![frame]));
                        open_link(to, &opened_tx);
                    }
                }
            }
            done = opened.recv() => {
                let Some((to, result)) = done else { break };
                let Some(Link::Opening(backlog)) = links.remove(&to) else { continue };
                let Ok(mut stream) = result else { continue };
                let _ = stream.set_nodelay(true);
                let mut sent = true;
                for frame in &backlog {
                    sent = write_frame(&mut stream, frame).await.is_ok();
                    if !sent {
                        break;
                    }
                }
                if sent {
                    links.insert(to, Link::Open(stream));
                }
            }
        }
    }
}

/// Connects to `to` off the writer's path and reports back, so a peer
/// that is slow to answer (or black-holed) stalls only its own frames.
fn open_link(to: SocketAddr, opened: &mpsc::Sender<(SocketAddr, io::Result<TcpStream>)>) {
    let opened = opened.clone();
    tokio::spawn(async move {
        let _ = opened.send((to, TcpStream::connect(to).await)).await;
    });
}

struct Actor {
    engine: NodeEngine,
    local_addr: SocketAddr,
    book: HashMap<NodeId, SocketAddr>,
    pending: HashMap<NodeId, Vec<Message>>,
    outbound: mpsc::Sender<(SocketAddr, Bytes)>,
    events: mpsc::Sender<RuntimeEvent>,
    epoch: Instant,
}

async fn actor(
    engine: NodeEngine,
    local_addr: SocketAddr,
    tick_interval: Duration,
    mut commands: mpsc::Receiver<Command>,
    mut inbound: mpsc::Receiver<Envelope>,
    outbound: mpsc::Sender<(SocketAddr, Bytes)>,
    events: mpsc::Sender<RuntimeEvent>,
) {
    let mut state = Actor {
        engine,
        local_addr,
        book: HashMap::new(),
        pending: HashMap::new(),
        outbound,
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
                self.learn(entry, addr);
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
        self.learn(env.sender.id(), env.sender_addr);
        let addrs = env.addrs.clone();
        for (id, addr) in addrs {
            self.learn(id, addr);
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
    fn learn(&mut self, id: NodeId, addr: SocketAddr) {
        if id == self.engine.info().id() {
            return;
        }
        let known = self.book.insert(id, addr);
        if known != Some(addr) {
            if let Some(queued) = self.pending.remove(&id) {
                for message in queued {
                    self.transmit(id, message);
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
                        self.transmit(to, message);
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

    fn transmit(&self, to: NodeId, message: Message) {
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
        // A full queue drops the frame, like a lost datagram.
        let _ = self.outbound.try_send((addr, env.encode()));
    }
}
