//! The node runtime: one engine, one listener, one address book, on plain
//! std threads behind an async handle.
//!
//! [`NodeRuntime::start`] binds the listener and starts two threads. The
//! **actor** owns a [`geogrid_core::engine::NodeEngine`] and every
//! outbound connection, and blocks on one bounded channel that carries
//! commands from the [`RuntimeHandle`], envelopes from the readers, and
//! the results of the connects it asked for. Between inputs it sleeps
//! until the next tick, which runs one tick interval after the last one
//! ran. The **accept thread** blocks in `accept()` and gives each accepted
//! connection a blocking **reader** thread, which decodes frames into the
//! actor's channel. A node therefore runs an actor, an accept thread, one
//! reader per peer that has sent to it, and, while a connect is in flight,
//! a short-lived connect helper for that peer.
//!
//! Every outbound message is wrapped in an [`Envelope`] carrying the
//! sender's listen address plus address-book entries for every node id
//! the message references, so receivers can always resolve the ids they
//! learn.
//!
//! The actor writes its own sockets: one nonblocking `TcpStream` per peer
//! address (`TCP_NODELAY` set), so frames to one peer arrive in the order
//! they were sent. A frame is written at once until the kernel would
//! block; the rest waits in that link's buffer, and while any buffer holds
//! bytes the actor retries every millisecond. The actor never waits on
//! the network: a peer that stops reading fills only its own buffer, and
//! a connect in flight holds up only its own peer's frames.
//!
//! A message that cannot be delivered is dropped, like a lost datagram,
//! which the protocol already tolerates (heartbeats re-announce state):
//! when a peer's buffer is full, when a connect is refused, and when a
//! write fails. A failed write re-queues its frame once behind a fresh
//! connect, so a peer that restarted still gets it.
//!
//! The node stops on [`RuntimeHandle::shutdown`] or when its handle is
//! dropped. The actor then closes its outbound connections and wakes the
//! accept thread with a connect to its own address, which closes the
//! listener. A reader ends when its peer closes the link or sends its
//! next frame.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use geogrid_core::engine::{
    ClientEvent, Effect, EngineConfig, Input, Message, NodeEngine, OwnerView,
};
use geogrid_core::service::{LocationQuery, LocationRecord, Subscription};
use geogrid_core::{NodeId, NodeInfo};
use geogrid_geometry::{Point, Space};
use tokio::sync::{mpsc, oneshot};

use crate::frame::{push_frame, read_frame_blocking, MAX_FRAME};
use crate::wire::{referenced_nodes, Envelope};

/// Inputs the actor's channel holds; a full channel holds up the readers
/// and the handle until the actor takes the next one.
const INPUT_QUEUE: usize = 16;
/// Frames held for one peer while its connection is being opened.
const LINK_BACKLOG: usize = 64;
/// Bytes one link may hold that the kernel has not taken yet; a frame
/// that would pass this is dropped.
const LINK_BUFFER: usize = 4 << 20;
/// How soon the actor retries links holding unsent bytes.
const RETRY: Duration = Duration::from_millis(1);

/// Events surfaced to the embedding application.
pub type RuntimeEvent = ClientEvent;

/// Configuration for a [`NodeRuntime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Engine (protocol) configuration.
    pub engine: EngineConfig,
    /// Address to listen on (`127.0.0.1:0` for tests).
    pub listen: SocketAddr,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            listen: "127.0.0.1:0".parse().expect("valid literal"),
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
    Shutdown,
}

/// What the actor's one channel carries.
enum ActorInput {
    Command(Command),
    Envelope(Envelope),
    /// A connect helper's result for this peer address.
    Opened(SocketAddr, io::Result<TcpStream>),
}

/// Handle to a running node: issue commands, consume events. Dropping it
/// stops the node.
///
/// Commands share the actor's bounded channel with the readers. When it
/// is full, a command waits on the caller's thread until the actor, which
/// never waits on the network, takes its next input.
#[derive(Debug)]
pub struct RuntimeHandle {
    info: NodeInfo,
    local_addr: SocketAddr,
    inputs: SyncSender<ActorInput>,
    /// Set when the node is to stop; the actor and the accept thread
    /// check it after each input and each accepted connection. It
    /// publishes no other data, so `Relaxed` suffices.
    stopping: Arc<AtomicBool>,
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

    /// Queues `cmd` for the actor; false once the node has stopped.
    fn command(&self, cmd: Command) -> bool {
        self.inputs.send(ActorInput::Command(cmd)).is_ok()
    }

    /// Becomes the first node of a new GeoGrid (owns the whole space).
    pub async fn bootstrap(&self) {
        self.command(Command::Bootstrap);
    }

    /// Joins an existing GeoGrid through the given entry node.
    pub async fn join(&self, entry: NodeId, addr: SocketAddr) {
        self.command(Command::Join { entry, addr });
    }

    /// Gracefully leaves the overlay (§2.3); a [`ClientEvent::Left`] or
    /// [`ClientEvent::LeaveDeferred`] event follows.
    pub async fn leave(&self) {
        self.command(Command::Leave);
    }

    /// Issues a location query; results arrive as
    /// [`ClientEvent::QueryResults`] events.
    pub async fn query(&self, query: LocationQuery) {
        self.command(Command::Query(query));
    }

    /// Publishes a location record.
    pub async fn publish(&self, record: LocationRecord) {
        self.command(Command::Publish(record));
    }

    /// Registers a subscription; matches arrive as
    /// [`ClientEvent::Notified`] events.
    pub async fn subscribe(&self, sub: Subscription) {
        self.command(Command::Subscribe(sub));
    }

    /// Snapshot of the node's owner state.
    pub async fn owner_view(&self) -> Option<OwnerView> {
        let (tx, rx) = oneshot::channel();
        if !self.command(Command::View(tx)) {
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
        self.command(Command::Shutdown);
    }
}

impl Drop for RuntimeHandle {
    /// Stops the node: the readers hold senders too, so the actor's
    /// channel never closes by itself. The flag covers a full channel,
    /// whose queued inputs wake the actor to see it.
    fn drop(&mut self) {
        self.stopping.store(true, Ordering::Relaxed);
        let _ = self.inputs.try_send(ActorInput::Command(Command::Shutdown));
    }
}

/// Factory for running GeoGrid nodes on real sockets.
#[derive(Debug)]
pub struct NodeRuntime;

impl NodeRuntime {
    /// Starts a node: binds the listener and starts the actor and accept
    /// threads.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the listen address is unavailable, or
    /// the error of a thread that could not be started.
    pub async fn start(
        id: NodeId,
        coord: Point,
        capacity: f64,
        space: Space,
        config: RuntimeConfig,
    ) -> io::Result<RuntimeHandle> {
        #[expect(
            clippy::disallowed_methods,
            reason = "binding a loopback or local listener does not wait on a peer"
        )]
        let listener = TcpListener::bind(config.listen)?;
        let local_addr = listener.local_addr()?;
        let info = NodeInfo::new(id, coord, capacity);
        let (inputs, inbox) = sync_channel(INPUT_QUEUE);
        let (event_tx, events) = mpsc::channel(256);
        let stopping = Arc::new(AtomicBool::new(false));

        let actor = Actor {
            engine: NodeEngine::new(info, space, config.engine),
            local_addr,
            book: HashMap::new(),
            pending: HashMap::new(),
            links: HashMap::new(),
            retry_at: None,
            inputs: inputs.clone(),
            stopping: Arc::clone(&stopping),
            events: event_tx,
            epoch: Instant::now(),
        };
        // The engine's heartbeat interval is its tick period.
        let tick = Duration::from_millis(config.engine.heartbeat_interval);
        thread::Builder::new()
            .name("geogrid-actor".into())
            .spawn(move || actor.run(&inbox, tick))?;
        let handle = RuntimeHandle {
            info,
            local_addr,
            inputs: inputs.clone(),
            stopping: Arc::clone(&stopping),
            events,
        };
        // On error `handle` drops here, which stops the actor.
        thread::Builder::new()
            .name("geogrid-accept".into())
            .spawn(move || accept_loop(&listener, &inputs, &stopping))?;
        Ok(handle)
    }
}

/// Accepts connections, one reader thread each, until the node stops; then
/// the listener closes.
fn accept_loop(listener: &TcpListener, inputs: &SyncSender<ActorInput>, stopping: &AtomicBool) {
    for stream in listener.incoming() {
        if stopping.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = stream else { break };
        let inputs = inputs.clone();
        let _ = thread::Builder::new()
            .name("geogrid-reader".into())
            .spawn(move || read_link(stream, &inputs));
    }
}

/// Reads one inbound connection, blocking in the kernel between frames,
/// until the peer closes it, sends garbage, or the actor is gone.
fn read_link(stream: TcpStream, inputs: &SyncSender<ActorInput>) {
    let mut reader = io::BufReader::new(stream);
    while let Ok(Some(frame)) = read_frame_blocking(&mut reader) {
        let Ok(env) = Envelope::decode(&frame) else {
            return; // corrupt peer: drop connection
        };
        if inputs.send(ActorInput::Envelope(env)).is_err() {
            return;
        }
    }
}

/// One peer's connection, as the actor sees it.
enum Link {
    /// A connect is in flight; frames wait here in order (bounded).
    Opening(Vec<Bytes>),
    /// A nonblocking stream and the framed bytes it has not taken yet.
    Open { stream: TcpStream, unsent: Vec<u8> },
}

impl Link {
    fn has_unsent(&self) -> bool {
        matches!(self, Link::Open { unsent, .. } if !unsent.is_empty())
    }
}

/// Writes `unsent` until it is empty or the kernel would block, and keeps
/// what is left.
fn flush(mut stream: &TcpStream, unsent: &mut Vec<u8>) -> io::Result<()> {
    let mut written = 0;
    while written < unsent.len() {
        match stream.write(&unsent[written..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    unsent.drain(..written);
    Ok(())
}

struct Actor {
    engine: NodeEngine,
    local_addr: SocketAddr,
    book: HashMap<NodeId, SocketAddr>,
    pending: HashMap<NodeId, Vec<Message>>,
    links: HashMap<SocketAddr, Link>,
    /// When to retry the links holding unsent bytes; `None` if none do.
    retry_at: Option<Instant>,
    /// For connect helpers to report back on.
    inputs: SyncSender<ActorInput>,
    stopping: Arc<AtomicBool>,
    events: mpsc::Sender<RuntimeEvent>,
    epoch: Instant,
}

impl Actor {
    /// Handles inputs and ticks until the node stops, then wakes the
    /// accept thread to close the listener; the links close as `self`
    /// drops.
    fn run(mut self, inbox: &Receiver<ActorInput>, tick_interval: Duration) {
        let mut next_tick = Instant::now();
        while !self.stopping.load(Ordering::Relaxed) {
            if Instant::now() >= next_tick {
                let effects = self.engine.handle(self.now(), Input::Tick);
                self.apply(effects);
                next_tick = Instant::now() + tick_interval;
            }
            // The actor holds a sender itself, so this never disconnects.
            let wake = self.retry_at.map_or(next_tick, |at| at.min(next_tick));
            if let Ok(input) = inbox.recv_timeout(wake.saturating_duration_since(Instant::now())) {
                if !self.handle(input) {
                    break;
                }
            }
            if self.retry_at.is_some_and(|at| Instant::now() >= at) {
                self.retry_links();
            }
        }
        self.stopping.store(true, Ordering::Relaxed);
        #[expect(
            clippy::disallowed_methods,
            reason = "the actor is stopping; a connect to its own listener returns at once"
        )]
        // An unspecified listen address (0.0.0.0, ::) connects to this host.
        let _ = TcpStream::connect(self.local_addr);
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Handles one input; false once the node is to stop.
    fn handle(&mut self, input: ActorInput) -> bool {
        match input {
            ActorInput::Command(cmd) => return self.handle_command(cmd),
            ActorInput::Envelope(env) => self.handle_envelope(env),
            ActorInput::Opened(to, result) => self.opened(to, result),
        }
        true
    }

    fn handle_command(&mut self, cmd: Command) -> bool {
        let now = self.now();
        let input = match cmd {
            Command::Bootstrap => Input::BootstrapAsFirst,
            Command::Join { entry, addr } => {
                self.learn(entry, addr);
                Input::Join { entry }
            }
            Command::Leave => Input::Leave,
            Command::Query(query) => Input::UserQuery { query },
            Command::Publish(record) => Input::UserPublish { record },
            Command::Subscribe(sub) => Input::UserSubscribe { sub },
            Command::View(reply) => {
                let _ = reply.send(self.engine.owner_view());
                return true;
            }
            Command::Shutdown => return false,
        };
        let effects = self.engine.handle(now, input);
        self.apply(effects);
        true
    }

    fn handle_envelope(&mut self, env: Envelope) {
        self.learn(env.sender.id(), env.sender_addr);
        for &(id, addr) in &env.addrs {
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
        self.apply(effects);
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

    fn apply(&mut self, effects: Vec<Effect>) {
        let me = self.engine.info().id();
        for effect in effects {
            match effect {
                Effect::Send { to, message } => {
                    // The engine never addresses itself (`learn` keeps our
                    // id out of the address book, so it would park forever).
                    debug_assert_ne!(to, me, "engine sent itself {message:?}");
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
                    let _ = self.events.blocking_send(event);
                }
            }
        }
    }

    fn transmit(&mut self, to: NodeId, message: Message) {
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
        self.send_frame(addr, env.encode());
    }

    /// Writes one frame to `to`'s link, opening the link first if needed.
    fn send_frame(&mut self, to: SocketAddr, frame: Bytes) {
        if frame.len() > MAX_FRAME {
            return;
        }
        match self.links.get_mut(&to) {
            Some(Link::Opening(backlog)) => {
                if backlog.len() < LINK_BACKLOG {
                    backlog.push(frame);
                }
            }
            Some(Link::Open { stream, unsent }) => {
                // A full buffer drops the frame, like a lost datagram; an
                // empty one takes a frame of any size.
                if !unsent.is_empty() && unsent.len() + 4 + frame.len() > LINK_BUFFER {
                    return;
                }
                push_frame(unsent, &frame);
                match flush(stream, unsent) {
                    Ok(()) if unsent.is_empty() => {}
                    Ok(()) => {
                        self.retry_at.get_or_insert_with(|| Instant::now() + RETRY);
                    }
                    Err(_) => self.open_link(to, vec![frame]),
                }
            }
            None => self.open_link(to, vec![frame]),
        }
    }

    /// Connects to `to` on a helper thread, holding `backlog` until the
    /// result comes back, so a peer that is slow to answer (or
    /// black-holed) stalls only its own frames.
    fn open_link(&mut self, to: SocketAddr, backlog: Vec<Bytes>) {
        let inputs = self.inputs.clone();
        let helper = thread::Builder::new()
            .name("geogrid-connect".into())
            .spawn(move || {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "a helper thread of its own waits out the connect"
                )]
                let result = TcpStream::connect(to);
                let _ = inputs.send(ActorInput::Opened(to, result));
            });
        if helper.is_ok() {
            self.links.insert(to, Link::Opening(backlog));
        } else {
            self.links.remove(&to);
        }
    }

    /// Takes a connect helper's result: the link opens and writes its
    /// backlog, or is forgotten with it.
    fn opened(&mut self, to: SocketAddr, result: io::Result<TcpStream>) {
        let Some(Link::Opening(backlog)) = self.links.remove(&to) else {
            return;
        };
        let Ok(stream) = result else { return };
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let mut unsent = Vec::new();
        for frame in &backlog {
            push_frame(&mut unsent, frame);
        }
        if flush(&stream, &mut unsent).is_err() {
            return;
        }
        if !unsent.is_empty() {
            self.retry_at.get_or_insert_with(|| Instant::now() + RETRY);
        }
        self.links.insert(to, Link::Open { stream, unsent });
    }

    /// Retries every link holding unsent bytes, forgetting those whose
    /// write fails (the next frame to that peer reconnects).
    fn retry_links(&mut self) {
        self.links.retain(|_, link| match link {
            Link::Open { stream, unsent } => unsent.is_empty() || flush(stream, unsent).is_ok(),
            Link::Opening(_) => true,
        });
        self.retry_at = self
            .links
            .values()
            .any(Link::has_unsent)
            .then(|| Instant::now() + RETRY);
    }
}
