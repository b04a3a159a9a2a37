//! The simulation engine: processes, events, and the run loop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{LatencyModel, SimStats, SimTime};

/// Address of a process inside a simulation.
///
/// Addresses are allocated sequentially by [`Simulation::add_process`] and
/// are never reused, so a crashed node's address stays dangling — exactly
/// like a departed peer's endpoint in a real overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(u64);

impl Addr {
    /// The raw numeric address (stable within one simulation).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Reconstructs an address from its raw value.
    ///
    /// Useful for drivers that keep an external id space numerically
    /// aligned with simulator addresses. Sending to an address that was
    /// never allocated is safe: the message counts as undeliverable.
    pub fn from_raw(raw: u64) -> Addr {
        Addr(raw)
    }

    /// The process-table index, if it fits one.
    fn index(self) -> Option<usize> {
        usize::try_from(self.0).ok()
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A simulated process (an overlay node).
///
/// Handlers receive a [`Context`] for sending messages, arming timers, and
/// reading the clock. Sends and timers enter the event queue as they are
/// requested; a [`Context::stop`] takes effect when the handler returns.
pub trait Process {
    /// The message type exchanged between processes.
    type Msg;

    /// Called once when the process is added to the simulation.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Called for every delivered message.
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: Addr, msg: Self::Msg);

    /// Called when a timer armed via [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, timer: u64) {
        let _ = (ctx, timer);
    }
}

/// Simulation-level configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// One-way message latency model.
    pub latency: LatencyModel,
    /// Independent probability that any message is silently dropped.
    pub loss_probability: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            latency: LatencyModel::default(),
            loss_probability: 0.0,
        }
    }
}

/// Handle through which a process interacts with the simulation during a
/// handler invocation.
pub struct Context<'a, M> {
    sched: &'a mut Sched<M>,
    addr: Addr,
    stopped: bool,
}

impl<M> Context<'_, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// This process's own address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Sends `msg` to `to` (subject to the latency and loss models).
    pub fn send(&mut self, to: Addr, msg: M) {
        self.sched.send(self.addr, to, msg);
    }

    /// Arms a timer that fires after `delay` with the given id.
    pub fn set_timer(&mut self, delay: SimTime, id: u64) {
        let at = self.sched.now + delay;
        self.sched.push(at, EventKind::Timer { to: self.addr, id });
    }

    /// Removes this process from the simulation after the handler returns
    /// (a graceful departure; pending messages to it become undeliverable).
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Deterministic randomness shared with the simulation.
    pub fn rng(&mut self) -> &mut impl Rng {
        &mut self.sched.rng
    }
}

#[derive(Debug)]
enum EventKind<M> {
    Deliver { from: Addr, to: Addr, msg: M },
    Timer { to: Addr, id: u64 },
    Start { to: Addr },
}

/// Everything but the processes: the clock, the event queue and the RNG.
///
/// The heap orders small `(at, seq, slot)` keys; each event's payload
/// waits in `slab[slot]`, and freed slots are reused.
struct Sched<M> {
    config: SimConfig,
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    slab: Vec<Option<EventKind<M>>>,
    free: Vec<u32>,
    rng: SmallRng,
    stats: SimStats,
}

impl<M> Sched<M> {
    fn send(&mut self, from: Addr, to: Addr, msg: M) {
        self.stats.sent += 1;
        if self.config.loss_probability > 0.0
            && self.rng.random::<f64>() < self.config.loss_probability
        {
            self.stats.lost += 1;
            return;
        }
        let at = self.now + self.config.latency.sample(&mut self.rng);
        self.push(at, EventKind::Deliver { from, to, msg });
    }

    fn push(&mut self, at: SimTime, kind: EventKind<M>) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(kind);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("fewer than 2^32 pending events");
                self.slab.push(Some(kind));
                slot
            }
        };
        self.queue.push(Reverse((at, self.seq, slot)));
        self.seq += 1;
    }

    /// Pops the earliest event and frees its slot.
    fn pop(&mut self) -> Option<(SimTime, EventKind<M>)> {
        let Reverse((at, _, slot)) = self.queue.pop()?;
        self.free.push(slot);
        let kind = self.slab[slot as usize]
            .take()
            .expect("a queued slot holds its event");
        Some((at, kind))
    }

    fn next_at(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse((at, ..))| *at)
    }
}

/// A deterministic discrete-event simulation over a set of processes.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct Simulation<P: Process> {
    /// Indexed by address; `None` once crashed or stopped.
    processes: Vec<Option<P>>,
    live: usize,
    sched: Sched<P::Msg>,
}

impl<P: Process> Simulation<P> {
    /// Creates an empty simulation with the given config and RNG seed.
    pub fn new(config: SimConfig, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&config.loss_probability),
            "loss probability must be in [0, 1), got {}",
            config.loss_probability
        );
        Self {
            processes: Vec::new(),
            live: 0,
            sched: Sched {
                config,
                now: SimTime::ZERO,
                seq: 0,
                queue: BinaryHeap::new(),
                slab: Vec::new(),
                free: Vec::new(),
                rng: SmallRng::seed_from_u64(seed),
                stats: SimStats::default(),
            },
        }
    }

    /// Adds a process; its `on_start` runs at the current simulated time
    /// (once the run loop reaches it).
    pub fn add_process(&mut self, process: P) -> Addr {
        let addr = Addr(self.processes.len() as u64);
        self.processes.push(Some(process));
        self.live += 1;
        self.sched
            .push(self.sched.now, EventKind::Start { to: addr });
        addr
    }

    /// Injects a message from outside the simulation (e.g. a mobile user
    /// contacting its proxy). Latency and loss apply as usual.
    pub fn post(&mut self, from: Addr, to: Addr, msg: P::Msg) {
        self.sched.send(from, to, msg);
    }

    /// Crashes a process immediately: it is removed without any handler
    /// running, and in-flight messages to it count as undeliverable.
    ///
    /// Returns the process state if it was alive.
    pub fn crash(&mut self, addr: Addr) -> Option<P> {
        let process = self.processes.get_mut(addr.index()?)?.take()?;
        self.live -= 1;
        Some(process)
    }

    /// Whether `addr` is currently alive.
    pub fn is_alive(&self, addr: Addr) -> bool {
        self.process(addr).is_some()
    }

    /// Read access to a process's state.
    pub fn process(&self, addr: Addr) -> Option<&P> {
        self.processes.get(addr.index()?)?.as_ref()
    }

    /// Mutable access to a process's state (for test instrumentation).
    pub fn process_mut(&mut self, addr: Addr) -> Option<&mut P> {
        self.processes.get_mut(addr.index()?)?.as_mut()
    }

    /// Addresses of all live processes, in ascending address order (which
    /// is the order they were added in).
    pub fn addrs(&self) -> impl Iterator<Item = Addr> + '_ {
        (0u64..)
            .zip(&self.processes)
            .filter(|(_, p)| p.is_some())
            .map(|(raw, _)| Addr(raw))
    }

    /// Number of live processes.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no processes are alive.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> SimStats {
        self.sched.stats
    }

    /// Processes a single event. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, kind)) = self.sched.pop() else {
            return false;
        };
        debug_assert!(at >= self.sched.now, "time must not move backwards");
        self.sched.now = at;
        self.sched.stats.events += 1;
        match kind {
            EventKind::Deliver { from, to, msg } => {
                if self.dispatch(to, |p, ctx| p.on_message(ctx, from, msg)) {
                    self.sched.stats.delivered += 1;
                } else {
                    self.sched.stats.undeliverable += 1;
                }
            }
            EventKind::Timer { to, id } => {
                if self.dispatch(to, |p, ctx| p.on_timer(ctx, id)) {
                    self.sched.stats.timers_fired += 1;
                }
            }
            EventKind::Start { to } => {
                self.dispatch(to, |p, ctx| p.on_start(ctx));
            }
        }
        true
    }

    /// Runs until the queue drains or `max_events` have been processed.
    /// Returns the number of events processed.
    pub fn run_until_quiescent(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }

    /// Runs until simulated time would pass `deadline` (events at exactly
    /// `deadline` are processed) or `max_events` have been processed.
    /// Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.sched.next_at().is_some_and(|at| at <= deadline) {
            self.step();
            n += 1;
        }
        let next = self.sched.next_at().unwrap_or(deadline);
        self.sched.now = self.sched.now.max(deadline.min(next));
        n
    }

    /// Runs `f` on the live process at `to` and applies a requested stop.
    /// Returns false if `to` is not alive.
    fn dispatch<F>(&mut self, to: Addr, f: F) -> bool
    where
        F: FnOnce(&mut P, &mut Context<'_, P::Msg>),
    {
        let Some(process) = to.index().and_then(|i| self.processes.get_mut(i)?.as_mut()) else {
            return false;
        };
        let mut ctx = Context {
            sched: &mut self.sched,
            addr: to,
            stopped: false,
        };
        f(process, &mut ctx);
        if ctx.stopped {
            self.crash(to);
        }
        true
    }
}

impl<P: Process> fmt::Debug for Simulation<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.sched.now)
            .field("processes", &self.live)
            .field("pending_events", &self.sched.queue.len())
            .field("stats", &self.sched.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts messages and echoes pings.
    struct Echo {
        received: u32,
    }

    impl Process for Echo {
        type Msg = &'static str;

        fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: Addr, msg: Self::Msg) {
            self.received += 1;
            if msg == "ping" {
                ctx.send(from, "pong");
            }
        }
    }

    fn two_echoes(config: SimConfig) -> (Simulation<Echo>, Addr, Addr) {
        let mut sim = Simulation::new(config, 7);
        let a = sim.add_process(Echo { received: 0 });
        let b = sim.add_process(Echo { received: 0 });
        (sim, a, b)
    }

    #[test]
    fn ping_pong_delivers_both_ways() {
        let (mut sim, a, b) = two_echoes(SimConfig::default());
        sim.post(a, b, "ping");
        sim.run_until_quiescent(100);
        assert_eq!(sim.process(b).unwrap().received, 1);
        assert_eq!(sim.process(a).unwrap().received, 1);
        assert_eq!(sim.stats().delivered, 2);
        // Two latency hops of 5ms each.
        assert_eq!(sim.now(), SimTime::from_millis(10));
    }

    #[test]
    fn crash_makes_messages_undeliverable() {
        let (mut sim, a, b) = two_echoes(SimConfig::default());
        sim.crash(b);
        sim.post(a, b, "ping");
        sim.run_until_quiescent(100);
        assert_eq!(sim.stats().undeliverable, 1);
        assert_eq!(sim.stats().delivered, 0);
        assert!(!sim.is_alive(b));
        assert!(sim.is_alive(a));
    }

    #[test]
    fn loss_model_drops_messages() {
        let config = SimConfig {
            loss_probability: 0.999999,
            ..SimConfig::default()
        };
        let (mut sim, a, b) = two_echoes(config);
        for _ in 0..50 {
            sim.post(a, b, "ping");
        }
        sim.run_until_quiescent(1000);
        assert!(sim.stats().lost >= 45, "lost {}", sim.stats().lost);
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = |seed: u64| {
            let config = SimConfig {
                latency: LatencyModel::uniform_millis(1, 10),
                loss_probability: 0.1,
            };
            let mut sim = Simulation::new(config, seed);
            let a = sim.add_process(Echo { received: 0 });
            let b = sim.add_process(Echo { received: 0 });
            for _ in 0..100 {
                sim.post(a, b, "ping");
            }
            sim.run_until_quiescent(10_000);
            (sim.stats(), sim.now())
        };
        assert_eq!(run(11), run(11));
        // Different seeds should produce a different trajectory in at
        // least one observable (loss count or final clock).
        assert_ne!(run(11), run(12));
    }

    /// A process that reschedules itself a fixed number of times.
    struct Ticker {
        remaining: u32,
        fired_at: Vec<SimTime>,
    }

    impl Process for Ticker {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
            ctx.set_timer(SimTime::from_millis(10), 1);
        }

        fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: Addr, _msg: ()) {}

        fn on_timer(&mut self, ctx: &mut Context<'_, ()>, timer: u64) {
            assert_eq!(timer, 1);
            self.fired_at.push(ctx.now());
            self.remaining -= 1;
            if self.remaining > 0 {
                ctx.set_timer(SimTime::from_millis(10), 1);
            }
        }
    }

    #[test]
    fn timers_fire_on_schedule() {
        let mut sim = Simulation::new(SimConfig::default(), 1);
        let t = sim.add_process(Ticker {
            remaining: 3,
            fired_at: Vec::new(),
        });
        sim.run_until_quiescent(100);
        let fired = &sim.process(t).unwrap().fired_at;
        assert_eq!(
            *fired,
            vec![
                SimTime::from_millis(10),
                SimTime::from_millis(20),
                SimTime::from_millis(30)
            ]
        );
        assert_eq!(sim.stats().timers_fired, 3);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Simulation::new(SimConfig::default(), 1);
        sim.add_process(Ticker {
            remaining: 10,
            fired_at: Vec::new(),
        });
        sim.run_until(SimTime::from_millis(35), 1000);
        assert_eq!(sim.stats().timers_fired, 3); // 10, 20, 30ms fired; 40ms pending
        assert!(sim.now() <= SimTime::from_millis(40));
    }

    /// A process that stops itself upon any message.
    struct Quitter;

    impl Process for Quitter {
        type Msg = ();

        fn on_message(&mut self, ctx: &mut Context<'_, ()>, _from: Addr, _msg: ()) {
            ctx.stop();
        }
    }

    #[test]
    fn stop_removes_process() {
        let mut sim = Simulation::new(SimConfig::default(), 1);
        let a = sim.add_process(Quitter);
        let b = sim.add_process(Quitter);
        sim.post(b, a, ());
        sim.post(b, a, ()); // second message arrives after the stop
        sim.run_until_quiescent(100);
        assert!(!sim.is_alive(a));
        assert!(sim.is_alive(b));
        assert_eq!(sim.stats().delivered, 1);
        assert_eq!(sim.stats().undeliverable, 1);
    }

    /// Arms a timer at start and stops on its first message.
    struct Leaver {
        fired: u32,
    }

    impl Process for Leaver {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
            ctx.set_timer(SimTime::from_millis(50), 9);
        }

        fn on_message(&mut self, ctx: &mut Context<'_, ()>, _from: Addr, _msg: ()) {
            ctx.stop();
        }

        fn on_timer(&mut self, _ctx: &mut Context<'_, ()>, _timer: u64) {
            self.fired += 1;
        }
    }

    #[test]
    fn stop_drops_messages_and_timers_in_flight() {
        let mut sim = Simulation::new(SimConfig::default(), 1);
        let a = sim.add_process(Leaver { fired: 0 });
        let b = sim.add_process(Leaver { fired: 0 });
        sim.run_until(SimTime::from_millis(1), 100); // both timers armed for 50 ms
        sim.post(b, a, ()); // arrives at 6 ms: `a` stops
        sim.run_until(SimTime::from_millis(3), 100);
        sim.post(b, a, ()); // both in flight when `a` stops
        sim.post(b, a, ());
        sim.run_until_quiescent(100);
        assert!(!sim.is_alive(a));
        assert_eq!(sim.stats().delivered, 1);
        assert_eq!(sim.stats().undeliverable, 2);
        assert_eq!(sim.stats().timers_fired, 1, "only b's timer fires");
        assert_eq!(sim.process(b).unwrap().fired, 1);
        assert_eq!(sim.now(), SimTime::from_millis(50));
    }

    #[test]
    fn crash_returns_the_process_once() {
        let (mut sim, a, b) = two_echoes(SimConfig::default());
        assert!(sim.crash(a).is_some());
        assert!(sim.crash(a).is_none());
        assert_eq!(sim.len(), 1);
        assert!(sim.crash(b).is_some());
        assert!(sim.is_empty());
        assert!(sim.crash(Addr::from_raw(2)).is_none(), "never allocated");
    }

    #[test]
    fn post_to_an_unallocated_address_is_undeliverable() {
        let (mut sim, a, _) = two_echoes(SimConfig::default());
        let nowhere = Addr::from_raw(u64::MAX);
        sim.post(a, nowhere, "ping");
        sim.run_until_quiescent(100);
        assert_eq!(sim.stats().sent, 1);
        assert_eq!(sim.stats().undeliverable, 1);
        assert!(!sim.is_alive(nowhere));
        assert!(sim.process(nowhere).is_none());
        assert!(sim.crash(nowhere).is_none());
    }

    #[test]
    fn len_and_addrs_track_crashes_and_stops() {
        let mut sim = Simulation::new(SimConfig::default(), 1);
        let addrs: Vec<Addr> = (0..6).map(|_| sim.add_process(Quitter)).collect();
        sim.crash(addrs[1]);
        sim.crash(addrs[3]);
        sim.post(addrs[0], addrs[4], ());
        sim.run_until_quiescent(100);
        assert_eq!(sim.len(), 3);
        assert_eq!(
            sim.addrs().collect::<Vec<_>>(),
            vec![addrs[0], addrs[2], addrs[5]]
        );
        let late = sim.add_process(Quitter);
        assert_eq!(late, Addr::from_raw(6), "addresses are never reused");
        assert_eq!(sim.addrs().last(), Some(late));
        assert_eq!(sim.len(), 4);
    }

    /// Passes a hop budget round a ring and ticks every 7 ms.
    struct Relay {
        ring: u64,
    }

    impl Process for Relay {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.set_timer(SimTime::from_millis(7), 0);
        }

        fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: Addr, hops: u32) {
            if hops > 0 {
                let next = Addr::from_raw((ctx.addr().as_u64() + 1) % self.ring);
                ctx.send(next, hops - 1);
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _timer: u64) {
            ctx.set_timer(SimTime::from_millis(7), 0);
        }
    }

    #[test]
    fn slab_reuses_slots() {
        const RING: u64 = 64;
        let mut sim = Simulation::new(SimConfig::default(), 5);
        for _ in 0..RING {
            sim.add_process(Relay { ring: RING });
        }
        let mut peak = sim.sched.queue.len();
        for round in 0..200u32 {
            let at = Addr::from_raw(u64::from(round) % RING);
            sim.post(at, at, 17 + round % 5);
            peak = peak.max(sim.sched.queue.len());
            let deadline = SimTime::from_millis(3 * u64::from(round + 1));
            while sim.sched.next_at().is_some_and(|t| t <= deadline) {
                sim.step();
                peak = peak.max(sim.sched.queue.len());
            }
        }
        assert!(
            sim.stats().events > 20 * peak as u64,
            "a long run: {} events, peak {peak}",
            sim.stats().events
        );
        assert!(
            sim.sched.slab.len() <= peak,
            "slab {} outgrew the peak of {peak} pending events",
            sim.sched.slab.len()
        );
        assert_eq!(
            sim.sched.slab.len(),
            sim.sched.queue.len() + sim.sched.free.len()
        );
    }

    #[test]
    fn ties_break_in_insertion_order() {
        // Two messages posted at the same instant with constant latency
        // must deliver in post order.
        struct Recorder {
            log: Vec<u32>,
        }
        impl Process for Recorder {
            type Msg = u32;
            fn on_message(&mut self, _ctx: &mut Context<'_, u32>, _from: Addr, msg: u32) {
                self.log.push(msg);
            }
        }
        let mut sim = Simulation::new(SimConfig::default(), 3);
        let r = sim.add_process(Recorder { log: Vec::new() });
        let s = sim.add_process(Recorder { log: Vec::new() });
        for i in 0..10 {
            sim.post(s, r, i);
        }
        sim.run_until_quiescent(100);
        assert_eq!(sim.process(r).unwrap().log, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn config_validates_loss() {
        let config = SimConfig {
            loss_probability: 1.5,
            ..SimConfig::default()
        };
        let _sim: Simulation<Echo> = Simulation::new(config, 0);
    }
}
