//! A deterministic discrete-event network simulator.
//!
//! The GeoGrid paper evaluates its overlay on simulated networks of up to
//! 16,000 proxy nodes. This crate is that substrate: a single-threaded,
//! seeded, discrete-event simulator in which *processes* (overlay nodes)
//! exchange messages with configurable latency and loss, set timers, and
//! can crash or leave.
//!
//! Design notes:
//!
//! * **Deterministic.** All randomness flows from one seeded RNG; two runs
//!   with the same seed replay the identical event order (ties broken by
//!   insertion sequence). The RNG is drawn in call order: a send draws its
//!   loss and latency when it is made ([`Context::send`] or
//!   [`Simulation::post`]), interleaved with any draws the handler makes
//!   through [`Context::rng`].
//! * **Dense process table.** Addresses are allocated sequentially and never
//!   reused, so processes live in a vector indexed by address (`None` once
//!   crashed or stopped); an event looks its process up by index and the
//!   handler runs on it in place.
//! * **Small keys, payloads in a slab.** The binary heap orders
//!   `(time, sequence, slot)` keys of 24 bytes; each event's payload (a
//!   message, a timer id) waits in a slab slot, and popped slots are reused,
//!   so the heap never sifts a whole message.
//! * **Direct enqueue.** A handler's [`Context`] borrows the scheduler:
//!   [`Context::send`] and [`Context::set_timer`] push into the queue at
//!   once, and [`Context::stop`] removes the process when the handler
//!   returns. Messages are moved once, from the sender into the slab.
//! * **Sans-io friendly.** The protocol logic in `geogrid-core` is written
//!   as state machines; [`Process`] is the adapter that lets the simulator
//!   (or any other driver) own scheduling while protocol code owns
//!   decisions.
//!
//! # Examples
//!
//! ```
//! use geogrid_simnet::{Addr, Context, Process, SimConfig, SimTime, Simulation};
//!
//! struct Echo;
//! impl Process for Echo {
//!     type Msg = String;
//!     fn on_message(&mut self, ctx: &mut Context<'_, String>, from: Addr, msg: String) {
//!         if msg == "ping" {
//!             ctx.send(from, "pong".to_string());
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(SimConfig::default(), 42);
//! let a = sim.add_process(Echo);
//! let b = sim.add_process(Echo);
//! sim.post(a, b, "ping".to_string());
//! sim.run_until_quiescent(10_000);
//! assert_eq!(sim.stats().delivered, 2); // ping + pong
//! # let _ = SimTime::ZERO;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod latency;
mod sim;
mod stats;
mod time;

pub use latency::LatencyModel;
pub use sim::{Addr, Context, Process, SimConfig, Simulation};
pub use stats::SimStats;
pub use time::SimTime;
