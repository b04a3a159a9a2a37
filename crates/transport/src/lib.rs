//! Live deployment substrate for GeoGrid.
//!
//! The paper's proxies are end systems exchanging GeoGrid middleware
//! messages over TCP/IP. This crate provides that deployment path for the
//! sans-io engine in `geogrid-core`:
//!
//! * [`wire`] — a hand-rolled, versioned binary codec for every protocol
//!   message (no serialization framework: the format is part of the
//!   protocol and kept explicit; one table row per message kind),
//! * [`frame`] — length-prefixed framing over tokio `AsyncRead`/`AsyncWrite`
//!   and, for the runtime's reader threads, blocking `std::io::Read`,
//! * [`runtime`] — [`runtime::NodeRuntime`]: owns one
//!   [`NodeEngine`](geogrid_core::engine::NodeEngine), a TCP listener,
//!   and the `NodeId → SocketAddr` address book learned from message
//!   envelopes; one actor thread per node runs the engine and writes its
//!   own nonblocking connection per peer, and each accepted connection
//!   has its own blocking reader thread,
//! * [`bootstrap`] — the bootstrap server §2.1 assumes: a directory nodes
//!   register with and fetch entry points from.
//!
//! The engine logic is identical to what runs under the simulator — this
//! crate only moves bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod frame;
pub mod runtime;
pub mod wire;

pub use bootstrap::{load_host_cache, save_host_cache, BootstrapClient, BootstrapServer};
pub use runtime::{NodeRuntime, RuntimeConfig, RuntimeEvent, RuntimeHandle};
pub use wire::{Envelope, WireError};
