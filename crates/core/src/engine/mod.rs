//! The sans-io per-node protocol engine.
//!
//! [`NodeEngine`] is the GeoGrid middleware one proxy node runs: a pure
//! state machine that consumes [`Input`]s (protocol messages, timer ticks,
//! local user requests) and emits [`Effect`]s (messages to send, events for
//! the local user). It owns no sockets and no clock, so the identical code
//! runs under the deterministic simulator
//! ([`crate::engine::sim`]) and under the tokio transport
//! (`geogrid-transport`).
//!
//! The engine implements the distributed version of what
//! [`Topology`](crate::Topology) models centrally: geographic join with
//! region split, dual-peer placement, greedy query routing with fan-out,
//! publish/subscribe delivery, primary→secondary replication (one
//! stamped [`Message::Replicate`] per publish, plus a periodic
//! [`Message::SyncState`] snapshot), heartbeats, and fail-over promotion.
//!
//! It has one of each moving part. Every routed request — join, query,
//! publication, subscription — takes the same forwarding step, which
//! picks the next hop with the central model's `(rectangle distance,
//! center distance, id)` key. Every region split, Basic or dual-peer, is
//! the same split. Every ownership change is one message,
//! [`Message::Install`], seated by one handler that holds the fork-free
//! hand-off rules (DESIGN.md §3). Each owner keeps one neighbor table,
//! whose rows carry the entry, when it was last heard from, and its last
//! reported workload index.

pub mod messages;
mod node;
pub mod sim;

pub use messages::{Message, NeighborInfo};
pub use node::{ClientEvent, Effect, EngineConfig, EngineMode, Input, NodeEngine, OwnerView};
