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
//! region split, dual-peer placement, express query routing with a greedy
//! last mile and fan-out, publish/subscribe delivery, primary→secondary
//! replication (one stamped [`Message::Replicate`] per publish, plus a
//! periodic [`Message::SyncState`] snapshot), heartbeats, and fail-over
//! promotion.
//!
//! It has one of each moving part. Every routed request — join, query,
//! publication, subscription, finger lookup — takes the same forwarding
//! step. Far from its target, the step follows a cached finger when the
//! model's express rule ([`rules::express`](crate::rules::express))
//! allows it; otherwise, and always in the near field, it picks the
//! neighbor with the central model's `(rectangle distance, center
//! distance, id)` key. Fingers are hints, learned lazily: an owner routes
//! a [`Message::Locate`] to the finger point a route wants and keeps the
//! [`Message::OwnerIs`] answer while its node is heard from (past a TTL
//! the finger is re-confirmed before it is taken again), so the engine
//! still imports nothing from the model and a stale finger can cost hops
//! but never changes who executes a request. Every region split, Basic or dual-peer, is
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
