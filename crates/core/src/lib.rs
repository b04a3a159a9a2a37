//! The GeoGrid overlay — a geographic location service network.
//!
//! This crate implements the contribution of *"GeoGrid: A Scalable Location
//! Service Network"* (ICDCS 2007): a CAN-like overlay whose two-dimensional
//! coordinate space maps one-to-one to physical geography. The space is
//! partitioned into rectangular [regions](geogrid_geometry::Region), each
//! owned by one node (basic GeoGrid) or by a primary/secondary pair
//! (**dual peer** GeoGrid); location queries are routed greedily through
//! neighbor links toward the region covering the query point; and eight
//! **dynamic load-balance adaptation** mechanisms re-assign nodes to
//! regions to chase static and moving query hot spots.
//!
//! # Layers
//!
//! * [`topology`] — the authoritative model of a GeoGrid network: regions,
//!   owners, and the neighbor graph, with split/merge/ownership operations
//!   and invariant checking. Experiments and the adaptation engine operate
//!   on this model directly.
//! * [`audit`] — structured invariant auditing: typed
//!   [`Violation`](audit::Violation)s from a full multi-violation sweep
//!   ([`Topology::audit`]), plus the stateful [`TopologyAuditor`](audit::TopologyAuditor)
//!   that also tracks epoch monotonicity.
//! * [`snapshot`] — immutable epoch-published [`TopologySnapshot`](snapshot::TopologySnapshot)s
//!   behind an RCU-style [`SnapshotCell`](snapshot::SnapshotCell): N reader
//!   threads route lock-free against the latest snapshot while split/merge
//!   writers serialize on the mutable [`Topology`].
//! * [`routing`] — geographic forwarding as one walk (greedy, express or
//!   randomized next hops) over topology views (the [`Router`](routing::Router)
//!   facade works on both `&Topology` and `&TopologySnapshot`).
//! * [`join`] / [`builder`] — the paper's bootstrap protocols: basic
//!   (route-and-split) and dual-peer (probe the neighborhood, join the
//!   weakest owner), plus whole-network constructors.
//! * [`rules`] — the §2.3 and §2.4 decisions as pure functions, called by
//!   both the model and the engine: dual-peer placement ([`rules::place`]),
//!   the adaptation trigger ([`rules::overloaded`]) and the donor choice.
//! * [`load`] — workload-index accounting: query load from the hot-spot
//!   cell grid plus routing load from a sampled query mix, normalized by
//!   owner capacity.
//! * [`balance`] — the √2 trigger, the eight adaptation mechanisms
//!   (a)–(h) in the paper's cost order, and the TTL-guided remote search.
//! * [`engine`] — a sans-io per-node protocol state machine (messages in,
//!   effects out) that runs the same overlay on
//!   [`geogrid-simnet`](geogrid_simnet) or a real transport.
//! * [`service`] — the location-service layer: spatial records, location
//!   queries, and standing subscriptions.
//!
//! # Quick start
//!
//! ```
//! use geogrid_core::builder::{NetworkBuilder, Mode};
//! use geogrid_geometry::{Point, Space};
//!
//! // Build a 200-node dual-peer GeoGrid over the paper's 64x64-mile plane.
//! let mut net = NetworkBuilder::new(Space::paper_evaluation(), 42)
//!     .mode(Mode::DualPeer)
//!     .build(200);
//! let topo = net.topology();
//! assert!(topo.region_count() <= 200);
//!
//! // Route a query to the region covering a point.
//! use geogrid_core::routing::{RouteOptions, Router};
//! let from = topo.region_ids().next().unwrap();
//! let mut router = Router::new();
//! let executor = router.route(topo, from, Point::new(12.0, 51.0), &RouteOptions::Greedy).unwrap();
//! assert!(topo.region(executor).unwrap().covers(Point::new(12.0, 51.0), topo.space()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Non-test core code returns a typed error or documents why failure is
// impossible: `.expect("invariant: ...")`, never a bare `.unwrap()`.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod audit;
pub mod balance;
pub mod builder;
pub mod engine;
pub mod error;
pub mod id;
pub mod join;
pub mod load;
pub mod node;
pub mod routing;
pub mod rules;
pub mod service;
pub mod snapshot;
pub mod topology;

pub use error::CoreError;
pub use id::{NodeId, RegionId};
pub use node::NodeInfo;
pub use routing::{RouteOptions, Router};
pub use snapshot::{SnapshotCell, SnapshotReader, TopologySnapshot, TopologyView};
pub use topology::Topology;
