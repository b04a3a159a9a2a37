//! # GeoGrid — a scalable geographic location service overlay
//!
//! A from-scratch Rust implementation of *"GeoGrid: A Scalable Location
//! Service Network"* (Zhang, Zhang, Liu — ICDCS 2007): a CAN-like overlay
//! whose 2-D coordinate space maps one-to-one to physical geography,
//! partitioned into rectangular regions owned by proxy nodes, with greedy
//! geographic routing, **dual-peer** region ownership for fail-over, and
//! eight **dynamic load-balance adaptation** mechanisms that chase static
//! and moving query hot spots.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`geometry`] — points, regions, split/merge, the neighbor predicate;
//! * [`workload`] — hot spots, capacity profiles, placements, queries;
//! * [`simnet`] — the deterministic discrete-event simulator;
//! * [`core`] — topology, routing, join protocols, workload index,
//!   adaptation, the sans-io engine, and the location-service layer;
//! * [`transport`] — TCP node runtime + wire codec + bootstrap server;
//! * [`metrics`] — the measurement substrate.
//!
//! ## Quick start
//!
//! ```
//! use geogrid::core::builder::{Mode, NetworkBuilder};
//! use geogrid::core::routing::{RouteOptions, Router};
//! use geogrid::geometry::{Point, Space};
//!
//! // A 100-node dual-peer GeoGrid over the paper's 64x64-mile plane.
//! let net = NetworkBuilder::new(Space::paper_evaluation(), 7)
//!     .mode(Mode::DualPeer)
//!     .build(100);
//! let topo = net.topology();
//!
//! // Route a location query toward its target coordinate.
//! let entry = topo.first_region()?;
//! let mut router = Router::new();
//! router.route(topo, entry, Point::new(12.0, 51.0), &RouteOptions::greedy())?;
//! println!("{} hops to the executor region", router.hop_count());
//! # Ok::<(), geogrid::core::CoreError>(())
//! ```
//!
//! See `examples/` for runnable scenarios (a metro traffic monitor, the
//! paper's stadium-parking hot spot, a live TCP deployment) and
//! `crates/bench` for the harness regenerating every figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use geogrid_core as core;
pub use geogrid_geometry as geometry;
pub use geogrid_metrics as metrics;
pub use geogrid_simnet as simnet;
pub use geogrid_transport as transport;
pub use geogrid_workload as workload;
