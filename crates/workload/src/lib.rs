//! Workload models for the GeoGrid evaluation.
//!
//! This crate implements the synthetic workload of the paper's §3:
//!
//! * [`capacity`] — the skewed node-capacity distribution based on the
//!   Saroiu et al. Gnutella measurement study (reference \[12\] of the
//!   paper),
//! * [`hotspot`] — circular query hot spots with the paper's linear decay
//!   `1 − d/r`, random radius in \[0.1, 10\] miles, and epoch-based random
//!   migration with step size uniform in `(0, 2r)`,
//! * [`grid`] — the discretized workload **cell** grid over the plane (the
//!   paper assigns workload to cells and sums them per region),
//! * [`placement`] — uniform node placement over the plane,
//! * [`query`] — location-query generators whose targets follow the
//!   hot-spot field, used to measure routing workload.
//!
//! Everything is driven by a caller-supplied [`rand::Rng`], so experiments
//! are reproducible from a seed.
//!
//! # Examples
//!
//! ```
//! use geogrid_geometry::Space;
//! use geogrid_workload::{hotspot::HotSpotField, grid::WorkloadGrid};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//! let space = Space::paper_evaluation();
//! let field = HotSpotField::random(&mut rng, space, 10);
//! let grid = WorkloadGrid::from_field(space, 0.5, &field);
//! assert!(grid.total() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
pub mod grid;
pub mod hotspot;
pub mod placement;
pub mod query;

pub use capacity::CapacityProfile;
pub use grid::WorkloadGrid;
pub use hotspot::{HotSpot, HotSpotField};
pub use query::QueryGenerator;
