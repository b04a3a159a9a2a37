//! Geographic 2-D geometry for the GeoGrid overlay.
//!
//! GeoGrid partitions a two-dimensional coordinate space — in one-to-one
//! correspondence with physical geography — into rectangular regions, one
//! per owner node. This crate implements that coordinate space exactly as
//! the paper defines it:
//!
//! * [`Point`] — a longitude/latitude coordinate (the paper's `o(x, y)`),
//! * [`Region`] — the quadruple `<x, y, width, height>` with the paper's
//!   half-open containment test
//!   `(r.x < o.x ≤ r.x + w) ∧ (r.y < o.y ≤ r.y + h)`,
//! * region **split** (halving, latitude-first alternating axis) and
//!   **merge** (two halves re-forming their parent rectangle),
//! * the **neighbor** predicate — two regions are neighbors when their
//!   intersection is a line segment (shared edge of positive length, corner
//!   contact does not count),
//! * [`Circle`] — circular query/hot-spot areas,
//! * [`Space`] — the global bounded plane (64 × 64 miles in the paper's
//!   evaluation), and
//! * [`UniformGrid`] / [`GridBuckets`] — the uniform cell grid behind the
//!   topology's point-location index and the stores' spatial sub-index.
//!
//! # Examples
//!
//! ```
//! use geogrid_geometry::{Point, Region, SplitAxis};
//!
//! let root = Region::new(0.0, 0.0, 64.0, 64.0);
//! let (south, north) = root.split(SplitAxis::Latitude);
//! assert!(south.touches_edge(&north));
//! assert_eq!(south.merge(&north), Some(root));
//! assert!(north.contains(Point::new(10.0, 48.0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circle;
mod grid;
mod point;
mod region;
mod space;

pub use circle::Circle;
pub use grid::{GridBuckets, UniformGrid};
pub use point::Point;
pub use region::{Region, SplitAxis, EDGE_EPS, MIN_SPLIT_EXTENT};
pub use space::Space;
