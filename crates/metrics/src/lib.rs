//! Measurement substrate for the GeoGrid reproduction.
//!
//! The GeoGrid paper evaluates its load-balance machinery through summary
//! statistics of the per-node *workload index*: maximum, mean, and standard
//! deviation across all nodes (Figures 5–10). This crate provides those
//! statistics plus the supporting machinery the experiment harness needs:
//!
//! * [`Summary`] — one-pass max/mean/std-dev/percentile summaries,
//! * [`RunningStats`] — Welford online accumulation,
//! * [`gini`] — the imbalance measure,
//! * [`table`] — small CSV/console table writer shared by every experiment.
//!
//! # Examples
//!
//! ```
//! use geogrid_metrics::Summary;
//!
//! let s = Summary::from_values([1.0, 2.0, 3.0, 4.0]);
//! assert_eq!(s.max(), 4.0);
//! assert!((s.mean() - 2.5).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod imbalance;
mod running;
mod summary;
pub mod table;

pub use imbalance::gini;
pub use running::RunningStats;
pub use summary::Summary;
