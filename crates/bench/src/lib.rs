//! Experiment harness for the GeoGrid reproduction.
//!
//! One module per paper artifact; each experiment prints the rows/series
//! the paper reports and writes the same table as CSV under the chosen
//! output directory. The `repro` binary dispatches to them:
//!
//! ```text
//! cargo run -p geogrid-bench --release --bin repro -- all
//! cargo run -p geogrid-bench --release --bin repro -- fig5 --trials 100
//! ```
//!
//! | experiment | paper artifact |
//! |---|---|
//! | [`fig23`] | Figures 2 & 3 — region size / load distributions |
//! | [`fig56`] | Figures 5 & 6 — std-dev and mean of workload index vs N |
//! | [`fig78`] | Figures 7 & 8 — convergence by adaptation round |
//! | [`fig910`] | Figures 9 & 10 — convergence by adaptation count |
//! | [`routing_exp`] | §2.2 — O(2√N) greedy-routing hop counts |
//! | [`mech`] | Figure 4 — the eight adaptation vignettes |
//! | [`ablation`] | design-choice ablations (trigger, TTL, α, variants) |
//! | [`failover`] | §2.3 claim — dual peer's fault resilience, quantified |
//!
//! One further binary supports protocol work: `simulate` runs a full
//! message-level deployment (joins, heartbeats, adaptation, optional
//! crash storm) and reports traffic statistics, coverage, and any
//! ownership forks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod common;
pub mod failover;
pub mod fig23;
pub mod fig56;
pub mod fig78;
pub mod fig910;
pub mod mech;
pub mod par;
pub mod routing_exp;

pub use common::ExperimentConfig;
