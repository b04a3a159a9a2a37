//! Dynamic load-balance adaptation (§2.4 of the paper).
//!
//! The basic idea is "to break the geographical association between an
//! owner node and the region it owns, and dynamically adjust the node
//! assignments in a geographical vicinity according to the workload
//! distribution".
//!
//! A node starts adapting only when its workload index exceeds **√2 times
//! the lowest index among its neighbors** (the trigger,
//! [`rules::overloaded`](crate::rules::overloaded) with
//! [`rules::TRIGGER_RATIO`](crate::rules::TRIGGER_RATIO) by default).
//! It then tries the eight mechanisms (a)–(h) in the paper's order of
//! increasing cost — local operations before remote ones, secondary moves
//! before primary moves, split/merge last among local ones:
//!
//! | | mechanism | precondition |
//! |---|---|---|
//! | (a) | steal a neighbor's secondary | overloaded region is half-full |
//! | (b) | switch primary owners with a neighbor | — |
//! | (c) | merge with a neighbor | regions re-form a rectangle |
//! | (d) | split the region between its dual peers | full, peers comparable |
//! | (e) | switch primary with a neighbor's secondary | full |
//! | (f) | steal a **remote** secondary (TTL search) | half-full |
//! | (g) | switch primary with a remote secondary | full |
//! | (h) | switch primary with a remote primary | full |

mod engine;
mod mechanisms;
mod plan;
mod search;

pub use engine::{AdaptationEngine, RoundStats};
pub use mechanisms::plan_for_region;
pub use plan::{AdaptationPlan, Mechanism};
pub use search::ttl_search;

/// Tuning knobs for the adaptation engine.
#[derive(Debug, Clone, PartialEq)]
pub struct BalanceConfig {
    /// A region adapts when its index exceeds `trigger_ratio ×` the lowest
    /// neighbor index. The paper uses √2.
    pub trigger_ratio: f64,
    /// TTL of the guided search for remote candidates (mechanisms f–h).
    pub search_ttl: u32,
    /// Disables the remote mechanisms (f)–(h) — the local-only ablation.
    pub local_only: bool,
}

impl Default for BalanceConfig {
    fn default() -> Self {
        Self {
            trigger_ratio: crate::rules::TRIGGER_RATIO,
            search_ttl: 3,
            local_only: false,
        }
    }
}
