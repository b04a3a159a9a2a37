//! Hybrid logical clocks for last-write-wins conflict resolution.
//!
//! Every record in a [`RegionStore`](crate::service::RegionStore) carries
//! an [`Hlc`] stamp assigned at publish time. Stamps combine the caller's
//! physical tick (the simulated clock the engine already threads through
//! every operation), a logical counter that breaks ties when many writes
//! share one tick, and the writer's node id as the final tie-break — so
//! any two stamps ever minted by the overlay are totally ordered, and
//! replica hand-off during split / merge / fail-over resolves duplicate
//! record ids deterministically: the larger stamp wins.
//!
//! The generator ([`HlcClock`]) upholds the two HLC invariants:
//!
//! 1. **Local monotonicity** — [`HlcClock::tick`] returns strictly
//!    increasing stamps even if the supplied physical tick stalls or runs
//!    backwards (the logical counter absorbs the difference).
//! 2. **Causality across hand-off** — [`HlcClock::observe`] folds a
//!    remote stamp in, so a store that just absorbed replicated records
//!    never mints a stamp that loses to a record it already holds.

use std::fmt;

/// A hybrid-logical-clock stamp: `(physical, logical, node)`, compared
/// lexicographically.
///
/// # Examples
///
/// ```
/// use geogrid_core::service::Hlc;
///
/// let a = Hlc::new(5, 0, 1);
/// let b = Hlc::new(5, 1, 0);
/// assert!(a < b); // logical counter outranks node id
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Hlc {
    physical: u64,
    logical: u32,
    node: u64,
}

impl Hlc {
    /// Creates a stamp from its raw parts.
    pub fn new(physical: u64, logical: u32, node: u64) -> Self {
        Self {
            physical,
            logical,
            node,
        }
    }

    /// The physical component (the publish-time tick).
    pub fn physical(&self) -> u64 {
        self.physical
    }

    /// The logical counter (orders writes within one tick).
    pub fn logical(&self) -> u32 {
        self.logical
    }

    /// The minting node's id (final tie-break).
    pub fn node(&self) -> u64 {
        self.node
    }
}

impl fmt::Display for Hlc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hlc({}.{}@n{})", self.physical, self.logical, self.node)
    }
}

/// The stamp generator a [`RegionStore`](crate::service::RegionStore)
/// owns: remembers the last stamp handed out (or observed) and the local
/// node id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HlcClock {
    last_physical: u64,
    last_logical: u32,
    node: u64,
}

impl HlcClock {
    /// A clock minting stamps for `node`.
    pub fn new(node: u64) -> Self {
        Self {
            last_physical: 0,
            last_logical: 0,
            node,
        }
    }

    /// The node id stamped onto minted stamps.
    pub fn node(&self) -> u64 {
        self.node
    }

    /// Re-homes the clock onto a new node id (region hand-off: the store
    /// now lives on a different owner). Past stamps keep their original
    /// minting node.
    pub fn set_node(&mut self, node: u64) {
        self.node = node;
    }

    /// Mints the next stamp at physical tick `now`. Strictly greater than
    /// every stamp this clock has minted or observed, even when `now`
    /// repeats or regresses.
    pub fn tick(&mut self, now: u64) -> Hlc {
        if now > self.last_physical {
            self.last_physical = now;
            self.last_logical = 0;
        } else {
            self.last_logical += 1;
        }
        Hlc::new(self.last_physical, self.last_logical, self.node)
    }

    /// Whether `stamp` is at or below this clock's high-water mark: minted
    /// or observed here, or older than something that was.
    pub fn has_seen(&self, stamp: Hlc) -> bool {
        (stamp.physical, stamp.logical) <= (self.last_physical, self.last_logical)
    }

    /// Folds a remote stamp into the clock (replica hand-off), so future
    /// [`Self::tick`]s order after it.
    pub fn observe(&mut self, remote: Hlc) {
        if remote.physical > self.last_physical
            || (remote.physical == self.last_physical && remote.logical > self.last_logical)
        {
            self.last_physical = remote.physical;
            self.last_logical = remote.logical;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_order_lexicographically() {
        assert!(Hlc::new(1, 9, 9) < Hlc::new(2, 0, 0));
        assert!(Hlc::new(2, 0, 9) < Hlc::new(2, 1, 0));
        assert!(Hlc::new(2, 1, 0) < Hlc::new(2, 1, 1));
    }

    #[test]
    fn tick_is_strictly_monotonic_under_stalled_and_reversed_time() {
        let mut clock = HlcClock::new(7);
        let mut prev = clock.tick(5);
        for now in [5, 5, 3, 0, 6, 6, 2] {
            let next = clock.tick(now);
            assert!(next > prev, "{next} should exceed {prev}");
            assert_eq!(next.node(), 7);
            prev = next;
        }
    }

    #[test]
    fn observe_pulls_the_clock_forward_only() {
        let mut clock = HlcClock::new(1);
        clock.observe(Hlc::new(10, 3, 9));
        assert!(clock.tick(2) > Hlc::new(10, 3, 9));
        // A stale remote stamp must not rewind the clock.
        let high = clock.tick(20);
        clock.observe(Hlc::new(4, 0, 9));
        assert!(clock.tick(0) > high);
    }

    #[test]
    fn has_seen_is_the_high_water_mark() {
        let mut clock = HlcClock::new(1);
        let minted = clock.tick(5);
        assert!(clock.has_seen(minted));
        assert!(clock.has_seen(Hlc::new(5, 0, 9))); // node id is no newer
        assert!(!clock.has_seen(Hlc::new(5, 1, 0)));
        clock.observe(Hlc::new(8, 2, 3));
        assert!(clock.has_seen(Hlc::new(8, 2, 3)));
        assert!(!clock.has_seen(Hlc::new(9, 0, 0)));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(format!("{}", Hlc::new(3, 1, 4)), "hlc(3.1@n4)");
    }
}
