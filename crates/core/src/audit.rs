//! Structured invariant auditing for [`Topology`](crate::Topology).
//!
//! [`Topology::audit`](crate::Topology::audit) walks every structural
//! invariant of the network model and returns **all** violations as typed
//! [`Violation`] values instead of bailing on the first broken one — so a
//! failing property test shows the complete damage picture, and callers
//! can assert on [`ViolationKind`]s rather than matching error-message
//! substrings.
//!
//! Most rules are per-slot and run at two scopes: the full audit runs them
//! over every slot and adds a few global totals, and debug builds run them
//! after **every** mutation over just the slots that mutation touched.
//!
//! [`TopologyAuditor`] adds the one check that is inherently stateful —
//! epoch monotonicity across a sequence of observations — and is the
//! driver used by the model-explorer property tests
//! (`crates/core/tests/topology_audit.rs`).
//!
//! The invariant catalog, and which rule or check enforces each entry,
//! lives in DESIGN.md §7.

use std::fmt;

use crate::{NodeId, RegionId, Topology};

/// The typed identity of one broken invariant.
///
/// Matching on kinds (not message text) is the supported way to assert
/// audit outcomes in tests; [`Violation::detail`] carries the free-form
/// specifics for humans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ViolationKind {
    /// Some part of the space is covered by no region: a side of a live
    /// region is not fully covered by the edges it shares with the regions
    /// touching it and by the space boundary.
    TessellationGap,
    /// Two live regions overlap with positive area.
    TessellationOverlap(RegionId, RegionId),
    /// A neighbor link is wrong: `from` lists `to` but they do not touch
    /// edges, the link is missing in one direction, the listed id is dead,
    /// or the list holds a duplicate.
    AsymmetricNeighborLink(RegionId, RegionId),
    /// The grid spatial index disagrees with a live region's geometry:
    /// a cell in the region's span is missing the region, or a cell lists
    /// a stale/dead/duplicate entry.
    StaleGridBucket(RegionId),
    /// The grid index's incrementally-maintained entry counter disagrees
    /// with the actual number of bucket entries — the insert/remove
    /// bookkeeping itself is broken.
    GridCounterDrift {
        /// What the incremental counter claims.
        counted: usize,
        /// What summing every bucket length finds.
        actual: usize,
    },
    /// The flat rect/center mirror (`slot_rect`/`slot_center`) disagrees
    /// with the region's authoritative rectangle.
    SlotMirrorDrift(RegionId),
    /// The geometry epoch moved backwards between two observations of the
    /// same topology instance (only [`TopologyAuditor`] can detect this).
    EpochRegression {
        /// Epoch seen at the earlier observation.
        last_seen: u64,
        /// Smaller epoch seen now.
        observed: u64,
    },
    /// A *registered* node and the region slot disagree about ownership:
    /// the slot names an owner whose assignment points elsewhere, the
    /// primary and secondary are the same node, or an assignment points at
    /// a dead or disagreeing slot. Always a bug.
    DualPeerMismatch(NodeId, RegionId),
    /// An express-link finger of a live region points at a dead slot
    /// (finger maintenance missed a merge's `free_slot`). The `u8` is the
    /// finger index (`scale * FINGER_DIRS + dir`).
    DanglingFinger(RegionId, u8),
    /// A stored finger disagrees with a fresh recomputation of the finger
    /// selection rule against the current geometry — it points at a live
    /// region, but not the one covering the scale point (a geometry
    /// rewrite moved rectangles without retargeting the finger). The `u8`
    /// is the finger index.
    MisScaledFinger(RegionId, u8),
    /// The forward finger mirror and the reverse in-link index disagree: a
    /// live finger lacks its reverse entry, or a reverse entry repeats or
    /// names a source that is dead or no longer points there.
    AsymmetricFingerLink(RegionId, RegionId),
    /// A region's owner is not in the node table at all. This is the one
    /// *legal transient*: [`Topology::remove_node`] leaves a sole-owned
    /// region orphaned for the caller to repair (see
    /// [`repair_orphan`](crate::join::repair_orphan)), so debug hooks
    /// tolerate it while [`Topology::validate`] still reports it.
    OrphanedOwner(NodeId, RegionId),
    /// The published [`TopologySnapshot`](crate::snapshot::TopologySnapshot)
    /// identifies a different `(instance, epoch)` than the topology it was
    /// published from: a geometry rewrite ran without republishing (a
    /// rewrite site skipped `publish_snapshot`, or the epoch was written
    /// outside `bump_epoch`), or a snapshot from another
    /// instance was installed into this topology's cell.
    StaleSnapshot {
        /// Epoch recorded in the published snapshot.
        published: u64,
        /// The topology's current epoch.
        current: u64,
    },
    /// The published snapshot carries the right epoch but its *content*
    /// (liveness, geometry mirror, finger blocks, adjacency, or grid
    /// index) disagrees with a fresh recomputation from the authoritative
    /// structures — the snapshot builder dropped or corrupted state.
    SnapshotDrift(RegionId),
}

impl ViolationKind {
    /// Short stable label (used in Display output and DESIGN.md §7).
    pub fn label(&self) -> &'static str {
        match self {
            ViolationKind::TessellationGap => "tessellation-gap",
            ViolationKind::TessellationOverlap(..) => "tessellation-overlap",
            ViolationKind::AsymmetricNeighborLink(..) => "asymmetric-neighbor-link",
            ViolationKind::StaleGridBucket(..) => "stale-grid-bucket",
            ViolationKind::GridCounterDrift { .. } => "grid-counter-drift",
            ViolationKind::SlotMirrorDrift(..) => "slot-mirror-drift",
            ViolationKind::EpochRegression { .. } => "epoch-regression",
            ViolationKind::DanglingFinger(..) => "dangling-finger",
            ViolationKind::MisScaledFinger(..) => "mis-scaled-finger",
            ViolationKind::AsymmetricFingerLink(..) => "asymmetric-finger-link",
            ViolationKind::DualPeerMismatch(..) => "dual-peer-mismatch",
            ViolationKind::OrphanedOwner(..) => "orphaned-owner",
            ViolationKind::StaleSnapshot { .. } => "stale-snapshot",
            ViolationKind::SnapshotDrift(..) => "snapshot-drift",
        }
    }
}

/// One broken invariant: its typed kind plus human-readable specifics.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// What is broken (assert on this in tests).
    pub kind: ViolationKind,
    /// Where/how, for humans debugging a failure.
    pub detail: String,
}

impl Violation {
    pub(crate) fn new(kind: ViolationKind, detail: impl Into<String>) -> Self {
        Self {
            kind,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.label(), self.detail)
    }
}

/// Stateful audit driver: structural audit plus epoch monotonicity.
///
/// [`Topology::audit`] is stateless by design (it can be called on any
/// snapshot), so it cannot see the epoch move backwards. The auditor
/// remembers the last `(instance_id, epoch)` pair it observed and reports
/// [`ViolationKind::EpochRegression`] when the same instance shows a
/// smaller epoch later. Cloned topologies get fresh instance ids, so an
/// auditor can observe a clone without a false regression.
///
/// ```
/// use geogrid_core::audit::TopologyAuditor;
/// use geogrid_core::Topology;
/// use geogrid_geometry::{Point, Space};
///
/// let mut t = Topology::new(Space::paper_evaluation());
/// let n = t.register_node(Point::new(1.0, 1.0), 10.0);
/// t.bootstrap(n).unwrap();
///
/// let mut auditor = TopologyAuditor::new();
/// assert!(auditor.observe(&t).is_empty());
/// ```
#[derive(Debug, Default)]
pub struct TopologyAuditor {
    last: Option<(u64, u64)>,
}

impl TopologyAuditor {
    /// A fresh auditor with no observation history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the full structural audit on `topo` and additionally checks
    /// that its epoch has not regressed since this auditor last observed
    /// the same instance. Returns every violation found.
    pub fn observe(&mut self, topo: &Topology) -> Vec<Violation> {
        let mut violations = topo.audit();
        let current = (topo.instance_id(), topo.epoch());
        if let Some((id, last_epoch)) = self.last {
            if id == current.0 && current.1 < last_epoch {
                violations.push(Violation::new(
                    ViolationKind::EpochRegression {
                        last_seen: last_epoch,
                        observed: current.1,
                    },
                    format!(
                        "instance {id} went from epoch {last_epoch} back to {}",
                        current.1
                    ),
                ));
            }
        }
        self.last = Some(current);
        violations
    }
}
