//! Epoch-published immutable topology snapshots: lock-free concurrent
//! routing behind a redesigned read API.
//!
//! [`Topology`](crate::Topology) is a single-writer structure — every
//! split, merge, and ownership move takes `&mut`. The routing engines,
//! however, only ever *read* geometry, and two invariants, held by rustc
//! privacy and the runtime auditor, make those reads snapshottable:
//!
//! * Region geometry (rectangles, adjacency, the grid index, the finger
//!   blocks) is rewritten at exactly three sites:
//!   [`Topology::bootstrap`](crate::Topology::bootstrap),
//!   [`Topology::split_region`](crate::Topology::split_region), and
//!   [`Topology::merge_regions`](crate::Topology::merge_regions). The
//!   rewrite primitives are private to `topology.rs`.
//! * The geometry epoch is written only by the private `bump_epoch`,
//!   called at each of those sites; the runtime auditor reports any
//!   other write as `stale-snapshot` or `epoch-regression`.
//!
//! So "the geometry at epoch E" is a well-defined immutable value, and the
//! three sites are the only places it can change. This module captures
//! that value as a [`TopologySnapshot`] and publishes it through a
//! [`SnapshotCell`] — an RCU-style cell the three sites atomically swap a
//! fresh `Arc` into (nothing outside this crate can publish). Reader
//! threads hold a [`SnapshotReader`] whose steady-state cost per query is
//! **one atomic load**: the cell's version counter is checked, and only
//! when it changed does the reader touch the lock to fetch the new `Arc`.
//! Readers route against their snapshot with a per-thread
//! [`RouteScratch`](crate::routing::RouteScratch) — no locks, no shared
//! mutable state — while writers serialize on the `&mut Topology` path.
//!
//! Reclamation is `Arc` reference counting: a superseded snapshot lives
//! exactly as long as the slowest reader still routing on it, then frees.
//! There is no grace period to manage and no epoch-based deferred list —
//! the cost is one allocation per publication, which is already O(N).
//!
//! [`TopologyView`] is the read API the routing engines are written
//! against: both `Topology` (direct, single-threaded) and
//! `TopologySnapshot` (published, many-threaded) implement it, so one
//! monomorphized engine serves both paths.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use geogrid_geometry::{Point, Region, Space, UniformGrid};

use crate::topology::{FingerBlock, SlotGeo, GRID_DIM};
use crate::{CoreError, RegionId};

/// The read-only geometry interface the routing engines are written
/// against, implemented by both [`Topology`](crate::Topology) (the live
/// single-writer structure) and [`TopologySnapshot`] (the immutable
/// published copy).
///
/// Slot indexes follow the [`RegionId::index`] contract of the topology's
/// flat mirrors: only live slots may be dereferenced through
/// [`Self::slot_rect`] / [`Self::slot_center`] / [`Self::slot_fingers`] /
/// [`Self::neighbors`]; [`Self::is_live`] is total over `usize`.
pub trait TopologyView {
    /// The space this view partitions.
    fn space(&self) -> Space;

    /// Process-unique identity of the underlying topology instance (see
    /// [`Topology::instance_id`](crate::Topology::instance_id)). A
    /// snapshot inherits its source's id, so `(instance_id, epoch)`
    /// names one immutable geometry.
    fn instance_id(&self) -> u64;

    /// The geometry epoch this view describes (see
    /// [`Topology::epoch`](crate::Topology::epoch)).
    fn epoch(&self) -> u64;

    /// Number of live regions.
    fn region_count(&self) -> usize;

    /// Exclusive upper bound on live slot indexes (the slot-table length).
    fn slot_count(&self) -> usize;

    /// Whether `slot` currently holds a live region. Total: out-of-range
    /// slots are simply not live.
    fn is_live(&self, slot: usize) -> bool;

    /// The rectangle of the live region in `slot`.
    fn slot_rect(&self, slot: usize) -> Region;

    /// The center of the live region in `slot`.
    fn slot_center(&self, slot: usize) -> Point;

    /// The express-link finger block of the live region in `slot`.
    fn slot_fingers(&self, slot: usize) -> &FingerBlock;

    /// Ids of the regions edge-adjacent to the live region in `slot`.
    fn neighbors(&self, slot: usize) -> &[RegionId];

    /// The smallest finger distance scale (see
    /// [`rules::finger_base`](crate::rules::finger_base)).
    fn finger_base(&self) -> f64;

    /// The region covering `p`, via the spatial index.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfSpace`] if `p` is outside the space, or
    /// [`CoreError::EmptyNetwork`] if there are no regions.
    fn locate(&self, p: Point) -> Result<RegionId, CoreError>;

    /// Whether the live region in `slot` covers `p`, honoring the
    /// space-boundary adjustment (see [`Space::region_covers`]).
    #[inline]
    fn covers(&self, slot: usize, p: Point) -> bool {
        self.space().region_covers(&self.slot_rect(slot), p)
    }
}

/// An immutable copy of one geometry epoch of a topology: the slot
/// rectangle/center mirror, the express-finger blocks, edge adjacency,
/// and the uniform-grid spatial index, flattened into dense arrays.
///
/// Built by [`Topology::snapshot`](crate::Topology::snapshot) and
/// published through a [`SnapshotCell`]; never mutated after
/// construction, so any number of threads may route against one
/// concurrently with zero synchronization. Ownership data (primaries,
/// secondaries) is deliberately absent — routing never reads it, and
/// leaving it out keeps ownership churn (fail-over, swaps) from forcing
/// republication.
#[derive(Debug, Clone)]
pub struct TopologySnapshot {
    pub(crate) space: Space,
    pub(crate) instance_id: u64,
    pub(crate) epoch: u64,
    pub(crate) region_count: usize,
    /// Rect + center per slot, same layout as the live mirror (entries of
    /// dead slots are arbitrary; consult `live` first).
    pub(crate) slot_geo: Vec<SlotGeo>,
    /// Finger block per slot (same staleness contract as `slot_geo`).
    pub(crate) slot_fingers: Vec<FingerBlock>,
    /// Liveness per slot.
    pub(crate) live: Vec<bool>,
    /// CSR offsets into `neighbor_ids`, length `slot_count + 1`.
    pub(crate) neighbor_off: Vec<u32>,
    /// Concatenated neighbor lists of every slot (dead slots span zero).
    pub(crate) neighbor_ids: Vec<RegionId>,
    /// The live index's cell geometry.
    pub(crate) grid: UniformGrid<GRID_DIM>,
    /// CSR offsets into `cell_ids`, length `GRID_DIM² + 1`.
    pub(crate) cell_off: Vec<u32>,
    /// Concatenated grid-bucket candidate lists, row-major cell order.
    pub(crate) cell_ids: Vec<RegionId>,
    pub(crate) finger_base: f64,
}

impl TopologySnapshot {
    /// The geometry epoch this snapshot captured.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The instance id of the topology this snapshot was taken from.
    pub fn instance_id(&self) -> u64 {
        self.instance_id
    }

    /// Number of live regions in the snapshot.
    pub fn region_count(&self) -> usize {
        self.region_count
    }

    /// Exclusive upper bound on live slot indexes.
    pub fn slot_count(&self) -> usize {
        self.live.len()
    }

    /// The space the snapshotted topology partitions.
    pub fn space(&self) -> Space {
        self.space
    }

    /// Iterator over live region ids, ascending.
    pub fn region_ids(&self) -> impl Iterator<Item = RegionId> + '_ {
        self.live
            .iter()
            .enumerate()
            .filter(|(_, &l)| l)
            .map(|(i, _)| RegionId::new(i as u32))
    }

    /// Any live region id (the lowest).
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptyNetwork`] when the snapshot holds no regions.
    pub fn first_region(&self) -> Result<RegionId, CoreError> {
        self.region_ids().next().ok_or(CoreError::EmptyNetwork)
    }
}

impl TopologyView for TopologySnapshot {
    fn space(&self) -> Space {
        self.space
    }

    fn instance_id(&self) -> u64 {
        self.instance_id
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn region_count(&self) -> usize {
        self.region_count
    }

    fn slot_count(&self) -> usize {
        self.live.len()
    }

    #[inline]
    fn is_live(&self, slot: usize) -> bool {
        self.live.get(slot).copied().unwrap_or(false)
    }

    #[inline]
    fn slot_rect(&self, slot: usize) -> Region {
        self.slot_geo[slot].rect
    }

    #[inline]
    fn slot_center(&self, slot: usize) -> Point {
        self.slot_geo[slot].center
    }

    #[inline]
    fn slot_fingers(&self, slot: usize) -> &FingerBlock {
        &self.slot_fingers[slot]
    }

    #[inline]
    fn neighbors(&self, slot: usize) -> &[RegionId] {
        let lo = self.neighbor_off[slot] as usize;
        let hi = self.neighbor_off[slot + 1] as usize;
        &self.neighbor_ids[lo..hi]
    }

    #[inline]
    fn finger_base(&self) -> f64 {
        self.finger_base
    }

    fn locate(&self, p: Point) -> Result<RegionId, CoreError> {
        if !self.space.covers(p) {
            return Err(CoreError::OutOfSpace { x: p.x, y: p.y });
        }
        let cell = self.grid.cell_of(p);
        let lo = self.cell_off[cell] as usize;
        let hi = self.cell_off[cell + 1] as usize;
        for &rid in &self.cell_ids[lo..hi] {
            if self
                .space
                .region_covers(&self.slot_geo[rid.index()].rect, p)
            {
                return Ok(rid);
            }
        }
        Err(CoreError::EmptyNetwork)
    }
}

/// The RCU publication point: an atomically versioned slot holding the
/// most recently published [`TopologySnapshot`].
///
/// Obtained from [`Topology::publish_handle`](crate::Topology::publish_handle);
/// once attached, the three geometry-rewrite sites republish into it on
/// every mutation (`install_snapshot` is `pub(crate)`, and the auditor's
/// `stale-snapshot` reports a site that skips it). Readers do not use
/// the cell directly per query — they hold a [`SnapshotReader`], which
/// turns the common no-change case into a single atomic load.
#[derive(Debug)]
pub struct SnapshotCell {
    /// Publication counter, bumped (Release) on every install while the
    /// write lock is held — a reader that observes version `v` and then
    /// locks the slot is guaranteed a snapshot at least as new as `v`.
    version: AtomicU64,
    /// The published snapshot. The lock is held for nanoseconds (an `Arc`
    /// clone or store); steady-state readers skip it entirely via the
    /// version check.
    slot: RwLock<Arc<TopologySnapshot>>,
}

impl SnapshotCell {
    pub(crate) fn new(initial: Arc<TopologySnapshot>) -> Self {
        Self {
            version: AtomicU64::new(1),
            slot: RwLock::new(initial),
        }
    }

    /// The current publication counter (monotone; starts at 1).
    #[inline]
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Atomically publishes `snap` as the current snapshot.
    ///
    /// Crate-private: outside tests, only `Topology::publish_snapshot`
    /// calls it, at the geometry-rewrite sites. Concurrent readers assume
    /// every published snapshot is a coherent epoch of the one attached
    /// topology, and an out-of-band install breaks that.
    pub(crate) fn install_snapshot(&self, snap: Arc<TopologySnapshot>) {
        let mut guard = self.slot.write().unwrap_or_else(PoisonError::into_inner);
        debug_assert!(
            snap.instance_id == guard.instance_id && snap.epoch >= guard.epoch,
            "snapshot publication must be monotone within one topology instance"
        );
        *guard = snap;
        // Bumped while the write lock is still held: a reader seeing the
        // new version and then read-locking cannot get the old snapshot.
        self.version.fetch_add(1, Ordering::Release);
    }

    /// The currently published snapshot (one lock round-trip). Prefer a
    /// [`SnapshotReader`] on hot paths.
    pub fn load(&self) -> Arc<TopologySnapshot> {
        Arc::clone(&self.slot.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// A per-thread reader handle over this cell.
    pub fn reader(self: &Arc<Self>) -> SnapshotReader {
        SnapshotReader::new(Arc::clone(self))
    }
}

/// A per-thread cached handle onto a [`SnapshotCell`]: holds the last
/// snapshot `Arc` it saw and revalidates with one atomic version load per
/// [`Self::current`] call, touching the cell's lock only when a writer
/// actually published in between. Clone one per reader thread.
#[derive(Debug, Clone)]
pub struct SnapshotReader {
    cell: Arc<SnapshotCell>,
    /// The cell version `current` was loaded under. Reading the version
    /// *before* the snapshot keeps staleness one-sided: if a publish
    /// lands between the two reads we hold a snapshot *newer* than
    /// `seen` and merely reload once more on the next call.
    seen: u64,
    current: Arc<TopologySnapshot>,
}

impl SnapshotReader {
    /// Creates a reader positioned at the cell's current snapshot.
    pub fn new(cell: Arc<SnapshotCell>) -> Self {
        let seen = cell.version();
        let current = cell.load();
        Self {
            cell,
            seen,
            current,
        }
    }

    /// The latest published snapshot. Steady state (no publication since
    /// the last call) is one atomic load and no locking; after a
    /// publication the new `Arc` is fetched under the cell's read lock
    /// once and cached again.
    #[inline]
    pub fn current(&mut self) -> &Arc<TopologySnapshot> {
        let v = self.cell.version();
        if v != self.seen {
            self.seen = v;
            self.current = self.cell.load();
        }
        &self.current
    }

    /// The snapshot this reader is currently pinned to, without
    /// revalidating against the cell.
    pub fn pinned(&self) -> &Arc<TopologySnapshot> {
        &self.current
    }
}
