//! The authoritative model of a GeoGrid network.
//!
//! A [`Topology`] holds the complete partition of the space into regions,
//! the owner assignment of every region (primary plus optional secondary —
//! the paper's *dual peer*), and the neighbor graph derived from edge
//! contact. All structural operations of the paper are methods here:
//! region split on join, merge, secondary placement/removal, primary
//! promotion, and the ownership swaps the adaptation mechanisms perform.
//!
//! The topology is the single source of truth for experiments and for the
//! adaptation engine; the per-node protocol [`engine`](crate::engine)
//! maintains a distributed version of the same state and is tested against
//! this model.

use std::collections::HashMap;
use std::sync::Arc;

use geogrid_geometry::{GridBuckets, Point, Region, Space, EDGE_EPS};

use crate::audit::{Violation, ViolationKind};
pub use crate::node::Role;
use crate::rules::{self, FINGER_COUNT};
use crate::snapshot::{SnapshotCell, TopologySnapshot, TopologyView};
use crate::{CoreError, NodeId, NodeInfo, RegionId};

/// One region slot: geometry, owners, and adjacency.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionEntry {
    region: Region,
    primary: NodeId,
    secondary: Option<NodeId>,
    neighbors: Vec<RegionId>,
}

impl RegionEntry {
    /// The rectangle this slot owns.
    pub fn region(&self) -> Region {
        self.region
    }

    /// The primary owner.
    pub fn primary(&self) -> NodeId {
        self.primary
    }

    /// The secondary owner, if the region is *full* (dual peer present).
    pub fn secondary(&self) -> Option<NodeId> {
        self.secondary
    }

    /// Whether the region has a dual peer.
    pub fn is_full(&self) -> bool {
        self.secondary.is_some()
    }

    /// Ids of edge-adjacent regions.
    pub fn neighbors(&self) -> &[RegionId] {
        &self.neighbors
    }

    /// Containment test honoring the space-boundary adjustment (see
    /// [`Space::region_covers`]).
    pub fn covers(&self, p: Point, space: Space) -> bool {
        space.region_covers(&self.region, p)
    }
}

/// Cells per axis of the [`GridIndex`]. 128×128 = 2¹⁴ cells keeps the
/// expected bucket occupancy at about one region up to 2¹⁴ regions, the
/// paper's largest networks, while the whole index stays a few hundred
/// kilobytes. The 2¹⁶-region builds of `repro routing` and the
/// benchmark's `model_route` hold ≈ 4 regions per cell.
pub(crate) const GRID_DIM: usize = 128;

/// Incrementally-maintained uniform-grid spatial index over the live
/// regions.
///
/// The space is bucketed into [`GRID_DIM`]² equal cells; each cell lists
/// every region whose **closed** rectangle `[x, east] × [y, north]`
/// overlaps it, so any point a region can cover — under the half-open
/// rule, the `EDGE_EPS`-exact shared edges, or the space-boundary closure
/// of [`Space::region_covers`] — falls in a cell that lists the region.
///
/// The index is kept exact through every mutation path: region geometry
/// only ever changes in [`Topology::bootstrap`], [`Topology::split_region`]
/// and [`Topology::merge_regions`] (ownership swaps move nodes, not
/// rectangles), and each of those updates the affected cells in place.
/// [`Topology::validate`] re-derives the expected cell span of every live
/// region and fails on any stale or missing entry.
#[derive(Debug, Clone, Default)]
struct GridIndex {
    /// Bucket-less until the topology is given a space.
    buckets: GridBuckets<RegionId, GRID_DIM>,
    /// Total entries across all buckets: sizes the snapshot's flat
    /// candidate list, and the audit checks it against the buckets.
    entries: usize,
}

impl GridIndex {
    fn insert(&mut self, rid: RegionId, r: &Region) {
        self.entries += self.buckets.insert_span(r, rid);
    }

    fn remove(&mut self, rid: RegionId, r: &Region) {
        self.entries -= self.buckets.remove_span(r, rid);
    }
}

/// Stored finger entries per region: [`FINGER_COUNT`] padded to the next
/// multiple of a 64-byte cache line (48 × 4 B = 192 B = 3 lines).
pub const FINGER_SLOTS: usize = 48;

/// Finger entry: no express link at this (scale, direction) — the target
/// point folds back into the region's own rectangle.
pub const FINGER_NONE: u32 = u32::MAX;

/// One region's express-link fingers, padded to whole cache lines so the
/// flat mirror (`Vec<FingerBlock>`) never straddles a line mid-region:
/// the express hop scan reads all 48 entries of exactly one region.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
pub struct FingerBlock {
    ids: [u32; FINGER_SLOTS],
}

impl FingerBlock {
    const EMPTY: FingerBlock = FingerBlock {
        ids: [FINGER_NONE; FINGER_SLOTS],
    };

    /// The raw finger entries (`FINGER_NONE`-padded past
    /// [`FINGER_COUNT`]). Index `scale * FINGER_DIRS + dir`.
    pub fn ids(&self) -> &[u32; FINGER_SLOTS] {
        &self.ids
    }
}

/// Reverse finger link: `(source slot << 8) | finger index`, packed so the
/// per-slot in-link lists stay one machine word per entry.
fn pack_finger_ref(rid: RegionId, k: usize) -> u64 {
    ((rid.as_u32() as u64) << 8) | k as u64
}

fn unpack_finger_ref(packed: u64) -> (u32, usize) {
    ((packed >> 8) as u32, (packed & 0xFF) as usize)
}

/// Source of unique [`Topology::instance_id`] values. Every constructed or
/// cloned topology gets a fresh id so `(instance_id, epoch)` can never
/// confuse two instances whose epoch counters happen to coincide.
static NEXT_TOPOLOGY_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn next_topology_id() -> u64 {
    NEXT_TOPOLOGY_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// The authoritative GeoGrid network model.
///
/// See the [module docs](self) for an overview and the
/// [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Topology {
    space: Option<Space>,
    slots: Vec<Option<RegionEntry>>,
    free: Vec<u32>,
    /// Indexed by [`NodeId`]: ids are handed out densely from 0.
    nodes: Vec<Option<NodeInfo>>,
    assignments: HashMap<NodeId, (RegionId, Role)>,
    next_node: u64,
    region_count: usize,
    grid: GridIndex,
    /// Process-unique instance id (see [`Self::instance_id`]).
    id: u64,
    /// Geometry epoch (see [`Self::epoch`]).
    epoch: u64,
    /// Flat mirror of every live slot's rectangle and center, indexed by
    /// [`RegionId::index`]. Entries of dead slots are stale until the slot
    /// is recycled; only live ids may be used to index. One cache line per
    /// slot (see [`SlotGeo`]) so a greedy neighbor probe costs one load.
    slot_geo: Vec<SlotGeo>,
    /// Flat mirror of every live slot's express-link fingers, indexed like
    /// `slot_geo` (same staleness contract for dead slots). Kept exact at
    /// the three geometry-rewrite sites; see [`Self::slot_fingers`].
    slot_fingers: Vec<FingerBlock>,
    /// Reverse finger index: `finger_in[s]` lists every `(source, k)`
    /// finger currently pointing at slot `s` (packed, see
    /// [`pack_finger_ref`]). Exact — every finger write removes its old
    /// reverse entry before installing the new one — so a geometry rewrite
    /// visits only the fingers that referenced the changed region, not
    /// the whole network.
    finger_in: Vec<Vec<u64>>,
    /// The publication cell attached by [`Self::publish_handle`], if any.
    /// While attached, every geometry-rewrite site republishes into it
    /// (the auditor's `stale-snapshot` reports a site that does not).
    /// `None` costs publication nothing — unattached topologies skip
    /// snapshot construction entirely.
    publish: Option<Arc<SnapshotCell>>,
}

/// Rectangle + center of one slot, padded to a cache line: the greedy
/// scan reads both for every neighbor, so keeping them on one 64-byte
/// line halves its memory traffic versus separate rect/center arrays.
/// Shared with [`TopologySnapshot`], whose geometry mirror is a clone of
/// this array.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(align(64))]
pub(crate) struct SlotGeo {
    pub(crate) rect: Region,
    pub(crate) center: Point,
}

// Hand-written (not derived) so every clone gets a fresh `id`: a clone
// starts diverging from the original immediately, so `(instance_id,
// epoch)` must not name both.
impl Clone for Topology {
    fn clone(&self) -> Self {
        Self {
            space: self.space,
            slots: self.slots.clone(),
            free: self.free.clone(),
            nodes: self.nodes.clone(),
            assignments: self.assignments.clone(),
            next_node: self.next_node,
            region_count: self.region_count,
            grid: self.grid.clone(),
            id: next_topology_id(),
            epoch: self.epoch,
            slot_geo: self.slot_geo.clone(),
            slot_fingers: self.slot_fingers.clone(),
            finger_in: self.finger_in.clone(),
            // A clone diverges immediately, so it does not get the
            // publication cell: publishing a divergent clone's geometry to
            // the original's readers would corrupt them.
            publish: None,
        }
    }
}

impl Default for Topology {
    fn default() -> Self {
        Self {
            space: None,
            slots: Vec::new(),
            free: Vec::new(),
            nodes: Vec::new(),
            assignments: HashMap::new(),
            next_node: 0,
            region_count: 0,
            grid: GridIndex::default(),
            id: next_topology_id(),
            epoch: 0,
            slot_geo: Vec::new(),
            slot_fingers: Vec::new(),
            finger_in: Vec::new(),
            publish: None,
        }
    }
}

impl Topology {
    /// Creates an empty topology over `space`.
    pub fn new(space: Space) -> Self {
        Self {
            space: Some(space),
            grid: GridIndex {
                buckets: GridBuckets::new(space.bounds()),
                entries: 0,
            },
            ..Self::default()
        }
    }

    /// The space this topology partitions.
    ///
    /// # Panics
    ///
    /// Panics if the topology was built with `Default` and never given a
    /// space.
    pub fn space(&self) -> Space {
        self.space
            .expect("invariant: every topology outside Default::default() is built over a space")
    }

    /// Registers a node (not yet assigned to any region) and returns its
    /// id. Capacity and coordinate semantics follow [`NodeInfo::new`].
    pub fn register_node(&mut self, coord: Point, capacity: f64) -> NodeId {
        let id = NodeId::new(self.next_node);
        self.next_node += 1;
        self.nodes.push(Some(NodeInfo::new(id, coord, capacity)));
        id
    }

    /// Bootstraps the network: the first node owns the entire space.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownNode`] if `node` is not registered, or
    /// [`CoreError::WrongRole`] if it is already assigned, or
    /// [`CoreError::RegionFull`]-style misuse if the network already has
    /// regions (reported as `WrongRole` on the existing assignment).
    ///
    /// # Panics
    ///
    /// Panics if called when the network already has regions.
    pub fn bootstrap(&mut self, node: NodeId) -> Result<RegionId, CoreError> {
        assert!(self.region_count == 0, "bootstrap on a non-empty network");
        self.ensure_unassigned(node)?;
        self.bump_epoch();
        let rid = self.alloc_slot(RegionEntry {
            region: self.space().bounds(),
            primary: node,
            secondary: None,
            neighbors: Vec::new(),
        });
        self.assignments.insert(node, (rid, Role::Primary));
        self.refresh_fingers(rid, &FingerBlock::EMPTY);
        self.publish_snapshot();
        self.debug_audit(&[rid]);
        Ok(rid)
    }

    /// Number of live regions.
    pub fn region_count(&self) -> usize {
        self.region_count
    }

    /// Process-unique identity of this topology instance. Fresh on every
    /// construction *and* on every clone, so `(instance_id, epoch)` is a
    /// globally unambiguous geometry version — two topologies never share
    /// one even if their epoch counters coincide.
    pub fn instance_id(&self) -> u64 {
        self.id
    }

    /// Geometry epoch: bumped every time region rectangles or adjacency
    /// change, which happens at exactly the three sites that also rewrite
    /// the grid index — [`Self::bootstrap`], [`Self::split_region`] and
    /// [`Self::merge_regions`]. Ownership operations (secondary placement,
    /// primary swaps, fail-over promotion, node removal) move nodes, not
    /// rectangles, and leave the epoch alone — so they never force a
    /// snapshot republication.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Upper bound (exclusive) on [`RegionId::index`] over all live
    /// regions: the current slot-table length. Slots are recycled, so this
    /// stays dense — suitable for sizing flat per-slot side tables.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The rectangle of the live region in `slot`, from the flat geometry
    /// mirror (no `Option` chasing). `slot` must index a live region.
    #[inline]
    pub fn slot_rect(&self, slot: usize) -> Region {
        self.slot_geo[slot].rect
    }

    /// The center of the live region in `slot`, same contract as
    /// [`Self::slot_rect`].
    #[inline]
    pub fn slot_center(&self, slot: usize) -> Point {
        self.slot_geo[slot].center
    }

    /// The express-link fingers of the live region in `slot`, from the
    /// flat finger mirror — same contract as [`Self::slot_rect`]: `slot`
    /// must index a live region.
    ///
    /// Entry `k` is the raw id of the region covering
    /// [`rules::finger_point`] `k` of this region's center, or
    /// [`FINGER_NONE`] when that point folds back into the region itself. The mirror is
    /// maintained exactly at the three geometry-rewrite sites, so a
    /// non-`FINGER_NONE` entry always names a live region.
    #[inline]
    pub fn slot_fingers(&self, slot: usize) -> &FingerBlock {
        &self.slot_fingers[slot]
    }

    /// Number of registered nodes (assigned or not).
    pub fn node_count(&self) -> usize {
        self.nodes().count()
    }

    /// The region slot, if alive.
    pub fn region(&self, rid: RegionId) -> Option<&RegionEntry> {
        self.slots.get(rid.index()).and_then(|s| s.as_ref())
    }

    /// The node descriptor, if registered.
    pub fn node(&self, id: NodeId) -> Option<&NodeInfo> {
        self.nodes.get(usize::try_from(id.as_u64()).ok()?)?.as_ref()
    }

    /// A node's capacity; 0 for an unregistered node.
    pub fn capacity(&self, id: NodeId) -> f64 {
        self.node(id).map_or(0.0, NodeInfo::capacity)
    }

    /// The region and role a node currently owns, if any.
    pub fn assignment(&self, id: NodeId) -> Option<(RegionId, Role)> {
        self.assignments.get(&id).copied()
    }

    /// Iterator over live region ids, ascending.
    pub fn region_ids(&self) -> impl Iterator<Item = RegionId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| RegionId::new(i as u32))
    }

    /// Iterator over `(RegionId, &RegionEntry)` pairs, ascending by id.
    pub fn regions(&self) -> impl Iterator<Item = (RegionId, &RegionEntry)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|e| (RegionId::new(i as u32), e)))
    }

    /// Iterator over all registered node descriptors, ascending by id.
    pub fn nodes(&self) -> impl Iterator<Item = &NodeInfo> + '_ {
        self.nodes.iter().flatten()
    }

    /// Any live region id (the lowest), or an error on an empty network.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptyNetwork`] when no region exists.
    pub fn first_region(&self) -> Result<RegionId, CoreError> {
        self.region_ids().next().ok_or(CoreError::EmptyNetwork)
    }

    /// The region covering `p`, by linear scan. Correct but O(regions) —
    /// prefer [`crate::routing::Router`] in protocol paths; this is the
    /// ground truth used in tests and as a routing fallback.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfSpace`] if `p` is outside the space, or
    /// [`CoreError::EmptyNetwork`] if there are no regions.
    pub fn locate_scan(&self, p: Point) -> Result<RegionId, CoreError> {
        if !self.space().covers(p) {
            return Err(CoreError::OutOfSpace { x: p.x, y: p.y });
        }
        self.regions()
            .find(|(_, e)| e.covers(p, self.space()))
            .map(|(rid, _)| rid)
            .ok_or(CoreError::EmptyNetwork)
    }

    /// The region covering `p`, via the grid spatial index: O(1) amortized
    /// (one cell lookup; the expected bucket holds a constant number of
    /// regions in a balanced tiling). Agrees with [`Self::locate_scan`] on
    /// every point of the space — the index is maintained exactly through
    /// all mutations.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfSpace`] if `p` is outside the space, or
    /// [`CoreError::EmptyNetwork`] if there are no regions.
    pub fn locate(&self, p: Point) -> Result<RegionId, CoreError> {
        let space = self.space();
        if !space.covers(p) {
            return Err(CoreError::OutOfSpace { x: p.x, y: p.y });
        }
        for &rid in self.grid.buckets.at(p) {
            let entry = self.slots[rid.index()]
                .as_ref()
                .expect("invariant: the grid index lists only live regions");
            if entry.covers(p, space) {
                return Ok(rid);
            }
        }
        Err(CoreError::EmptyNetwork)
    }

    /// Splits `rid` in half along its preferred axis.
    ///
    /// `keep` must be the current primary of `rid`; it retains the half
    /// [`rules::split`] keeps for its coordinate (the high half if its
    /// coordinate is not inside the region — ownership/geography
    /// association can already be broken by earlier adaptations). `give`
    /// becomes the primary of the other half; it must be either the
    /// current secondary of `rid` (a dual-peer split) or an unassigned
    /// registered node (a join split).
    ///
    /// Returns the id of the new region (the half given away).
    ///
    /// # Errors
    ///
    /// * [`CoreError::UnknownRegion`] / [`CoreError::UnknownNode`] for dead
    ///   ids.
    /// * [`CoreError::WrongRole`] if `keep` is not the primary of `rid`, or
    ///   `give` is neither its secondary nor unassigned.
    pub fn split_region(
        &mut self,
        rid: RegionId,
        keep: NodeId,
        give: NodeId,
    ) -> Result<RegionId, CoreError> {
        let entry = self.entry(rid)?;
        if entry.primary != keep {
            return Err(CoreError::WrongRole {
                node: keep,
                expected: "the primary owner of the split region",
            });
        }
        let give_is_secondary = entry.secondary == Some(give);
        if !give_is_secondary && self.assignments.contains_key(&give) {
            return Err(CoreError::WrongRole {
                node: give,
                expected: "the region's secondary or an unassigned node",
            });
        }
        if self.node(give).is_none() {
            return Err(CoreError::UnknownNode(give));
        }
        let keep_coord = self.node(keep).ok_or(CoreError::UnknownNode(keep))?.coord();

        let old_region = self.entry(rid)?.region;
        let (kept_half, given_half) = rules::split(&old_region, &self.space(), keep_coord);

        let old_neighbors = self.entry(rid)?.neighbors.clone();
        // Geometry changes from here on.
        self.bump_epoch();
        // Rewrite the kept slot (and its grid cells: the kept half covers a
        // subset of the old rectangle's cells).
        self.rewrite_geometry(rid, &old_region, kept_half);
        {
            let entry = self.entry_mut(rid)?;
            entry.region = kept_half;
            if give_is_secondary {
                entry.secondary = None;
            }
        }
        let new_rid = self.alloc_slot(RegionEntry {
            region: given_half,
            primary: give,
            secondary: None,
            neighbors: Vec::new(),
        });
        self.assignments.insert(give, (new_rid, Role::Primary));

        // Recompute adjacency among the two halves and the old neighbors.
        let mut kept_list = vec![new_rid];
        let mut new_list = vec![rid];
        for n in old_neighbors {
            let n_region = self.entry(n)?.region;
            let touches_kept = n_region.touches_edge(&kept_half);
            let touches_new = n_region.touches_edge(&given_half);
            if touches_kept {
                kept_list.push(n);
            }
            if touches_new {
                new_list.push(n);
            }
            let n_entry = self.entry_mut(n)?;
            if !touches_kept {
                n_entry.neighbors.retain(|&x| x != rid);
            }
            if touches_new {
                n_entry.neighbors.push(new_rid);
            }
        }
        self.entry_mut(rid)?.neighbors = kept_list;
        self.entry_mut(new_rid)?.neighbors = new_list;
        self.fingers_after_split(rid, new_rid);
        self.publish_snapshot();
        self.debug_audit(&[rid, new_rid]);
        Ok(new_rid)
    }

    /// Merges region `b` into region `a` (their rectangles must re-form a
    /// rectangle). The caller names the owners of the merged region; every
    /// current owner of `a` or `b` that is not named becomes unassigned and
    /// is returned.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NotMergeable`] if the rectangles don't merge.
    /// * [`CoreError::WrongRole`] if `primary`/`secondary` are not among
    ///   the current owners of `a` and `b`.
    pub fn merge_regions(
        &mut self,
        a: RegionId,
        b: RegionId,
        primary: NodeId,
        secondary: Option<NodeId>,
    ) -> Result<Vec<NodeId>, CoreError> {
        let ra = self.entry(a)?.region;
        let rb = self.entry(b)?.region;
        let merged = ra.merge(&rb).ok_or(CoreError::NotMergeable(a, b))?;

        let mut owners = Vec::new();
        for rid in [a, b] {
            let e = self.entry(rid)?;
            owners.push(e.primary);
            owners.extend(e.secondary);
        }
        if !owners.contains(&primary) {
            return Err(CoreError::WrongRole {
                node: primary,
                expected: "an owner of one of the merged regions",
            });
        }
        if let Some(s) = secondary {
            if !owners.contains(&s) || s == primary {
                return Err(CoreError::WrongRole {
                    node: s,
                    expected: "a distinct owner of one of the merged regions",
                });
            }
        }

        // Union of both neighbor lists, minus the merged pair.
        let mut neighbor_union: Vec<RegionId> = Vec::new();
        for rid in [a, b] {
            for n in self.entry(rid)?.neighbors.clone() {
                if n != a && n != b && !neighbor_union.contains(&n) {
                    neighbor_union.push(n);
                }
            }
        }

        // Geometry changes from here on.
        self.bump_epoch();
        // Displace all owners, then install the named ones.
        let mut displaced = Vec::new();
        for owner in &owners {
            self.assignments.remove(owner);
            if *owner != primary && secondary != Some(*owner) {
                displaced.push(*owner);
            }
        }
        // `a` grows to the merged rectangle; `b`'s cells are cleared by
        // `free_slot` below.
        self.rewrite_geometry(a, &ra, merged);
        {
            let entry = self.entry_mut(a)?;
            entry.region = merged;
            entry.primary = primary;
            entry.secondary = secondary;
        }
        self.assignments.insert(primary, (a, Role::Primary));
        if let Some(s) = secondary {
            self.assignments.insert(s, (a, Role::Secondary));
        }
        self.free_slot(b);

        // Fix adjacency: every union member neighbors the merged rect.
        for &n in &neighbor_union {
            let entry = self.entry_mut(n)?;
            entry.neighbors.retain(|&x| x != a && x != b);
            entry.neighbors.push(a);
        }
        self.entry_mut(a)?.neighbors = neighbor_union;
        self.fingers_after_merge(a, b);
        self.publish_snapshot();
        self.debug_audit(&[a, b]);
        Ok(displaced)
    }

    /// Installs `node` as the secondary owner of `rid`.
    ///
    /// # Errors
    ///
    /// [`CoreError::RegionFull`] if a secondary exists;
    /// [`CoreError::WrongRole`] if `node` is already assigned elsewhere;
    /// [`CoreError::UnknownNode`] if it is not registered.
    pub fn set_secondary(&mut self, rid: RegionId, node: NodeId) -> Result<(), CoreError> {
        if self.node(node).is_none() {
            return Err(CoreError::UnknownNode(node));
        }
        self.ensure_unassigned(node)?;
        let entry = self.entry_mut(rid)?;
        if entry.secondary.is_some() {
            return Err(CoreError::RegionFull(rid));
        }
        entry.secondary = Some(node);
        self.assignments.insert(node, (rid, Role::Secondary));
        self.debug_audit(&[rid]);
        Ok(())
    }

    /// Removes and returns the secondary owner of `rid` (the *steal*
    /// primitive of adaptation mechanisms (a) and (f)).
    ///
    /// # Errors
    ///
    /// [`CoreError::NoSecondary`] if the region is half-full.
    pub fn take_secondary(&mut self, rid: RegionId) -> Result<NodeId, CoreError> {
        let entry = self.entry_mut(rid)?;
        let node = entry.secondary.take().ok_or(CoreError::NoSecondary(rid))?;
        self.assignments.remove(&node);
        self.debug_audit(&[rid]);
        Ok(node)
    }

    /// Swaps the primary owners of two regions (mechanisms (b) and (h)).
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::UnknownRegion`] for dead ids.
    pub fn swap_primaries(&mut self, a: RegionId, b: RegionId) -> Result<(), CoreError> {
        let pa = self.entry(a)?.primary;
        let pb = self.entry(b)?.primary;
        self.entry_mut(a)?.primary = pb;
        self.entry_mut(b)?.primary = pa;
        self.assignments.insert(pa, (b, Role::Primary));
        self.assignments.insert(pb, (a, Role::Primary));
        self.debug_audit(&[a, b]);
        Ok(())
    }

    /// Swaps the primary of `a` with the secondary of `b` (mechanisms (e)
    /// and (g)): the stronger secondary becomes primary of the overloaded
    /// region `a`, the former primary retires to secondary of `b`.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoSecondary`] if `b` has no secondary.
    pub fn switch_primary_with_secondary(
        &mut self,
        a: RegionId,
        b: RegionId,
    ) -> Result<(), CoreError> {
        let pa = self.entry(a)?.primary;
        let sb = self.entry(b)?.secondary.ok_or(CoreError::NoSecondary(b))?;
        self.entry_mut(a)?.primary = sb;
        self.entry_mut(b)?.secondary = Some(pa);
        self.assignments.insert(sb, (a, Role::Primary));
        self.assignments.insert(pa, (b, Role::Secondary));
        self.debug_audit(&[a, b]);
        Ok(())
    }

    /// Swaps the roles of the primary and secondary within one region
    /// (used when a stronger node arrives as dual peer, §2.3 "Node Join").
    ///
    /// # Errors
    ///
    /// [`CoreError::NoSecondary`] if the region is half-full.
    pub fn swap_roles(&mut self, rid: RegionId) -> Result<(), CoreError> {
        let entry = self.entry(rid)?;
        let p = entry.primary;
        let s = entry.secondary.ok_or(CoreError::NoSecondary(rid))?;
        let entry = self.entry_mut(rid)?;
        entry.primary = s;
        entry.secondary = Some(p);
        self.assignments.insert(s, (rid, Role::Primary));
        self.assignments.insert(p, (rid, Role::Secondary));
        self.debug_audit(&[rid]);
        Ok(())
    }

    /// Removes `node` from the network entirely, fixing up its region's
    /// ownership per §2.3 "Node Departure"/"Failure Recover":
    ///
    /// * secondary departs → region marked half-full;
    /// * primary departs with a secondary present → secondary activates;
    /// * sole owner departs → the region is left **orphaned**: its entry
    ///   remains with the departed primary until the caller repairs it
    ///   (see [`crate::join::repair_orphan`]); the orphaned region id is
    ///   returned so the caller can do so.
    ///
    /// Returns the orphaned region id if repair is needed.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownNode`] if the node is not registered.
    pub fn remove_node(&mut self, node: NodeId) -> Result<Option<RegionId>, CoreError> {
        let slot = usize::try_from(node.as_u64())
            .ok()
            .and_then(|i| self.nodes.get_mut(i));
        if slot.and_then(Option::take).is_none() {
            return Err(CoreError::UnknownNode(node));
        }
        let Some((rid, role)) = self.assignments.remove(&node) else {
            return Ok(None); // unassigned node
        };
        let orphan = match role {
            Role::Secondary => {
                self.entry_mut(rid)?.secondary = None;
                None
            }
            Role::Primary => {
                let secondary = self.entry(rid)?.secondary;
                match secondary {
                    Some(s) => {
                        let entry = self.entry_mut(rid)?;
                        entry.primary = s;
                        entry.secondary = None;
                        self.assignments.insert(s, (rid, Role::Primary));
                        None
                    }
                    None => Some(rid),
                }
            }
        };
        self.debug_audit(&[rid]);
        Ok(orphan)
    }

    /// Reassigns an orphaned region (whose primary was removed) to `node`,
    /// which must be unassigned. Part of the repair path.
    ///
    /// # Errors
    ///
    /// [`CoreError::WrongRole`] if `node` is assigned elsewhere;
    /// [`CoreError::UnknownNode`] if it is not registered.
    pub fn adopt_region(&mut self, rid: RegionId, node: NodeId) -> Result<(), CoreError> {
        if self.node(node).is_none() {
            return Err(CoreError::UnknownNode(node));
        }
        self.ensure_unassigned(node)?;
        self.entry_mut(rid)?.primary = node;
        self.assignments.insert(node, (rid, Role::Primary));
        self.debug_audit(&[rid]);
        Ok(())
    }

    /// Audits every structural invariant and returns **all** violations
    /// found, as typed [`Violation`]s (empty = healthy). Assert on
    /// [`ViolationKind`]s, not message text, in tests.
    ///
    /// Runs the per-slot rules over every slot — the same rules debug
    /// builds run after each mutation on the slots it touched — and adds what only the whole structure shows:
    /// the grid entry counter, every assignment naming a slot that holds
    /// its node, "each forward finger is mirrored exactly once" as one
    /// total, and the published snapshot's content.
    ///
    /// The audit never panics on a corrupted structure: it reports what it
    /// can prove and skips what it cannot reach, so debug hooks and
    /// property tests get the full damage picture from one call.
    pub fn audit(&self) -> Vec<Violation> {
        let mut v: Vec<Violation> = Vec::new();
        // Each valid, unrepeated reverse entry mirrors exactly one live
        // forward finger, so equal totals mean every finger has its entry;
        // only a mismatch pays for the scan that names the one lacking it.
        let balance: isize = (0..self.slots.len())
            .map(|s| self.audit_slot(RegionId::new(s as u32), &mut v))
            .sum();
        if balance != 0 {
            for rid in self.region_ids() {
                self.audit_finger_mirror(rid, &mut v);
            }
        }
        // Every cell lies in some live span unless the tiling has a gap, so
        // the per-slot grid rule has seen every entry of every cell; the
        // counter only has to agree with the buckets.
        let actual_entries: usize = self.grid.buckets.cells().iter().map(Vec::len).sum();
        if self.grid.entries != actual_entries {
            v.push(Violation::new(
                ViolationKind::GridCounterDrift {
                    counted: self.grid.entries,
                    actual: actual_entries,
                },
                format!(
                    "grid entry counter says {} but cells hold {actual_entries}",
                    self.grid.entries
                ),
            ));
        }
        for (node, (rid, role)) in &self.assignments {
            let Some(e) = self.region(*rid) else {
                v.push(Violation::new(
                    ViolationKind::DualPeerMismatch(*node, *rid),
                    format!("{node} assigned to dead region {rid}"),
                ));
                continue;
            };
            let holds = match role {
                Role::Primary => e.primary == *node,
                Role::Secondary => e.secondary == Some(*node),
            };
            if !holds {
                v.push(Violation::new(
                    ViolationKind::DualPeerMismatch(*node, *rid),
                    format!("{node} claims {role} of {rid} but slot disagrees"),
                ));
            }
        }
        // Published-snapshot coherence: whatever concurrent readers can
        // currently observe through the attached publication cell must be
        // exactly this geometry at this epoch.
        if let Some(cell) = &self.publish {
            self.audit_snapshot(&cell.load(), &mut v);
        }
        v
    }

    /// The per-slot rules of [`Self::audit_slot`] over `touched` only, plus
    /// the check [`Self::audit`] replaces with a total: each forward finger
    /// of a touched slot has its entry in the target's in-list. The cost
    /// depends on the touched slots' spans, neighbour lists and in-lists,
    /// not on the network size, so [`Self::debug_audit`] runs it after
    /// every mutation. A dead id (a merge's freed victim) must have an
    /// empty in-list; a cell still listing it is a dead entry in the
    /// survivor's span. While a publication cell is attached, the
    /// published snapshot's identity is checked too (its content only by
    /// the full audit).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) fn audit_local(&self, touched: &[RegionId]) -> Vec<Violation> {
        let mut v: Vec<Violation> = self
            .publish
            .as_ref()
            .and_then(|cell| self.stale_snapshot(&cell.load()))
            .into_iter()
            .collect();
        for &rid in touched {
            self.audit_slot(rid, &mut v);
            self.audit_finger_mirror(rid, &mut v);
        }
        v
    }

    /// The per-slot audit rules, each written once: [`Self::audit`] runs
    /// them over every slot, [`Self::audit_local`] over the touched ones.
    /// Returns the slot's valid, unrepeated reverse entries minus its live
    /// forward fingers, for the full audit's exactly-once total.
    fn audit_slot(&self, rid: RegionId, v: &mut Vec<Violation>) -> isize {
        let entry = self.region(rid);
        let mut links = self.finger_in.get(rid.index()).cloned().unwrap_or_default();
        links.sort_unstable();
        let mut balance = 0;
        for (j, &packed) in links.iter().enumerate() {
            let (src, k) = unpack_finger_ref(packed);
            let forward = self
                .region(RegionId::new(src))
                .and_then(|_| self.slot_fingers.get(src as usize))
                .and_then(|b| b.ids.get(k).copied());
            let why = if j > 0 && links[j - 1] == packed {
                "repeated"
            } else if entry.is_none() || forward != Some(rid.as_u32()) {
                "stale"
            } else {
                balance += 1;
                continue;
            };
            v.push(Violation::new(
                ViolationKind::AsymmetricFingerLink(RegionId::new(src), rid),
                format!("{why} reverse finger entry r{src}[{k}] on {rid}"),
            ));
        }
        let Some(e) = entry else {
            return balance;
        };
        // Owners exist and agree with the assignment map. An owner missing
        // from the node table entirely is the orphan transient
        // (OrphanedOwner); a *registered* owner whose assignment disagrees
        // is always a bug (DualPeerMismatch).
        for (node, role) in [
            (Some(e.primary), Role::Primary),
            (e.secondary, Role::Secondary),
        ] {
            let Some(node) = node else { continue };
            if self.node(node).is_none() {
                v.push(Violation::new(
                    ViolationKind::OrphanedOwner(node, rid),
                    format!("{rid}: {role} {node} not registered"),
                ));
                continue;
            }
            match self.assignments.get(&node) {
                Some(&(r, got)) if r == rid && got == role => {}
                other => v.push(Violation::new(
                    ViolationKind::DualPeerMismatch(node, rid),
                    format!("{rid}: {role} {node} has assignment {other:?}"),
                )),
            }
        }
        if e.secondary == Some(e.primary) {
            v.push(Violation::new(
                ViolationKind::DualPeerMismatch(e.primary, rid),
                format!("{rid}: primary and secondary are both {}", e.primary),
            ));
        }
        // Grid cells of the span. Two regions that overlap or touch share a
        // cell, so co-bucketed pairs are all the pairs to check; a pair is
        // checked in the lowest cell both spans hold — the one holding the
        // lower-left corner of the rectangles' intersection — so once.
        let grid = self.grid.buckets.grid();
        let mut touching_rects = Vec::new();
        for i in grid.span(&e.region) {
            let cell = &self.grid.buckets.cells()[i];
            if cell[..] == [rid] {
                continue;
            }
            let own = cell.iter().filter(|&&x| x == rid).count();
            if own != 1 {
                v.push(Violation::new(
                    ViolationKind::StaleGridBucket(rid),
                    format!("grid cell {i} lists {rid} {own} times"),
                ));
            }
            for (j, &other) in cell.iter().enumerate() {
                if other == rid {
                    continue;
                }
                let o = match self.region(other) {
                    Some(o) if !cell[..j].contains(&other) && grid.span_contains(&o.region, i) => o,
                    _ => {
                        v.push(Violation::new(
                            ViolationKind::StaleGridBucket(other),
                            format!("grid cell {i} lists {other}: dead, repeated or off its span"),
                        ));
                        continue;
                    }
                };
                let (a, b) = (e.region, o.region);
                if grid.cell_of(Point::new(a.x().max(b.x()), a.y().max(b.y()))) != i {
                    continue;
                }
                if a.intersects(&b) {
                    v.push(Violation::new(
                        ViolationKind::TessellationOverlap(rid, other),
                        format!("{rid} and {other} overlap"),
                    ));
                }
                let touching = a.touches_edge(&b);
                if touching {
                    touching_rects.push(b);
                }
                let a_lists_b = e.neighbors.contains(&other);
                let b_lists_a = o.neighbors.contains(&rid);
                if touching != a_lists_b || touching != b_lists_a {
                    v.push(Violation::new(
                        ViolationKind::AsymmetricNeighborLink(rid, other),
                        format!(
                            "{rid}/{other}: touching={touching} lists=({a_lists_b},{b_lists_a})"
                        ),
                    ));
                }
            }
        }
        let stale_mirror = match self.slot_geo.get(rid.index()) {
            Some(g) => g.rect != e.region || g.center != e.region.center(),
            None => true,
        };
        if stale_mirror {
            v.push(Violation::new(
                ViolationKind::SlotMirrorDrift(rid),
                format!("{rid}: rect/center geometry mirror is stale"),
            ));
        }
        // The finger block: live targets, empty padding, and each finger
        // equal to a fresh recomputation against the current geometry.
        let Some(block) = self.slot_fingers.get(rid.index()) else {
            v.push(Violation::new(
                ViolationKind::MisScaledFinger(rid, 0),
                format!("{rid}: finger mirror missing entirely"),
            ));
            return balance;
        };
        for (k, &stored) in block.ids.iter().enumerate() {
            if k >= FINGER_COUNT {
                if stored != FINGER_NONE {
                    v.push(Violation::new(
                        ViolationKind::MisScaledFinger(rid, k as u8),
                        format!("{rid}: padding finger slot {k} holds {stored}"),
                    ));
                }
                continue;
            }
            if stored != FINGER_NONE && self.region(RegionId::new(stored)).is_none() {
                v.push(Violation::new(
                    ViolationKind::DanglingFinger(rid, k as u8),
                    format!("{rid}: finger {k} points at dead slot {stored}"),
                ));
                continue;
            }
            balance -= isize::from(stored != FINGER_NONE);
            match self.try_finger_target(rid, k) {
                Some(expected) if stored == expected => {}
                expected => v.push(Violation::new(
                    ViolationKind::MisScaledFinger(rid, k as u8),
                    format!("{rid}: finger {k} holds {stored}, geometry says {expected:?}"),
                )),
            }
        }
        // Neighbor lists can also be wrong about far-apart regions (which
        // never share a bucket): verify every listed neighbor directly.
        for (j, n) in e.neighbors.iter().enumerate() {
            let Some(ne) = self.region(*n) else {
                v.push(Violation::new(
                    ViolationKind::AsymmetricNeighborLink(rid, *n),
                    format!("{rid} lists dead neighbor {n}"),
                ));
                continue;
            };
            if !e.region.touches_edge(&ne.region) {
                v.push(Violation::new(
                    ViolationKind::AsymmetricNeighborLink(rid, *n),
                    format!("{rid} lists non-touching neighbor {n}"),
                ));
            }
            if e.neighbors[..j].contains(n) {
                v.push(Violation::new(
                    ViolationKind::AsymmetricNeighborLink(rid, *n),
                    format!("{rid} lists neighbor {n} twice"),
                ));
            }
        }
        if let Some(side) = self.perimeter_gap(&e.region, &touching_rects) {
            v.push(Violation::new(
                ViolationKind::TessellationGap,
                format!("{rid}: its {side} edge is not covered by neighbours"),
            ));
        }
        balance
    }

    /// The local tiling rule: the edges `r` shares with the regions
    /// `touching` it, with the space boundary, cover its whole perimeter.
    /// Returns the first side (`"east"`, …) that has a gap. A gap in the
    /// tiling always borders some region's uncovered edge, and the pair
    /// check catches overlap, so this stands in for an area sum.
    fn perimeter_gap(&self, r: &Region, touching: &[Region]) -> Option<&'static str> {
        // Side `s` of `r` as (fixed coordinate, range start, range end);
        // side `(s + 2) % 4` faces it.
        let side = |r: &Region, s: usize| match s {
            0 => (r.east(), r.y(), r.north()),
            1 => (r.north(), r.x(), r.east()),
            2 => (r.x(), r.y(), r.north()),
            _ => (r.y(), r.x(), r.east()),
        };
        let bounds = self.space().bounds();
        for s in 0..4 {
            let (at, lo, hi) = side(r, s);
            if (at - side(&bounds, s).0).abs() <= EDGE_EPS {
                continue;
            }
            let mut spans: Vec<(f64, f64)> = touching
                .iter()
                .map(|n| side(n, (s + 2) % 4))
                .filter_map(|(facing, a, z)| ((facing - at).abs() <= EDGE_EPS).then_some((a, z)))
                .collect();
            spans.sort_by(|a, b| a.0.total_cmp(&b.0));
            let reach = spans.iter().try_fold(lo, |reach, &(a, z)| {
                (a <= reach + EDGE_EPS).then_some(reach.max(z))
            });
            if reach.is_none_or(|reach| reach < hi - EDGE_EPS) {
                return Some(["east", "north", "west", "south"][s]);
            }
        }
        None
    }

    /// Each live forward finger of `rid` has its entry in the target's
    /// in-list. One scan per distinct target: a source's far fingers often
    /// share a target, and clamped fingers give large and edge regions
    /// in-lists of thousands.
    fn audit_finger_mirror(&self, rid: RegionId, v: &mut Vec<Violation>) {
        let block = &self.slot_fingers[rid.index()].ids[..FINGER_COUNT];
        let mut targets: Vec<u32> = block
            .iter()
            .copied()
            .filter(|&t| t != FINGER_NONE && self.region(RegionId::new(t)).is_some())
            .collect();
        targets.sort_unstable();
        targets.dedup();
        for t in targets {
            // Bit `k` set: finger `k` of `rid` has an entry in `t`'s list.
            let mut found = 0u64;
            for &packed in &self.finger_in[t as usize] {
                let (src, k) = unpack_finger_ref(packed);
                if src == rid.as_u32() && k < FINGER_COUNT {
                    found |= 1 << k;
                }
            }
            for k in (0..FINGER_COUNT).filter(|&k| block[k] == t && found & 1 << k == 0) {
                v.push(Violation::new(
                    ViolationKind::AsymmetricFingerLink(rid, RegionId::new(t)),
                    format!("{rid}: finger {k} -> r{t} has no reverse entry"),
                ));
            }
        }
    }

    /// Convenience wrapper over [`Self::audit`]: `Ok` when the structure is
    /// healthy, otherwise an error message listing **every** violation
    /// (semicolon-separated). Prefer `audit()` + kind matching in tests.
    ///
    /// # Errors
    ///
    /// Returns all violations found, rendered as one string.
    pub fn validate(&self) -> Result<(), String> {
        let violations = self.audit();
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations
                .iter()
                .map(Violation::to_string)
                .collect::<Vec<_>>()
                .join("; "))
        }
    }

    /// A fresh immutable snapshot of the current geometry epoch: the slot
    /// rectangle/center mirror, finger blocks, adjacency, and grid index,
    /// flattened for lock-free concurrent routing (see
    /// [`crate::snapshot`]). Each call builds a new one.
    ///
    /// # Panics
    ///
    /// Panics if the topology was built with `Default` and never given a
    /// space.
    pub fn snapshot(&self) -> Arc<TopologySnapshot> {
        Arc::new(self.build_snapshot())
    }

    /// Attaches (or returns) this topology's publication cell. From this
    /// call on, every geometry rewrite ([`Self::bootstrap`],
    /// [`Self::split_region`], [`Self::merge_regions`]) atomically
    /// republishes a fresh [`TopologySnapshot`] into the cell, so reader
    /// threads created with [`SnapshotCell::reader`] observe a coherent
    /// epoch-by-epoch history of the geometry while this topology keeps
    /// mutating. Unattached topologies (the default) pay nothing.
    ///
    /// Clones do **not** inherit the cell: a clone diverges immediately,
    /// and its geometry must never reach the original's readers.
    ///
    /// # Panics
    ///
    /// Panics if the topology was built with `Default` and never given a
    /// space.
    pub fn publish_handle(&mut self) -> Arc<SnapshotCell> {
        if let Some(cell) = &self.publish {
            return Arc::clone(cell);
        }
        let cell = Arc::new(SnapshotCell::new(self.snapshot()));
        self.publish = Some(Arc::clone(&cell));
        cell
    }

    /// Republishes the current geometry into the attached publication
    /// cell; a no-op (no snapshot is even built) while no cell is
    /// attached. Publication happens only here and only beside the epoch
    /// bump, at the three geometry-rewrite sites: this function is private
    /// and [`SnapshotCell::install_snapshot`] is `pub(crate)`, so nothing
    /// outside this crate can publish. A site that skips this call leaves
    /// the cell behind the epoch: the auditor reports `stale-snapshot`,
    /// and `epoch_bumps_on_geometry_changes_only` fails.
    fn publish_snapshot(&mut self) {
        if let Some(cell) = &self.publish {
            cell.install_snapshot(self.snapshot());
        }
    }

    /// Flattens the current geometry into a fresh [`TopologySnapshot`]
    /// (CSR adjacency and grid candidate lists, cloned slot mirrors).
    fn build_snapshot(&self) -> TopologySnapshot {
        let slots = self.slots.len();
        let mut live = Vec::with_capacity(slots);
        let mut neighbor_off = Vec::with_capacity(slots + 1);
        let mut neighbor_ids = Vec::new();
        neighbor_off.push(0u32);
        for s in &self.slots {
            match s {
                Some(e) => {
                    live.push(true);
                    neighbor_ids.extend_from_slice(&e.neighbors);
                }
                None => live.push(false),
            }
            neighbor_off.push(neighbor_ids.len() as u32);
        }
        let cells = self.grid.buckets.cells();
        let mut cell_off = Vec::with_capacity(cells.len() + 1);
        let mut cell_ids = Vec::with_capacity(self.grid.entries);
        cell_off.push(0u32);
        for cell in cells {
            cell_ids.extend_from_slice(cell);
            cell_off.push(cell_ids.len() as u32);
        }
        TopologySnapshot {
            space: self.space(),
            instance_id: self.id,
            epoch: self.epoch,
            region_count: self.region_count,
            slot_geo: self.slot_geo.clone(),
            slot_fingers: self.slot_fingers.clone(),
            live,
            neighbor_off,
            neighbor_ids,
            grid: self.grid.buckets.grid(),
            cell_off,
            cell_ids,
            finger_base: rules::finger_base(&self.space()),
        }
    }

    /// [`ViolationKind::StaleSnapshot`] if the published snapshot is not
    /// this topology at this epoch. O(1), so [`Self::audit_local`] runs it
    /// too: a geometry rewrite that skips [`Self::publish_snapshot`] is
    /// caught at the mutation.
    fn stale_snapshot(&self, snap: &TopologySnapshot) -> Option<Violation> {
        (snap.instance_id != self.id || snap.epoch != self.epoch).then(|| {
            Violation::new(
                ViolationKind::StaleSnapshot {
                    published: snap.epoch,
                    current: self.epoch,
                },
                format!(
                    "published snapshot is instance {} epoch {}, topology is instance {} epoch {}",
                    snap.instance_id, snap.epoch, self.id, self.epoch
                ),
            )
        })
    }

    /// Checks the published snapshot against this topology's live
    /// geometry: identity first ([`Self::stale_snapshot`] — on a mismatch
    /// content comparison proves nothing), then per-slot liveness,
    /// rectangles/centers (against the authoritative slot table, not the
    /// mirror), finger blocks, adjacency, and the grid candidate lists,
    /// all as [`ViolationKind::SnapshotDrift`].
    fn audit_snapshot(&self, snap: &TopologySnapshot, v: &mut Vec<Violation>) {
        if let Some(stale) = self.stale_snapshot(snap) {
            v.push(stale);
            return;
        }
        if snap.slot_count() != self.slots.len() || snap.region_count != self.region_count {
            v.push(Violation::new(
                ViolationKind::SnapshotDrift(RegionId::new(0)),
                format!(
                    "snapshot has {} slots / {} regions, topology has {} / {}",
                    snap.slot_count(),
                    snap.region_count,
                    self.slots.len(),
                    self.region_count
                ),
            ));
            return;
        }
        for slot in 0..self.slots.len() {
            let rid = RegionId::new(slot as u32);
            let Some(e) = &self.slots[slot] else {
                if snap.live[slot] {
                    v.push(Violation::new(
                        ViolationKind::SnapshotDrift(rid),
                        format!("{rid}: snapshot lists a dead slot as live"),
                    ));
                }
                continue;
            };
            if !snap.live[slot] {
                v.push(Violation::new(
                    ViolationKind::SnapshotDrift(rid),
                    format!("{rid}: snapshot lists a live slot as dead"),
                ));
                continue;
            }
            let geo = snap.slot_geo[slot];
            if geo.rect != e.region || geo.center != e.region.center() {
                v.push(Violation::new(
                    ViolationKind::SnapshotDrift(rid),
                    format!("{rid}: snapshot rect/center diverges from the region table"),
                ));
            }
            if snap.slot_fingers[slot].ids() != self.slot_fingers[slot].ids() {
                v.push(Violation::new(
                    ViolationKind::SnapshotDrift(rid),
                    format!("{rid}: snapshot finger block diverges from the finger mirror"),
                ));
            }
            let lo = snap.neighbor_off[slot] as usize;
            let hi = snap.neighbor_off[slot + 1] as usize;
            if snap.neighbor_ids[lo..hi] != e.neighbors[..] {
                v.push(Violation::new(
                    ViolationKind::SnapshotDrift(rid),
                    format!("{rid}: snapshot adjacency diverges from the neighbor list"),
                ));
            }
        }
        let cells = self.grid.buckets.cells();
        let snap_cells = snap.cell_off.len().saturating_sub(1);
        if snap_cells != cells.len() {
            v.push(Violation::new(
                ViolationKind::SnapshotDrift(RegionId::new(0)),
                format!(
                    "snapshot has {snap_cells} grid cells, topology has {}",
                    cells.len()
                ),
            ));
            return;
        }
        for (i, cell) in cells.iter().enumerate() {
            let lo = snap.cell_off[i] as usize;
            let hi = snap.cell_off[i + 1] as usize;
            if snap.cell_ids[lo..hi] != cell[..] {
                v.push(Violation::new(
                    ViolationKind::SnapshotDrift(RegionId::new(0)),
                    format!("grid cell {i}: snapshot candidate list diverges"),
                ));
            }
        }
    }

    /// Advances the geometry epoch. This is the **only** function allowed
    /// to write the epoch field (a write anywhere else surfaces as the
    /// auditor's `stale-snapshot` or `epoch-regression` violation), and it
    /// is called at exactly the three geometry-rewrite sites —
    /// [`Self::bootstrap`], [`Self::split_region`],
    /// [`Self::merge_regions`]. It is private, so only this file can call
    /// it; `epoch_bumps_on_geometry_changes_only` fails if one of those
    /// sites skips it.
    fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Debug-build hook run after every mutation: [`Self::audit_local`] on
    /// the slots the mutation rewrote, panicking on any violation *except*
    /// the legal orphan transient ([`ViolationKind::OrphanedOwner`] —
    /// `remove_node` hands orphaned regions back to the caller for repair,
    /// so the structure is allowed to carry them between mutations).
    /// Compiles to nothing in release builds, so protocol benchmarks and
    /// experiment binaries are unaffected.
    #[inline]
    fn debug_audit(&self, touched: &[RegionId]) {
        #[cfg(not(debug_assertions))]
        let _ = touched;
        #[cfg(debug_assertions)]
        {
            let bad: Vec<Violation> = self
                .audit_local(touched)
                .into_iter()
                .filter(|v| !matches!(v.kind, ViolationKind::OrphanedOwner(..)))
                .collect();
            assert!(
                bad.is_empty(),
                "post-mutation topology audit failed:\n{}",
                bad.iter()
                    .map(|v| format!("  {v}"))
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
    }

    fn ensure_unassigned(&self, node: NodeId) -> Result<(), CoreError> {
        if self.assignments.contains_key(&node) {
            return Err(CoreError::WrongRole {
                node,
                expected: "an unassigned node",
            });
        }
        Ok(())
    }

    fn entry(&self, rid: RegionId) -> Result<&RegionEntry, CoreError> {
        self.region(rid).ok_or(CoreError::UnknownRegion(rid))
    }

    fn entry_mut(&mut self, rid: RegionId) -> Result<&mut RegionEntry, CoreError> {
        self.slots
            .get_mut(rid.index())
            .and_then(|s| s.as_mut())
            .ok_or(CoreError::UnknownRegion(rid))
    }

    fn alloc_slot(&mut self, entry: RegionEntry) -> RegionId {
        self.region_count += 1;
        let region = entry.region;
        let geo = SlotGeo {
            rect: region,
            center: region.center(),
        };
        let rid = if let Some(i) = self.free.pop() {
            self.slots[i as usize] = Some(entry);
            self.slot_geo[i as usize] = geo;
            // A recycled slot's fingers were cleared (and its in-links
            // moved to the merge survivor) when it died; start from a
            // clean block.
            debug_assert!(
                self.finger_in[i as usize].is_empty(),
                "recycled slot {i} still has finger in-links"
            );
            self.slot_fingers[i as usize] = FingerBlock::EMPTY;
            RegionId::new(i)
        } else {
            self.slots.push(Some(entry));
            self.slot_geo.push(geo);
            self.slot_fingers.push(FingerBlock::EMPTY);
            self.finger_in.push(Vec::new());
            RegionId::new((self.slots.len() - 1) as u32)
        };
        self.grid.insert(rid, &region);
        rid
    }

    /// Rewrites the rectangle of live slot `rid` to `to`, keeping the grid
    /// index and the geometry mirror in sync. Callers bump [`Self::epoch`]
    /// at the surrounding mutation site.
    fn rewrite_geometry(&mut self, rid: RegionId, from: &Region, to: Region) {
        self.grid.remove(rid, from);
        self.grid.insert(rid, &to);
        self.slot_geo[rid.index()] = SlotGeo {
            rect: to,
            center: to.center(),
        };
    }

    fn free_slot(&mut self, rid: RegionId) {
        if let Some(entry) = self.slots[rid.index()].take() {
            self.grid.remove(rid, &entry.region);
            self.region_count -= 1;
            self.free.push(rid.as_u32());
        }
    }

    /// The correct value of finger `k` of live region `rid`, recomputed
    /// from scratch with [`rules::finger_point`] and `locate`. The audit's
    /// cross-check of the mirror: it must not panic even when the
    /// tessellation is corrupt and the point resolves to no region.
    fn try_finger_target(&self, rid: RegionId, k: usize) -> Option<u32> {
        // Authoritative center, not the slot mirror: a drifted mirror must
        // surface as exactly SlotMirrorDrift — not as a cascade of
        // mis-scaled fingers.
        let c = self.region(rid)?.region().center();
        let target = self.locate(rules::finger_point(&self.space(), c, k)).ok()?;
        Some(if target == rid {
            FINGER_NONE
        } else {
            target.as_u32()
        })
    }

    /// Points finger `k` of live region `rid` at `new`, keeping the
    /// reverse index exact: the old target (if any) forgets this finger
    /// before the new target learns it. An unchanged finger costs nothing.
    fn set_finger(&mut self, rid: RegionId, k: usize, new: u32) {
        let slot = rid.index();
        let old = self.slot_fingers[slot].ids[k];
        if old == new {
            return;
        }
        let packed = pack_finger_ref(rid, k);
        if old != FINGER_NONE {
            let list = &mut self.finger_in[old as usize];
            if let Some(i) = list.iter().position(|&x| x == packed) {
                list.swap_remove(i);
            }
        }
        self.slot_fingers[slot].ids[k] = new;
        if new != FINGER_NONE {
            self.finger_in[new as usize].push(packed);
        }
    }

    /// Recomputes every finger of live region `rid` after its own center
    /// moved (bootstrap, either half of a split, a merge survivor).
    /// `hints[k]` is the likely target of finger `k` ([`FINGER_NONE`]
    /// names `rid` itself): a hint whose rectangle covers the new finger
    /// point is the answer — the regions partition the space — so only a
    /// missed hint costs a `locate`, and only a changed finger edits the
    /// reverse index.
    fn refresh_fingers(&mut self, rid: RegionId, hints: &FingerBlock) {
        let space = self.space();
        let own = rid.as_u32();
        let center = self.slot_geo[rid.index()].center;
        for k in 0..FINGER_COUNT {
            let p = rules::finger_point(&self.space(), center, k);
            let hint = match hints.ids[k] {
                FINGER_NONE => own,
                h => h,
            };
            let target = if space.region_covers(&self.slot_geo[hint as usize].rect, p) {
                hint
            } else {
                self.locate(p)
                    .expect("invariant: finger points are clamped into a non-empty tessellation")
                    .as_u32()
            };
            self.set_finger(rid, k, if target == own { FINGER_NONE } else { target });
        }
    }

    /// Finger maintenance for [`Self::split_region`] (`rid` kept, `new_rid`
    /// given away). Every in-link of the old rectangle aims at a point
    /// that its source's unmoved center fixes, inside the old rectangle,
    /// which the two halves tile: one `region_covers` test on the given
    /// half decides which half it now names, and links that stay keep
    /// their list entries. Both halves then refresh their own fingers with
    /// the old rectangle's block as hints.
    fn fingers_after_split(&mut self, rid: RegionId, new_rid: RegionId) {
        let space = self.space();
        let given = self.slot_geo[new_rid.index()].rect;
        let mut links = std::mem::take(&mut self.finger_in[rid.index()]);
        let mut i = 0;
        while i < links.len() {
            let (src, k) = unpack_finger_ref(links[i]);
            let p = rules::finger_point(&self.space(), self.slot_geo[src as usize].center, k);
            if space.region_covers(&given, p) {
                self.slot_fingers[src as usize].ids[k] = new_rid.as_u32();
                self.finger_in[new_rid.index()].push(links.swap_remove(i));
            } else {
                i += 1;
            }
        }
        self.finger_in[rid.index()] = links;
        let parent = self.slot_fingers[rid.index()];
        self.refresh_fingers(rid, &parent);
        self.refresh_fingers(new_rid, &parent);
    }

    /// Finger maintenance for [`Self::merge_regions`]: the victim `b`
    /// (already freed) drops its own fingers, and its in-links move to the
    /// survivor `a` as they are — each aimed at a point inside `b`, which
    /// `a` now covers. `a`'s in-links stay valid (its rectangle only
    /// grew). Its own center moved, so its fingers refresh with their
    /// current targets as hints; that also folds any of them that named
    /// `b`, and so now name `a` itself, back to [`FINGER_NONE`].
    fn fingers_after_merge(&mut self, a: RegionId, b: RegionId) {
        for k in 0..FINGER_COUNT {
            self.set_finger(b, k, FINGER_NONE);
        }
        for packed in std::mem::take(&mut self.finger_in[b.index()]) {
            let (src, k) = unpack_finger_ref(packed);
            self.slot_fingers[src as usize].ids[k] = a.as_u32();
            self.finger_in[a.index()].push(packed);
        }
        let hints = self.slot_fingers[a.index()];
        self.refresh_fingers(a, &hints);
    }
}

// The live topology exposes the same read interface as its snapshots, so
// single-threaded callers route directly (no snapshot build) through the
// identical monomorphized engines.
impl TopologyView for Topology {
    fn space(&self) -> Space {
        Topology::space(self)
    }

    fn instance_id(&self) -> u64 {
        self.id
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn region_count(&self) -> usize {
        self.region_count
    }

    fn slot_count(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn is_live(&self, slot: usize) -> bool {
        self.slots.get(slot).is_some_and(Option::is_some)
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
        self.slots[slot].as_ref().map_or(&[], |e| &e.neighbors[..])
    }

    #[inline]
    fn finger_base(&self) -> f64 {
        rules::finger_base(&self.space())
    }

    fn locate(&self, p: Point) -> Result<RegionId, CoreError> {
        Topology::locate(self, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> Space {
        Space::paper_evaluation()
    }

    fn boot() -> (Topology, NodeId, RegionId) {
        let mut t = Topology::new(space());
        let n = t.register_node(Point::new(10.0, 10.0), 100.0);
        let r = t.bootstrap(n).expect("bootstrap");
        (t, n, r)
    }

    #[test]
    fn bootstrap_owns_whole_space() {
        let (t, n, r) = boot();
        let e = t.region(r).unwrap();
        assert_eq!(e.region(), space().bounds());
        assert_eq!(e.primary(), n);
        assert!(!e.is_full());
        assert!(e.neighbors().is_empty());
        t.validate().unwrap();
    }

    #[test]
    fn split_gives_joiner_a_half() {
        let (mut t, n, r) = boot();
        let j = t.register_node(Point::new(50.0, 50.0), 10.0);
        let nr = t.split_region(r, n, j).expect("split");
        assert_eq!(t.region_count(), 2);
        // Keeper's half contains the keeper's coordinate.
        assert!(t.region(r).unwrap().covers(Point::new(10.0, 10.0), space()));
        assert!(t
            .region(nr)
            .unwrap()
            .covers(Point::new(50.0, 50.0), space()));
        assert_eq!(t.region(nr).unwrap().primary(), j);
        assert_eq!(t.assignment(j), Some((nr, Role::Primary)));
        // The two halves are mutual neighbors.
        assert!(t.region(r).unwrap().neighbors().contains(&nr));
        assert!(t.region(nr).unwrap().neighbors().contains(&r));
        t.validate().unwrap();
    }

    #[test]
    fn split_requires_primary_and_free_joiner() {
        let (mut t, n, r) = boot();
        let j = t.register_node(Point::new(50.0, 50.0), 10.0);
        let stranger = t.register_node(Point::new(1.0, 1.0), 10.0);
        assert!(matches!(
            t.split_region(r, j, stranger),
            Err(CoreError::WrongRole { .. })
        ));
        t.split_region(r, n, j).unwrap();
        // j is now assigned; using it as `give` elsewhere must fail.
        assert!(matches!(
            t.split_region(r, n, j),
            Err(CoreError::WrongRole { .. })
        ));
    }

    #[test]
    fn deep_splits_keep_invariants() {
        let (mut t, _, _) = boot();
        // Join 63 more nodes at deterministic pseudo-random coords via scan
        // locate (ground truth).
        let mut x = 7.3_f64;
        let mut y = 41.1_f64;
        for i in 0..63 {
            x = (x * 31.7 + i as f64).rem_euclid(64.0);
            y = (y * 17.3 + 1.0 + i as f64).rem_euclid(64.0);
            let p = Point::new(x.max(0.01), y.max(0.01));
            let j = t.register_node(p, 10.0);
            let rid = t.locate_scan(p).unwrap();
            let primary = t.region(rid).unwrap().primary();
            t.split_region(rid, primary, j).unwrap();
        }
        assert_eq!(t.region_count(), 64);
        t.validate().unwrap();
    }

    #[test]
    fn merge_restores_parent_and_displaces_unnamed() {
        let (mut t, n, r) = boot();
        let j = t.register_node(Point::new(50.0, 50.0), 10.0);
        let nr = t.split_region(r, n, j).unwrap();
        let displaced = t.merge_regions(r, nr, n, None).expect("merge");
        assert_eq!(displaced, vec![j]);
        assert_eq!(t.region_count(), 1);
        assert_eq!(t.region(r).unwrap().region(), space().bounds());
        assert_eq!(t.assignment(j), None);
        t.validate().unwrap();
    }

    #[test]
    fn merge_can_keep_both_as_dual_peer() {
        let (mut t, n, r) = boot();
        let j = t.register_node(Point::new(50.0, 50.0), 10.0);
        let nr = t.split_region(r, n, j).unwrap();
        let displaced = t.merge_regions(r, nr, j, Some(n)).expect("merge");
        assert!(displaced.is_empty());
        let e = t.region(r).unwrap();
        assert_eq!(e.primary(), j);
        assert_eq!(e.secondary(), Some(n));
        t.validate().unwrap();
    }

    #[test]
    fn merge_rejects_non_rectangle() {
        let (mut t, n, r) = boot();
        let j = t.register_node(Point::new(50.0, 50.0), 10.0);
        let nr = t.split_region(r, n, j).unwrap();
        let k = t.register_node(Point::new(60.0, 60.0), 10.0);
        let nr2 = t.split_region(nr, j, k).unwrap();
        // r is the south half; nr2 is a quarter — not mergeable with r.
        assert!(matches!(
            t.merge_regions(r, nr2, n, None),
            Err(CoreError::NotMergeable(..))
        ));
    }

    #[test]
    fn secondary_lifecycle() {
        let (mut t, _n, r) = boot();
        let s = t.register_node(Point::new(5.0, 5.0), 50.0);
        t.set_secondary(r, s).unwrap();
        assert!(t.region(r).unwrap().is_full());
        assert!(matches!(
            t.set_secondary(r, s),
            Err(CoreError::WrongRole { .. })
        ));
        let s2 = t.register_node(Point::new(6.0, 6.0), 50.0);
        assert!(matches!(
            t.set_secondary(r, s2),
            Err(CoreError::RegionFull(_))
        ));
        let taken = t.take_secondary(r).unwrap();
        assert_eq!(taken, s);
        assert_eq!(t.assignment(s), None);
        assert!(matches!(
            t.take_secondary(r),
            Err(CoreError::NoSecondary(_))
        ));
        t.validate().unwrap();
    }

    #[test]
    fn swap_primaries_updates_assignments() {
        let (mut t, n, r) = boot();
        let j = t.register_node(Point::new(50.0, 50.0), 10.0);
        let nr = t.split_region(r, n, j).unwrap();
        t.swap_primaries(r, nr).unwrap();
        assert_eq!(t.region(r).unwrap().primary(), j);
        assert_eq!(t.region(nr).unwrap().primary(), n);
        assert_eq!(t.assignment(n), Some((nr, Role::Primary)));
        t.validate().unwrap();
    }

    #[test]
    fn switch_primary_with_secondary_across_regions() {
        let (mut t, n, r) = boot();
        let j = t.register_node(Point::new(50.0, 50.0), 10.0);
        let nr = t.split_region(r, n, j).unwrap();
        let s = t.register_node(Point::new(55.0, 55.0), 1000.0);
        t.set_secondary(nr, s).unwrap();
        // r's primary n swaps with nr's secondary s.
        t.switch_primary_with_secondary(r, nr).unwrap();
        assert_eq!(t.region(r).unwrap().primary(), s);
        assert_eq!(t.region(nr).unwrap().secondary(), Some(n));
        assert_eq!(t.region(nr).unwrap().primary(), j);
        t.validate().unwrap();
    }

    #[test]
    fn swap_roles_within_region() {
        let (mut t, n, r) = boot();
        let s = t.register_node(Point::new(5.0, 5.0), 1000.0);
        t.set_secondary(r, s).unwrap();
        t.swap_roles(r).unwrap();
        let e = t.region(r).unwrap();
        assert_eq!(e.primary(), s);
        assert_eq!(e.secondary(), Some(n));
        t.validate().unwrap();
    }

    #[test]
    fn departures_follow_paper_rules() {
        let (mut t, n, r) = boot();
        let s = t.register_node(Point::new(5.0, 5.0), 50.0);
        t.set_secondary(r, s).unwrap();
        // Secondary departs: region half-full, nothing else changes.
        assert_eq!(t.remove_node(s).unwrap(), None);
        assert!(!t.region(r).unwrap().is_full());
        // Re-add a secondary, then the primary departs: secondary activates.
        let s2 = t.register_node(Point::new(6.0, 6.0), 50.0);
        t.set_secondary(r, s2).unwrap();
        assert_eq!(t.remove_node(n).unwrap(), None);
        assert_eq!(t.region(r).unwrap().primary(), s2);
        assert!(!t.region(r).unwrap().is_full());
        // Sole owner departs: orphan reported — as the typed orphan
        // transient, and nothing else.
        assert_eq!(t.remove_node(s2).unwrap(), Some(r));
        let violations = t.audit();
        assert!(
            !violations.is_empty()
                && violations.iter().all(
                    |v| matches!(v.kind, ViolationKind::OrphanedOwner(n, rr) if n == s2 && rr == r)
                ),
            "expected only the orphan transient, got {violations:?}"
        );
        // Adopt to repair.
        let a = t.register_node(Point::new(7.0, 7.0), 10.0);
        t.adopt_region(r, a).unwrap();
        t.validate().unwrap();
    }

    #[test]
    fn locate_scan_agrees_with_coverage() {
        let (mut t, n, r) = boot();
        let j = t.register_node(Point::new(50.0, 50.0), 10.0);
        t.split_region(r, n, j).unwrap();
        let p = Point::new(33.0, 60.0);
        let rid = t.locate_scan(p).unwrap();
        assert!(t.region(rid).unwrap().covers(p, space()));
        assert!(matches!(
            t.locate_scan(Point::new(-1.0, 0.0)),
            Err(CoreError::OutOfSpace { .. })
        ));
    }

    #[test]
    fn locate_agrees_with_scan_through_splits_and_merges() {
        let (mut t, _, _) = boot();
        let mut x = 3.9_f64;
        let mut y = 27.5_f64;
        for i in 0..40 {
            x = (x * 29.1 + i as f64).rem_euclid(64.0);
            y = (y * 13.7 + 1.0 + i as f64).rem_euclid(64.0);
            let p = Point::new(x.max(0.01), y.max(0.01));
            let j = t.register_node(p, 10.0);
            let rid = t.locate(p).unwrap();
            assert_eq!(rid, t.locate_scan(p).unwrap());
            let primary = t.region(rid).unwrap().primary();
            t.split_region(rid, primary, j).unwrap();
        }
        // Merge a few sibling pairs back, then re-check agreement on a
        // probe lattice (including space edges and corners).
        let ids: Vec<RegionId> = t.region_ids().collect();
        let mut merges = 0;
        'outer: for &a in &ids {
            for &b in &ids {
                if a == b || t.region(a).is_none() || t.region(b).is_none() {
                    continue;
                }
                let (ra, rb) = (t.region(a).unwrap(), t.region(b).unwrap());
                if ra.region().merge(&rb.region()).is_some() {
                    let p = ra.primary();
                    if t.merge_regions(a, b, p, None).is_ok() {
                        merges += 1;
                        if merges == 5 {
                            break 'outer;
                        }
                    }
                }
            }
        }
        assert!(merges > 0, "expected at least one mergeable sibling pair");
        t.validate().unwrap();
        for ix in 0..=16 {
            for iy in 0..=16 {
                let p = Point::new(ix as f64 * 4.0, iy as f64 * 4.0);
                assert_eq!(t.locate(p).unwrap(), t.locate_scan(p).unwrap(), "at {p:?}");
            }
        }
    }

    #[test]
    fn locate_on_empty_and_out_of_space() {
        let t = Topology::new(space());
        assert!(matches!(
            t.locate(Point::new(1.0, 1.0)),
            Err(CoreError::EmptyNetwork)
        ));
        let (t, _, _) = boot();
        assert!(matches!(
            t.locate(Point::new(-0.5, 3.0)),
            Err(CoreError::OutOfSpace { .. })
        ));
        assert_eq!(
            t.locate(Point::new(0.0, 0.0)).unwrap(),
            t.first_region().unwrap()
        );
        assert_eq!(
            t.locate(Point::new(64.0, 64.0)).unwrap(),
            t.first_region().unwrap()
        );
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let (mut t, n, r) = boot();
        let j = t.register_node(Point::new(50.0, 50.0), 10.0);
        let nr = t.split_region(r, n, j).unwrap();
        t.merge_regions(r, nr, n, None).unwrap();
        let k = t.register_node(Point::new(40.0, 40.0), 10.0);
        let nr2 = t.split_region(r, n, k).unwrap();
        assert_eq!(nr2, nr, "freed slot should be reused");
        t.validate().unwrap();
    }

    #[test]
    fn epoch_bumps_on_geometry_changes_only() {
        let mut t = Topology::new(space());
        // Attached before the first rewrite: every rewrite site must
        // republish, so the cell tracks the epoch throughout.
        let cell = t.publish_handle();
        let n = t.register_node(Point::new(10.0, 10.0), 100.0);
        assert_eq!(t.epoch(), 0);
        let r = t.bootstrap(n).unwrap();
        assert_eq!(t.epoch(), 1);
        assert_eq!(cell.load().epoch(), t.epoch(), "bootstrap did not publish");
        let j = t.register_node(Point::new(50.0, 50.0), 10.0);
        let nr = t.split_region(r, n, j).unwrap();
        assert_eq!(t.epoch(), 2);
        assert_eq!(cell.load().epoch(), t.epoch(), "split did not publish");
        // Ownership-only operations leave geometry (and the epoch) alone.
        let s = t.register_node(Point::new(20.0, 20.0), 10.0);
        t.set_secondary(r, s).unwrap();
        t.swap_primaries(r, nr).unwrap();
        t.swap_primaries(r, nr).unwrap();
        t.take_secondary(r).unwrap();
        assert_eq!(t.epoch(), 2);
        t.merge_regions(r, nr, n, None).unwrap();
        assert_eq!(t.epoch(), 3);
        assert_eq!(cell.load().epoch(), t.epoch(), "merge did not publish");
        // Failed (validated-away) mutations must not bump either.
        assert!(t.split_region(nr, n, j).is_err());
        assert_eq!(t.epoch(), 3);
        t.validate().unwrap();
    }

    /// A healthy two-region topology for the corruption tests below.
    fn two_regions() -> (Topology, NodeId, RegionId, RegionId) {
        let (mut t, n, r) = boot();
        let j = t.register_node(Point::new(50.0, 50.0), 10.0);
        let nr = t.split_region(r, n, j).expect("split");
        (t, n, r, nr)
    }

    /// Whether the local audit of `rid` alone reports `kind`. The
    /// `audit_flags_*` tests below check both scopes with it: the full
    /// audit, and the local one given the slot the test corrupted.
    fn local_reports(t: &Topology, rid: RegionId, kind: ViolationKind) -> bool {
        t.audit_local(&[rid]).iter().any(|x| x.kind == kind)
    }

    /// Every mutation is audited, not a sample: a corruption planted
    /// before a topology's eleventh mutation is caught by that mutation.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "post-mutation topology audit failed")]
    fn every_mutation_is_audited() {
        let (mut t, _, r, _) = two_regions();
        let s = t.register_node(Point::new(5.0, 5.0), 50.0);
        for _ in 0..4 {
            t.set_secondary(r, s).unwrap();
            t.take_secondary(r).unwrap();
        }
        t.slot_geo[r.index()].center = Point::new(-1.0, -1.0);
        t.set_secondary(r, s).unwrap();
    }

    #[test]
    fn audit_flags_slot_mirror_drift() {
        let (mut t, _, r, _) = two_regions();
        t.slot_geo[r.index()].center = Point::new(-1.0, -1.0);
        let v = t.audit();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(matches!(v[0].kind, ViolationKind::SlotMirrorDrift(rr) if rr == r));
        assert!(local_reports(&t, r, v[0].kind));
    }

    /// Index of a live (non-NONE) finger of `rid`, or of a NONE one.
    fn finger_slot_where(t: &Topology, rid: RegionId, live: bool) -> usize {
        t.slot_fingers[rid.index()].ids[..FINGER_COUNT]
            .iter()
            .position(|&id| (id != FINGER_NONE) == live)
            .expect("a two-region topology has both live and self-resolving fingers")
    }

    #[test]
    fn audit_flags_dangling_finger() {
        let (mut t, n, r, _) = two_regions();
        // Free a slot so there is a dead id to point at.
        let j = t.register_node(Point::new(10.0, 50.0), 10.0);
        let r2 = t.split_region(r, n, j).expect("split");
        t.merge_regions(r, r2, n, None).expect("merge back");
        // Redirect a live finger of `r` at the freed slot, dropping its
        // reverse entry so exactly the dangling forward edge remains.
        let k = finger_slot_where(&t, r, true);
        let old = t.slot_fingers[r.index()].ids[k];
        let packed = pack_finger_ref(r, k);
        t.finger_in[old as usize].retain(|&x| x != packed);
        t.slot_fingers[r.index()].ids[k] = r2.as_u32();
        let v = t.audit();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            matches!(v[0].kind, ViolationKind::DanglingFinger(rr, kk) if rr == r && kk == k as u8),
            "{v:?}"
        );
        assert!(local_reports(&t, r, v[0].kind));
    }

    #[test]
    fn audit_flags_mis_scaled_finger() {
        let (mut t, _, r, nr) = two_regions();
        // Point a finger that geometry says resolves to `r` itself at the
        // neighbor, with a matching reverse entry, so only the finger
        // selection rule is broken — not the reverse index.
        let k = finger_slot_where(&t, r, false);
        t.slot_fingers[r.index()].ids[k] = nr.as_u32();
        t.finger_in[nr.index()].push(pack_finger_ref(r, k));
        let v = t.audit();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            matches!(v[0].kind, ViolationKind::MisScaledFinger(rr, kk) if rr == r && kk == k as u8),
            "{v:?}"
        );
        assert!(local_reports(&t, r, v[0].kind));
    }

    #[test]
    fn audit_flags_asymmetric_finger_link() {
        let (mut t, _, r, _) = two_regions();
        // Drop the reverse entry of a correct forward finger: the forward
        // edge still matches geometry, so only the mirror check fires.
        let k = finger_slot_where(&t, r, true);
        let target = t.slot_fingers[r.index()].ids[k];
        let packed = pack_finger_ref(r, k);
        t.finger_in[target as usize].retain(|&x| x != packed);
        let v = t.audit();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v.iter().all(|x| matches!(
                x.kind,
                ViolationKind::AsymmetricFingerLink(a, b)
                    if a == r && b == RegionId::new(target)
            )),
            "{v:?}"
        );
        assert!(local_reports(&t, r, v[0].kind));
    }

    #[test]
    fn audit_flags_stale_reverse_finger_entry() {
        let (mut t, _, r, nr) = two_regions();
        // Plant a reverse entry whose named source finger points elsewhere:
        // only the target's in-list rule can see it.
        let k = finger_slot_where(&t, r, false);
        t.finger_in[nr.index()].push(pack_finger_ref(r, k));
        let v = t.audit();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            matches!(
                v[0].kind,
                ViolationKind::AsymmetricFingerLink(a, b) if a == r && b == nr
            ),
            "{v:?}"
        );
        assert!(local_reports(&t, nr, v[0].kind));
    }

    #[test]
    fn audit_flags_repeated_reverse_finger_entry() {
        let (mut t, _, r, _) = two_regions();
        // Mirror a correct forward finger twice: every finger still has
        // its entry, so only the in-list rule can see it.
        let k = finger_slot_where(&t, r, true);
        let target = t.slot_fingers[r.index()].ids[k];
        t.finger_in[target as usize].push(pack_finger_ref(r, k));
        let v = t.audit();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            matches!(
                v[0].kind,
                ViolationKind::AsymmetricFingerLink(a, b) if a == r && b == RegionId::new(target)
            ),
            "{v:?}"
        );
        assert!(local_reports(&t, RegionId::new(target), v[0].kind));
    }

    #[test]
    fn audit_flags_stale_grid_bucket_and_counter_drift() {
        let (mut t, _, r, nr) = two_regions();
        // Plant the kept region's id in a cell far outside its span: the
        // bucket totals stop matching the incremental counter, and the
        // cell's owner finds the stray entry. The counter is global state,
        // so only the full audit checks it.
        let far = t.region(nr).unwrap().region().center();
        t.grid.buckets.insert_at(far, r);
        let v = t.audit();
        assert!(
            v.iter().any(
                |x| matches!(x.kind, ViolationKind::GridCounterDrift { counted, actual }
                    if actual == counted + 1)
            ),
            "{v:?}"
        );
        assert!(
            v.iter()
                .any(|x| matches!(x.kind, ViolationKind::StaleGridBucket(rr) if rr == r)),
            "{v:?}"
        );
        assert!(local_reports(&t, nr, ViolationKind::StaleGridBucket(r)));
    }

    #[test]
    fn audit_flags_missing_grid_entry() {
        let (mut t, _, r, _) = two_regions();
        let home = t.region(r).unwrap().region().center();
        assert!(
            t.grid.buckets.remove_at(home, r),
            "region is indexed in its own center cell"
        );
        t.grid.entries -= 1; // keep the counter honest: only the entry is lost
        let v = t.audit();
        assert!(
            v.iter()
                .any(|x| matches!(x.kind, ViolationKind::StaleGridBucket(rr) if rr == r)),
            "{v:?}"
        );
        assert!(
            !v.iter()
                .any(|x| matches!(x.kind, ViolationKind::GridCounterDrift { .. })),
            "{v:?}"
        );
        assert!(local_reports(&t, r, ViolationKind::StaleGridBucket(r)));
    }

    #[test]
    fn audit_flags_asymmetric_neighbor_link() {
        let (mut t, _, r, nr) = two_regions();
        let e = t.slots[r.index()].as_mut().unwrap();
        e.neighbors.retain(|&x| x != nr);
        let v = t.audit();
        assert!(!v.is_empty());
        assert!(
            v.iter().all(|x| matches!(
                x.kind,
                ViolationKind::AsymmetricNeighborLink(a, b)
                    if (a == r && b == nr) || (a == nr && b == r)
            )),
            "{v:?}"
        );
        assert!(local_reports(
            &t,
            r,
            ViolationKind::AsymmetricNeighborLink(r, nr)
        ));
    }

    #[test]
    fn audit_flags_tessellation_gap_and_overlap() {
        let (mut t, _, r, nr) = two_regions();
        // Shrink one half: a gap opens (and the grid/mirror go stale too,
        // since geometry was edited behind the mutators' backs).
        let shrunk = {
            let full = t.region(r).unwrap().region();
            Region::new(full.x(), full.y(), full.width() / 2.0, full.height())
        };
        t.slots[r.index()].as_mut().unwrap().region = shrunk;
        let v = t.audit();
        assert!(
            v.iter().any(|x| x.kind == ViolationKind::TessellationGap),
            "{v:?}"
        );
        assert!(local_reports(&t, r, ViolationKind::TessellationGap));
        // Now grow it over the whole space instead: an overlap with the
        // other half.
        t.slots[r.index()].as_mut().unwrap().region = space().bounds();
        let v = t.audit();
        assert!(
            v.iter().any(|x| matches!(
                x.kind,
                ViolationKind::TessellationOverlap(a, b)
                    if (a == r && b == nr) || (a == nr && b == r)
            )),
            "{v:?}"
        );
        assert!(local_reports(
            &t,
            r,
            ViolationKind::TessellationOverlap(r, nr)
        ));
    }

    #[test]
    fn audit_flags_dual_peer_mismatch_for_registered_owner() {
        let (mut t, n, r, nr) = two_regions();
        // The registered primary of `r` claims a different region: always a
        // bug, never the orphan transient.
        t.assignments.insert(n, (nr, Role::Secondary));
        let v = t.audit();
        assert!(!v.is_empty());
        assert!(
            v.iter()
                .all(|x| matches!(x.kind, ViolationKind::DualPeerMismatch(node, _) if node == n)),
            "{v:?}"
        );
        assert!(
            !v.iter()
                .any(|x| matches!(x.kind, ViolationKind::OrphanedOwner(..))),
            "{v:?}"
        );
        assert!(local_reports(&t, r, ViolationKind::DualPeerMismatch(n, r)));
    }

    #[test]
    fn audit_reports_all_violations_not_just_the_first() {
        let (mut t, _, r, nr) = two_regions();
        // Two independent corruptions in different subsystems must both
        // surface from one audit call.
        t.slot_geo[nr.index()].rect = Region::new(0.0, 0.0, 1.0, 1.0);
        let e = t.slots[r.index()].as_mut().unwrap();
        e.neighbors.push(r); // self-link: non-touching neighbor entry
        let v = t.audit();
        assert!(
            v.iter()
                .any(|x| matches!(x.kind, ViolationKind::SlotMirrorDrift(rr) if rr == nr)),
            "{v:?}"
        );
        assert!(
            v.iter()
                .any(|x| matches!(x.kind, ViolationKind::AsymmetricNeighborLink(a, _) if a == r)),
            "{v:?}"
        );
        // And validate() renders every one of them, not just the first.
        let msg = t.validate().unwrap_err();
        assert!(msg.contains("slot-mirror-drift") && msg.contains("asymmetric-neighbor-link"));
    }

    #[test]
    fn auditor_detects_epoch_regression() {
        use crate::audit::TopologyAuditor;
        let (mut t, _, _, _) = two_regions();
        let mut auditor = TopologyAuditor::new();
        assert!(auditor.observe(&t).is_empty());
        // A clone is a different instance: same epoch, no regression.
        let c = t.clone();
        assert!(auditor.observe(&c).is_empty());
        // Re-observe the original so the auditor's history points at it.
        assert!(auditor.observe(&t).is_empty());
        // Rewinding the same instance's epoch is a violation. (Only a test
        // can do this: the auditor reports any runtime epoch write that
        // bypasses bump_epoch, as this very assertion shows.)
        t.epoch = 0;
        let v = auditor.observe(&t);
        assert!(
            auditor.observe(&t).is_empty(),
            "regression is edge-triggered"
        );
        assert!(
            v.iter().any(|x| matches!(
                x.kind,
                ViolationKind::EpochRegression {
                    last_seen: 2,
                    observed: 0
                }
            )),
            "{v:?}"
        );
    }

    #[test]
    fn audit_detects_stale_published_snapshot() {
        let (mut t, _, r, _) = two_regions();
        let _cell = t.publish_handle();
        assert!(t.audit().is_empty(), "{:?}", t.audit());
        // Advance the epoch without republishing, as a rewrite site that
        // skipped `publish_snapshot` would.
        t.bump_epoch();
        let stale = |v: &[Violation]| {
            v.iter().any(|x| {
                matches!(
                    x.kind,
                    ViolationKind::StaleSnapshot { published, current }
                        if published + 1 == current
                )
            })
        };
        assert!(stale(&t.audit()), "{:?}", t.audit());
        // The post-mutation audit sees it too, given any touched slot.
        assert!(stale(&t.audit_local(&[r])), "{:?}", t.audit_local(&[r]));
    }

    #[test]
    fn audit_detects_snapshot_content_drift() {
        let (mut t, _, r, _) = two_regions();
        let cell = t.publish_handle();
        // Side-load a corrupted snapshot of the *same* epoch: identity
        // matches, so the audit must compare content and catch the
        // dead-listed live region.
        let mut snap = t.build_snapshot();
        snap.live[r.index()] = false;
        cell.install_snapshot(Arc::new(snap));
        let v = t.audit();
        assert!(
            v.iter()
                .any(|x| matches!(x.kind, ViolationKind::SnapshotDrift(rr) if rr == r)),
            "{v:?}"
        );
    }

    #[test]
    fn clones_get_fresh_instance_ids_and_soa_stays_exact() {
        let (mut t, n, r) = boot();
        let c = t.clone();
        assert_ne!(t.instance_id(), c.instance_id());
        assert_eq!(t.epoch(), c.epoch());
        let j = t.register_node(Point::new(50.0, 50.0), 10.0);
        let nr = t.split_region(r, n, j).unwrap();
        for rid in [r, nr] {
            let e = t.region(rid).unwrap();
            assert_eq!(t.slot_rect(rid.index()), e.region());
            assert_eq!(t.slot_center(rid.index()), e.region().center());
        }
        assert_eq!(t.slot_count(), 2);
        t.validate().unwrap();
        c.validate().unwrap();
    }
}
