//! Greedy geographic routing.
//!
//! §2.2 of the paper: "routing in a GeoGrid network works by following the
//! straight line path through the two dimensional coordinate space from
//! source to destination node" — each region forwards to the immediate
//! neighbor closest to the destination until the covering region is
//! reached. Over `N` regions this costs `O(2√N)` hops.
//!
//! After the *executor* region (the one covering the query center) is
//! reached, a query whose rectangle spans several regions fans out to every
//! region overlapping the rectangle ([`fanout`]).
//!
//! # The routing engine
//!
//! Routing is a pure function of `(view, region, target)`: every hop is
//! decided from the current region's neighbor list (and, in the express
//! phase, its finger block) and nothing remembered from earlier queries.
//! Experiments issue millions of routed queries, so the hot path must not
//! allocate per query; [`RouteScratch`] packages the reusable state:
//!
//! * a **generation-stamped visited array** indexed by region slot
//!   ([`RegionId::index`]) replaces the per-query `HashSet` — marking a
//!   region visited is one store, clearing all marks is one counter bump;
//! * the hop and candidate `Vec`s are recycled across queries.
//!
//! There is deliberately no next-hop cache: a per-destination cache has
//! to be flushed on every split/merge, and under the churn the paper
//! describes (§2.3–2.4) it bought no end-to-end throughput while costing
//! set-up time, memory, and a latency spike after each flush (DESIGN.md
//! §6 has the measurements). [`route_uncached`] keeps the original
//! allocating implementation as the reference, and a property test
//! (`tests/route_parity.rs`) drives both through random topology
//! mutations to prove they agree hop for hop.
//!
//! # The Router facade
//!
//! [`Router`] is the one entry point: it owns a [`RouteScratch`] (and an
//! RNG for randomized queries) and dispatches on [`RouteOptions`] —
//! greedy, express, or randomized. Every engine is generic over
//! [`TopologyView`], so the same monomorphized code routes on a live
//! `&Topology` (single-threaded) or on an immutable
//! [`TopologySnapshot`](crate::snapshot::TopologySnapshot) published
//! through a [`SnapshotCell`](crate::snapshot::SnapshotCell) — N reader
//! threads each hold their own `Router` and route lock-free while
//! writers mutate the live topology. [`route_uncached`] is the one free
//! routing function, kept as the verification reference.
//!
//! # Express links
//!
//! Greedy forwarding costs `O(√N)` hops no matter how cheap each hop is,
//! so beyond ~16k regions route *length* dominates. The express engine
//! ([`RouteOptions::express`])
//! layers the topology's express fingers (see
//! [`Topology::slot_fingers`](crate::Topology::slot_fingers): per region, one link per doubling of
//! distance per compass direction, Kleinberg/Chord-style) on top of the
//! same engine as a two-phase route:
//!
//! 1. **Express descent** — while the remaining distance exceeds both the
//!    finger floor ([`Topology::finger_base`](crate::Topology::finger_base)) and [`EXPRESS_ENGAGE`]
//!    current-region diameters, follow the best finger that cuts the
//!    remaining rectangle distance to at most [`EXPRESS_DECAY`]× — but
//!    only when that finger strictly beats every immediate neighbor's
//!    greedy key, so the express phase never takes a hop plain greedy
//!    would have bettered. Each hop shrinks the distance geometrically,
//!    giving `O(log N)` express hops; no visited marks are needed (or
//!    written) because the decay makes loops impossible.
//! 2. **Last mile** — hand off to the unmodified greedy walk, which is
//!    hop-for-hop identical to [`route_uncached`] from the handoff region
//!    ([`RouteScratch::express_prefix`] marks the boundary in the trace).

use std::collections::HashSet;

use geogrid_geometry::{Point, Region};
use rand::SeedableRng;

use crate::snapshot::TopologyView;
use crate::topology::{FINGER_COUNT, FINGER_NONE};
use crate::{CoreError, RegionId};

/// The result of routing a request to its executor region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutePath {
    /// The region covering the destination point.
    pub executor: RegionId,
    /// Every region visited, starting with the source and ending with the
    /// executor. `hops.len() - 1` is the hop count.
    pub hops: Vec<RegionId>,
}

impl RoutePath {
    /// Number of forwarding steps taken.
    pub fn hop_count(&self) -> usize {
        self.hops.len().saturating_sub(1)
    }
}

/// Express qualification: a finger may be followed only if it cuts the
/// remaining rectangle distance to at most this fraction. Guarantees
/// geometric decay (so the express phase is loop-free and `O(log N)`
/// hops) and keeps marginal fingers from displacing a greedy hop that
/// would have made the same progress. Must exceed `sin 45° ≈ 0.707`: the
/// fingers are axial, so a perfectly diagonal target can only shed that
/// fraction per jump along the better axis.
pub const EXPRESS_DECAY: f64 = 0.75;

/// Express engagement gate: the remaining distance must exceed this many
/// current-region diameters before a finger is considered. Within a few
/// diameters the target is a couple of greedy hops away and *any* express
/// detour risks costing more hops than plain greedy saves — that near
/// field is exactly the regime the paper's mesh walk is optimal in.
pub const EXPRESS_ENGAGE: f64 = 4.0;

/// Safety cap on express hops per query. The decay bound alone caps the
/// phase at `log(space/floor) / log(1/EXPRESS_DECAY)` ≈ 35 hops; this is
/// a backstop against float-edge stagnation, after which the route simply
/// hands off to greedy early.
const EXPRESS_MAX_HOPS: usize = 64;

/// Reusable routing state: visited stamps and hop/candidate buffers,
/// nothing that outlives a query's answer. [`Router`] owns one. See the
/// [module docs](self) for the design.
///
/// A scratch may be reused freely across different [`Topology`](crate::Topology) instances
/// and [`TopologyView`]s: the stamp table only ever grows to the largest
/// slot count seen.
#[derive(Debug, Clone)]
pub struct RouteScratch {
    /// `stamps[slot] == generation` ⇔ slot visited in the current query.
    /// One byte per slot: the whole stamp table for a 16k-region network
    /// is 16 KiB, so it stays cache-resident; the cheap price is a full
    /// clear every 255 generations at the `u8` wrap.
    stamps: Vec<u8>,
    generation: u8,
    /// Hop trace of the most recent successful routed query.
    hops: Vec<RegionId>,
    /// Length of the express prefix of the most recent trace (0 for plain
    /// greedy routes); see [`Self::express_prefix`].
    express_len: usize,
    /// Recycled candidate buffer for randomized routing.
    cand: Vec<RegionId>,
}

impl Default for RouteScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl RouteScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self {
            stamps: Vec::new(),
            generation: 0,
            hops: Vec::new(),
            express_len: 0,
            cand: Vec::new(),
        }
    }

    /// The hop trace of the most recent successful routed query: starts at
    /// the source, ends at the executor (same contract as
    /// [`RoutePath::hops`]).
    pub fn hops(&self) -> &[RegionId] {
        &self.hops
    }

    /// Hop count of the most recent successful routed query.
    pub fn hop_count(&self) -> usize {
        self.hops.len().saturating_sub(1)
    }

    /// Index into [`Self::hops`] of the express→greedy handoff region of
    /// the most recent express route: `hops()[prefix..]` is
    /// the last-mile greedy segment (hop-for-hop what [`route_uncached`]
    /// walks from the handoff region), `hops()[..prefix]` the express
    /// descent. 0 when no express hop was taken or after a plain greedy
    /// route.
    pub fn express_prefix(&self) -> usize {
        self.express_len
    }

    /// Validates one query against `view` and prepares the scratch for it:
    /// grows the stamp table to the view's slot count, starts a fresh
    /// visited generation, and opens the hop trace with `from`. A rejected
    /// query leaves the previous trace in place.
    fn begin<V: TopologyView + ?Sized>(
        &mut self,
        view: &V,
        from: RegionId,
        target: Point,
    ) -> Result<(), CoreError> {
        if !view.space().covers(target) {
            return Err(CoreError::OutOfSpace {
                x: target.x,
                y: target.y,
            });
        }
        if !view.is_live(from.index()) {
            return Err(CoreError::UnknownRegion(from));
        }
        let slots = view.slot_count();
        if self.stamps.len() < slots {
            self.stamps.resize(slots, 0);
        }
        self.next_generation();
        self.hops.clear();
        self.hops.push(from);
        self.express_len = 0;
        Ok(())
    }

    /// Starts a fresh visited generation. The stamps are one byte each, so
    /// after 255 queries the counter wraps and *every* stale stamp in the
    /// array would alias the new generation as "visited"; the wrap
    /// therefore clears the whole array and restarts the counter at 1
    /// (stamp 0 = never visited). Skipping the clear corrupts every 256th
    /// query — `route_scratch_wrap.rs` pins this down.
    fn next_generation(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamps.fill(0);
            self.generation = 1;
        }
    }

    #[inline]
    fn visit(&mut self, slot: usize) {
        self.stamps[slot] = self.generation;
    }

    #[inline]
    fn visited(&self, slot: usize) -> bool {
        self.stamps[slot] == self.generation
    }
}

/// Picks the next hop from `current` toward `target`: the neighbor whose
/// region is closest to the target (by closest-point distance, then center
/// distance, then id for determinism), excluding `visited` regions.
///
/// Returns `None` when `current` covers the target or no unvisited
/// neighbor exists.
pub fn next_hop<V: TopologyView + ?Sized>(
    view: &V,
    current: RegionId,
    target: Point,
    visited: &HashSet<RegionId>,
) -> Option<RegionId> {
    let slot = current.index();
    if !view.is_live(slot) {
        return None;
    }
    if view.covers(slot, target) {
        return None;
    }
    // Compute each neighbor's sort key once up front; a comparator that
    // recomputes both sides' distances evaluates each key about twice, and
    // the center distance (with its sqrt) is the expensive part.
    view.neighbors(slot)
        .iter()
        .copied()
        .filter(|n| !visited.contains(n))
        .map(|n| {
            let r = view.slot_rect(n.index());
            (r.distance_to_point(target), r.center().distance(target), n)
        })
        .min_by(|a, b| {
            a.partial_cmp(b)
                .expect("invariant: distances are finite (regions and coords are finite)")
        })
        .map(|(_, _, n)| n)
}

/// One scan over the neighbors of the region in `from_slot`, reading the
/// view's rectangle/center mirrors: the greedy minimum over **unvisited**
/// neighbors, ordered by the same `(closest-point distance, center
/// distance, id)` key as [`next_hop`].
#[inline]
fn scan_next_hop<V: TopologyView + ?Sized>(
    view: &V,
    from_slot: usize,
    target: Point,
    scratch: &RouteScratch,
) -> Option<RegionId> {
    let mut best: Option<(f64, f64, RegionId)> = None;
    for &n in view.neighbors(from_slot) {
        let slot = n.index();
        if scratch.visited(slot) {
            continue;
        }
        let key = (
            view.slot_rect(slot).distance_to_point(target),
            view.slot_center(slot).distance(target),
            n,
        );
        if best.is_none_or(|b| key < b) {
            best = Some(key);
        }
    }
    best.map(|k| k.2)
}

/// Shared fill of the randomized-routing candidate set: all unvisited
/// neighbors within the `slack`-relative tie window of the best
/// closest-point distance, ascending by id, written into `out` without
/// allocating.
fn candidates_into_filtered<V: TopologyView + ?Sized>(
    view: &V,
    from_slot: usize,
    target: Point,
    visited: impl Fn(RegionId) -> bool,
    slack: f64,
    out: &mut Vec<RegionId>,
) {
    out.clear();
    // Pass 1: best closest-point distance among unvisited neighbors.
    let mut best = f64::INFINITY;
    for &n in view.neighbors(from_slot) {
        if visited(n) {
            continue;
        }
        let d = view.slot_rect(n.index()).distance_to_point(target);
        if d < best {
            best = d;
        }
    }
    if best == f64::INFINITY {
        return;
    }
    // Pass 2: keep everything within the tie window.
    let cutoff = best + slack * best.max(1e-9);
    for &n in view.neighbors(from_slot) {
        if visited(n) {
            continue;
        }
        if view.slot_rect(n.index()).distance_to_point(target) <= cutoff {
            out.push(n);
        }
    }
    out.sort_unstable();
}

/// The greedy engine behind [`Router::route`] with
/// [`RouteOptions::greedy`] (see the [module docs](self)): the paper's
/// mesh walk with no per-query allocation. Returns the executor; the hop
/// trace is in [`RouteScratch::hops`].
///
/// Produces exactly the hops of [`route_uncached`] for every input.
pub(crate) fn greedy_into<V: TopologyView + ?Sized>(
    view: &V,
    from: RegionId,
    target: Point,
    scratch: &mut RouteScratch,
) -> Result<RegionId, CoreError> {
    scratch.begin(view, from, target)?;
    scratch.visit(from.index());
    greedy_loop(view, from, target, scratch, 0)
}

/// The greedy mesh walk shared by [`greedy_into`] (whole route, `base` 0)
/// and [`express_into`] (last mile, `base` = express prefix length):
/// termination test, hop budget relative to `base`, and one unvisited
/// neighbor scan per hop. The caller has already recorded and visited
/// `current`; the express prefix before `base` carries no visited marks,
/// so from the handoff on this walk sees exactly the state
/// [`route_uncached`] would build starting there.
fn greedy_loop<V: TopologyView + ?Sized>(
    view: &V,
    mut current: RegionId,
    target: Point,
    scratch: &mut RouteScratch,
    base: usize,
) -> Result<RegionId, CoreError> {
    let budget = 8 * (view.region_count() as f64).sqrt() as usize + 64;
    loop {
        let slot = current.index();
        if !view.is_live(slot) {
            return Err(CoreError::UnknownRegion(current));
        }
        if view.covers(slot, target) {
            return Ok(current);
        }
        if scratch.hops.len() - base > budget {
            // Degenerate topology (should not happen on a valid partition):
            // answer via the spatial index so callers still make progress.
            let executor = view.locate(target)?;
            scratch.hops.push(executor);
            return Ok(executor);
        }
        match scan_next_hop(view, slot, target, scratch) {
            Some(next) => {
                scratch.visit(next.index());
                scratch.hops.push(next);
                current = next;
            }
            None => {
                let executor = view.locate(target)?;
                scratch.hops.push(executor);
                return Ok(executor);
            }
        }
    }
}

/// The express decision at `current` toward `target`: the finger to
/// follow, or `None` to hand off to the greedy walk. A finger qualifies
/// when it cuts the remaining rectangle distance to at most
/// [`EXPRESS_DECAY`]× (geometric decay — the express phase cannot loop),
/// and the best qualified finger is followed only when its greedy key
/// `(closest-point distance, center distance, id)` strictly beats every
/// immediate neighbor's — otherwise plain greedy makes at least the same
/// progress and the express hop would only lengthen the route. Below the
/// finger floor, or within [`EXPRESS_ENGAGE`] diameters of the current
/// region, the express phase is over.
///
/// Deterministic in the geometry alone (no visited state).
fn express_choice<V: TopologyView + ?Sized>(
    view: &V,
    current: RegionId,
    target: Point,
    floor: f64,
) -> Option<RegionId> {
    let slot = current.index();
    let rect = view.slot_rect(slot);
    let d = rect.distance_to_point(target);
    // Hand off inside the near field: below the global finger floor, or
    // within a few diameters of the current region (where greedy needs
    // only a couple of hops and an express detour can only lose).
    if d <= floor.max(EXPRESS_ENGAGE * rect.width().max(rect.height())) {
        return None;
    }
    let cutoff = EXPRESS_DECAY * d;
    let mut best: Option<(f64, f64, RegionId)> = None;
    for &raw in &view.slot_fingers(slot).ids()[..FINGER_COUNT] {
        if raw == FINGER_NONE {
            continue;
        }
        let fslot = raw as usize;
        let rect_d = view.slot_rect(fslot).distance_to_point(target);
        if rect_d > cutoff {
            continue;
        }
        let key = (
            rect_d,
            view.slot_center(fslot).distance(target),
            RegionId::new(raw),
        );
        if best.is_none_or(|b| key < b) {
            best = Some(key);
        }
    }
    let best = best?;
    let mut best_neighbor: Option<(f64, f64, RegionId)> = None;
    for &n in view.neighbors(slot) {
        let key = (
            view.slot_rect(n.index()).distance_to_point(target),
            view.slot_center(n.index()).distance(target),
            n,
        );
        if best_neighbor.is_none_or(|b| key < b) {
            best_neighbor = Some(key);
        }
    }
    match best_neighbor {
        Some(nb) if best >= nb => None,
        _ => Some(best.2),
    }
}

/// Two-phase express route (see the [module docs](self)): descend the
/// express fingers while the remaining distance exceeds the finger floor,
/// then hand off to the paper-faithful greedy walk for the last mile. The
/// hop trace lands in [`RouteScratch::hops`] with the handoff index in
/// [`RouteScratch::express_prefix`]; the last-mile segment is hop-for-hop
/// what [`route_uncached`] walks from the handoff region.
///
/// On networks too coarse for any finger to qualify the express phase
/// takes zero hops and this is exactly [`greedy_into`].
pub(crate) fn express_into<V: TopologyView + ?Sized>(
    view: &V,
    from: RegionId,
    target: Point,
    scratch: &mut RouteScratch,
) -> Result<RegionId, CoreError> {
    scratch.begin(view, from, target)?;
    let floor = view.finger_base();
    let mut current = from;
    // Phase 1: express descent. Hops are recorded but NOT marked visited —
    // the greedy tail must start from exactly the visited state
    // route_uncached would have at the handoff (just the handoff itself),
    // and the decay guarantee already rules out express loops.
    let mut express_hops = 0usize;
    while express_hops < EXPRESS_MAX_HOPS {
        let Some(next) = express_choice(view, current, target, floor) else {
            break;
        };
        scratch.hops.push(next);
        current = next;
        express_hops += 1;
    }
    scratch.express_len = express_hops;
    // Phase 2: the unmodified greedy engine finishes the last mile.
    scratch.visit(current.index());
    greedy_loop(view, current, target, scratch, express_hops)
}

/// Like [`greedy_into`], but at each step picks uniformly at random among
/// the near-optimal next hops (`slack`-relative tie window), on the same
/// recycled scratch buffers.
///
/// Produces exactly the same hops for the same RNG state regardless of
/// which wrapper drives it.
pub(crate) fn randomized_into<V: TopologyView + ?Sized, R: rand::Rng + ?Sized>(
    view: &V,
    from: RegionId,
    target: Point,
    slack: f64,
    rng: &mut R,
    scratch: &mut RouteScratch,
) -> Result<RegionId, CoreError> {
    scratch.begin(view, from, target)?;
    let budget = 8 * (view.region_count() as f64).sqrt() as usize + 64;
    let mut current = from;
    scratch.visit(from.index());
    loop {
        let slot = current.index();
        if !view.is_live(slot) {
            return Err(CoreError::UnknownRegion(current));
        }
        if view.covers(slot, target) {
            return Ok(current);
        }
        if scratch.hops.len() > budget {
            let executor = view.locate(target)?;
            scratch.hops.push(executor);
            return Ok(executor);
        }
        let mut cand = std::mem::take(&mut scratch.cand);
        candidates_into_filtered(
            view,
            slot,
            target,
            |n| scratch.visited(n.index()),
            slack,
            &mut cand,
        );
        let next = if cand.is_empty() {
            scan_next_hop(view, slot, target, scratch)
        } else {
            Some(cand[rng.random_range(0..cand.len())])
        };
        scratch.cand = cand;
        match next {
            Some(next) => {
                scratch.visit(next.index());
                scratch.hops.push(next);
                current = next;
            }
            None => {
                let executor = view.locate(target)?;
                scratch.hops.push(executor);
                return Ok(executor);
            }
        }
    }
}

/// Which forwarding engine a [`Router`] query uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RouteEngine {
    /// The paper's greedy mesh walk (§2.2): `O(√N)` hops, hop-for-hop
    /// identical to [`route_uncached`].
    #[default]
    Greedy,
    /// Two-phase express route: finger descent (`O(log N)` hops), then
    /// the greedy walk for the last mile.
    Express,
}

/// Per-query options for [`Router::route`]: which engine forwards, and
/// whether next hops are randomized over the near-optimal tie window.
///
/// `RouteOptions::default()` is the plain greedy walk.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RouteOptions {
    /// The forwarding engine ([`RouteEngine::Greedy`] by default).
    pub engine: RouteEngine,
    /// `Some(slack)` picks uniformly at random among the next hops within
    /// the `slack`-relative tie window of the best (the paper's
    /// *randomization of routing entries*, spreading transit load over
    /// parallel corridors). Randomization always runs the greedy walk —
    /// `engine` is ignored when this is set.
    pub randomize: Option<f64>,
}

impl RouteOptions {
    /// Plain greedy forwarding (the default).
    pub fn greedy() -> Self {
        Self::default()
    }

    /// Two-phase express forwarding over the topology's finger links.
    pub fn express() -> Self {
        Self {
            engine: RouteEngine::Express,
            randomize: None,
        }
    }

    /// Greedy forwarding randomized over the `slack`-relative tie window.
    pub fn randomized(slack: f64) -> Self {
        Self {
            engine: RouteEngine::Greedy,
            randomize: Some(slack),
        }
    }
}

/// The routing facade: one reusable object bundling the zero-allocation
/// [`RouteScratch`] (visited stamps, hop buffer) with an RNG for
/// randomized queries, dispatching on [`RouteOptions`].
///
/// A `Router` works on any [`TopologyView`]: pass `&Topology` on the
/// single-threaded path or `&TopologySnapshot` when routing concurrently
/// against a published snapshot (one `Router` per reader thread — the
/// scratch is the per-thread state, the snapshot the shared immutable
/// one). Nothing in a router depends on the view it last routed on, so
/// one may be reused freely across views, epochs, and instances.
///
/// ```
/// use geogrid_core::routing::{RouteOptions, Router};
/// use geogrid_core::Topology;
/// use geogrid_geometry::{Point, Space};
///
/// let mut t = Topology::new(Space::paper_evaluation());
/// let n = t.register_node(Point::new(1.0, 1.0), 10.0);
/// t.bootstrap(n).unwrap();
///
/// let mut router = Router::new();
/// let from = t.first_region().unwrap();
/// let executor = router
///     .route(&t, from, Point::new(12.0, 51.0), &RouteOptions::greedy())
///     .unwrap();
/// assert_eq!(router.hops().last(), Some(&executor));
/// ```
#[derive(Debug, Clone)]
pub struct Router {
    scratch: RouteScratch,
    rng: rand::rngs::SmallRng,
}

impl Default for Router {
    fn default() -> Self {
        Self::new()
    }
}

impl Router {
    /// A fresh router with a fixed default RNG seed
    /// (use [`Self::with_seed`] or [`Self::route_with_rng`] when the
    /// randomized-tie stream must be controlled).
    pub fn new() -> Self {
        Self::with_seed(0x6765_6f67_7269_6421)
    }

    /// A fresh router whose randomized queries draw from a
    /// deterministically seeded RNG.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            scratch: RouteScratch::new(),
            rng: rand::rngs::SmallRng::seed_from_u64(seed),
        }
    }

    /// Routes from `from` to the region covering `target` on `view`,
    /// dispatching on `options`. Returns the executor region; the hop
    /// trace is in [`Self::hops`] (or [`Self::path`] for an owned copy).
    ///
    /// # Errors
    ///
    /// * [`CoreError::OutOfSpace`] if `target` lies outside the space.
    /// * [`CoreError::UnknownRegion`] if `from` is dead.
    /// * [`CoreError::EmptyNetwork`] if the network has no regions.
    pub fn route<V: TopologyView + ?Sized>(
        &mut self,
        view: &V,
        from: RegionId,
        target: Point,
        options: &RouteOptions,
    ) -> Result<RegionId, CoreError> {
        if let Some(slack) = options.randomize {
            return randomized_into(view, from, target, slack, &mut self.rng, &mut self.scratch);
        }
        match options.engine {
            RouteEngine::Greedy => greedy_into(view, from, target, &mut self.scratch),
            RouteEngine::Express => express_into(view, from, target, &mut self.scratch),
        }
    }

    /// Like [`Self::route`], but randomized queries draw from the
    /// caller's `rng` instead of the router's own — for experiment
    /// harnesses that must reproduce an exact historical random stream.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::route`].
    pub fn route_with_rng<V: TopologyView + ?Sized, R: rand::Rng + ?Sized>(
        &mut self,
        view: &V,
        from: RegionId,
        target: Point,
        options: &RouteOptions,
        rng: &mut R,
    ) -> Result<RegionId, CoreError> {
        if let Some(slack) = options.randomize {
            return randomized_into(view, from, target, slack, rng, &mut self.scratch);
        }
        match options.engine {
            RouteEngine::Greedy => greedy_into(view, from, target, &mut self.scratch),
            RouteEngine::Express => express_into(view, from, target, &mut self.scratch),
        }
    }

    /// The hop trace of the most recent successful route: starts at the
    /// source, ends at the executor.
    pub fn hops(&self) -> &[RegionId] {
        self.scratch.hops()
    }

    /// Hop count of the most recent successful route.
    pub fn hop_count(&self) -> usize {
        self.scratch.hop_count()
    }

    /// An owned [`RoutePath`] of the most recent successful route, or
    /// `None` if no route has completed yet.
    pub fn path(&self) -> Option<RoutePath> {
        self.scratch.hops().last().map(|&executor| RoutePath {
            executor,
            hops: self.scratch.hops().to_vec(),
        })
    }

    /// Index of the express→greedy handoff in [`Self::hops`] (see
    /// [`RouteScratch::express_prefix`]).
    pub fn express_prefix(&self) -> usize {
        self.scratch.express_prefix()
    }

    // Shims for the frozen benchmark/src/{probes,model}.rs only; the next benchmark PR deletes them.
    #[doc(hidden)]
    pub fn cached_entries(&self) -> usize {
        0
    }

    #[doc(hidden)]
    pub fn hit_rate(&self) -> f64 {
        0.0
    }

    #[doc(hidden)]
    pub fn reset_stats(&mut self) {}
}

/// The original allocating implementation — per-query `HashSet` and
/// `Vec`s, no scratch. Kept as the reference the zero-allocation engine
/// is verified against (the `route_parity` property test asserts the
/// [`Router`] facade matches this hop for hop) and as the baseline row in
/// benchmarks. Works on any [`TopologyView`], so the concurrency stress
/// test can run it against the very snapshot a reader routed on.
///
/// # Errors
///
/// Same conditions as [`Router::route`].
pub fn route_uncached<V: TopologyView + ?Sized>(
    view: &V,
    from: RegionId,
    target: Point,
) -> Result<RoutePath, CoreError> {
    if !view.space().covers(target) {
        return Err(CoreError::OutOfSpace {
            x: target.x,
            y: target.y,
        });
    }
    if !view.is_live(from.index()) {
        return Err(CoreError::UnknownRegion(from));
    }
    let budget = 8 * (view.region_count() as f64).sqrt() as usize + 64;
    let mut visited = HashSet::new();
    let mut hops = vec![from];
    let mut current = from;
    visited.insert(from);
    loop {
        let slot = current.index();
        if !view.is_live(slot) {
            return Err(CoreError::UnknownRegion(current));
        }
        if view.covers(slot, target) {
            return Ok(RoutePath {
                executor: current,
                hops,
            });
        }
        if hops.len() > budget {
            let executor = view.locate(target)?;
            hops.push(executor);
            return Ok(RoutePath { executor, hops });
        }
        match next_hop(view, current, target, &visited) {
            Some(next) => {
                visited.insert(next);
                hops.push(next);
                current = next;
            }
            None => {
                let executor = view.locate(target)?;
                hops.push(executor);
                return Ok(RoutePath { executor, hops });
            }
        }
    }
}

/// All regions a query rectangle must be delivered to: breadth-first flood
/// from the executor over neighbors overlapping `query`.
///
/// The paper forwards from the executor to the neighbors whose regions
/// intersect the query rectangle; the flood generalizes that to rectangles
/// wider than one neighborhood while visiting only overlapping regions.
/// The executor itself is always included (first).
pub fn fanout<V: TopologyView + ?Sized>(
    view: &V,
    executor: RegionId,
    query: &Region,
) -> Vec<RegionId> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    let mut frontier = vec![executor];
    seen.insert(executor);
    while let Some(rid) = frontier.pop() {
        if !view.is_live(rid.index()) {
            continue;
        }
        out.push(rid);
        for &n in view.neighbors(rid.index()) {
            if seen.contains(&n) {
                continue;
            }
            let overlaps = view.is_live(n.index()) && view.slot_rect(n.index()).intersects(query);
            if overlaps {
                seen.insert(n);
                frontier.push(n);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;
    use geogrid_geometry::Space;

    /// Builds a 2^k-region topology by repeated joins at grid points.
    fn grid_topology(k: u32) -> Topology {
        let space = Space::paper_evaluation();
        let mut t = Topology::new(space);
        let n0 = t.register_node(Point::new(1.0, 1.0), 10.0);
        t.bootstrap(n0).unwrap();
        let count = 1u32 << k;
        let mut i = 1u32;
        while (t.region_count() as u32) < count {
            // Halton-ish deterministic spread.
            let x = ((i as f64 * 0.754877666) % 1.0) * 63.0 + 0.5;
            let y = ((i as f64 * 0.569840296) % 1.0) * 63.0 + 0.5;
            let p = Point::new(x, y);
            let rid = t.locate_scan(p).unwrap();
            let primary = t.region(rid).unwrap().primary();
            let j = t.register_node(p, 10.0);
            t.split_region(rid, primary, j).unwrap();
            i += 1;
        }
        t.validate().unwrap();
        t
    }

    #[test]
    fn route_reaches_covering_region() {
        let t = grid_topology(6); // 64 regions
        let from = t.first_region().unwrap();
        let mut router = Router::new();
        for target in [
            Point::new(0.5, 0.5),
            Point::new(63.5, 63.5),
            Point::new(32.0, 1.0),
            Point::new(5.0, 60.0),
        ] {
            let executor = router
                .route(&t, from, target, &RouteOptions::greedy())
                .expect("route");
            assert!(t.region(executor).unwrap().covers(target, t.space()));
            assert_eq!(executor, t.locate_scan(target).unwrap());
            assert_eq!(*router.hops().first().unwrap(), from);
            assert_eq!(*router.hops().last().unwrap(), executor);
            let path = router.path().expect("a route just completed");
            assert_eq!(path.executor, executor);
            assert_eq!(&path.hops[..], router.hops());
        }
    }

    #[test]
    fn route_to_own_region_is_zero_hops() {
        let t = grid_topology(4);
        let from = t.first_region().unwrap();
        let inside = t.region(from).unwrap().region().center();
        let mut router = Router::new();
        let executor = router
            .route(&t, from, inside, &RouteOptions::greedy())
            .unwrap();
        assert_eq!(router.hop_count(), 0);
        assert_eq!(executor, from);
    }

    #[test]
    fn route_rejects_out_of_space() {
        let t = grid_topology(2);
        let from = t.first_region().unwrap();
        let mut router = Router::new();
        assert!(matches!(
            router.route(&t, from, Point::new(100.0, 0.0), &RouteOptions::greedy()),
            Err(CoreError::OutOfSpace { .. })
        ));
    }

    #[test]
    fn hop_counts_scale_like_sqrt_n() {
        // Mean hops at 256 regions should be well below 2*sqrt(256) = 32
        // and grow roughly as sqrt when quadrupling the network.
        let t_small = grid_topology(6); // 64
        let t_big = grid_topology(8); // 256
        let mean_hops = |t: &Topology| {
            let ids: Vec<RegionId> = t.region_ids().collect();
            let mut router = Router::new();
            let mut total = 0usize;
            let mut count = 0usize;
            for (i, &from) in ids.iter().enumerate() {
                let target = t
                    .region(ids[(i * 7 + 3) % ids.len()])
                    .unwrap()
                    .region()
                    .center();
                router
                    .route(t, from, target, &RouteOptions::greedy())
                    .unwrap();
                total += router.hop_count();
                count += 1;
            }
            total as f64 / count as f64
        };
        let small = mean_hops(&t_small);
        let big = mean_hops(&t_big);
        assert!(small < 16.0, "64-region mean hops {small}");
        assert!(big < 32.0, "256-region mean hops {big}");
        assert!(big > small, "hops must grow with network size");
    }

    #[test]
    fn next_hop_is_none_when_covering() {
        let t = grid_topology(4);
        let from = t.first_region().unwrap();
        let inside = t.region(from).unwrap().region().center();
        assert_eq!(next_hop(&t, from, inside, &HashSet::new()), None);
    }

    #[test]
    fn fanout_covers_exactly_overlapping_regions() {
        let t = grid_topology(6);
        let query = Region::new(20.0, 20.0, 24.0, 24.0);
        let executor = t.locate_scan(query.center()).unwrap();
        let fan = fanout(&t, executor, &query);
        assert_eq!(fan[0], executor);
        let expected: HashSet<RegionId> = t
            .regions()
            .filter(|(_, e)| e.region().intersects(&query))
            .map(|(rid, _)| rid)
            .collect();
        let got: HashSet<RegionId> = fan.iter().copied().collect();
        assert_eq!(got, expected);
        assert_eq!(fan.len(), got.len(), "no duplicates");
    }

    #[test]
    fn randomized_routing_reaches_cover_and_spreads_paths() {
        let t = grid_topology(6);
        let from = t.first_region().unwrap();
        let target = Point::new(60.0, 60.0);
        let mut router = Router::with_seed(3);
        let opts = RouteOptions::randomized(0.25);
        let mut distinct_paths = std::collections::HashSet::new();
        for _ in 0..20 {
            let executor = router.route(&t, from, target, &opts).unwrap();
            assert!(t.region(executor).unwrap().covers(target, t.space()));
            distinct_paths.insert(router.hops().to_vec());
        }
        // Randomization should explore more than one corridor.
        assert!(
            distinct_paths.len() > 1,
            "randomized routing always took the same path"
        );
        // And stay within the hop budget's ballpark of the greedy route.
        router
            .route(&t, from, target, &RouteOptions::greedy())
            .unwrap();
        let greedy = router.hop_count();
        for p in &distinct_paths {
            assert!(p.len() - 1 <= greedy * 3 + 8);
        }
    }

    #[test]
    fn fanout_of_tiny_query_is_executor_only() {
        let t = grid_topology(6);
        let executor = t.locate_scan(Point::new(10.0, 10.0)).unwrap();
        let inner = t.region(executor).unwrap().region();
        let tiny = Region::new(inner.center().x - 1e-6, inner.center().y - 1e-6, 2e-6, 2e-6);
        assert_eq!(fanout(&t, executor, &tiny), vec![executor]);
    }

    #[test]
    fn scratch_engine_matches_uncached_reference_on_all_pairs() {
        let t = grid_topology(6);
        let ids: Vec<RegionId> = t.region_ids().collect();
        let mut router = Router::new();
        // Twice over every (from, target) pair: the second round reuses
        // stamps across the generation wrap and must still agree hop for
        // hop.
        for _round in 0..2 {
            for &from in &ids {
                for &to in &ids {
                    let target = t.region(to).unwrap().region().center();
                    let reference = route_uncached(&t, from, target).unwrap();
                    let executor = router
                        .route(&t, from, target, &RouteOptions::greedy())
                        .unwrap();
                    assert_eq!(executor, reference.executor);
                    assert_eq!(router.hops(), &reference.hops[..]);
                }
            }
        }
    }

    #[test]
    fn express_route_tail_matches_uncached_reference() {
        let t = grid_topology(8); // 256 regions
        let ids: Vec<RegionId> = t.region_ids().collect();
        let mut router = Router::new();
        let opts = RouteOptions::express();
        // Twice: a long-lived router must answer the same on reuse.
        for _round in 0..2 {
            for (i, &from) in ids.iter().enumerate().step_by(5) {
                let target = t
                    .region(ids[(i * 13 + 7) % ids.len()])
                    .unwrap()
                    .region()
                    .center();
                let reference = route_uncached(&t, from, target).unwrap();
                let executor = router.route(&t, from, target, &opts).unwrap();
                assert_eq!(executor, reference.executor, "{from} -> {target:?}");
                assert!(
                    router.hop_count() <= reference.hop_count(),
                    "{from} -> {target:?}: express {} hops vs greedy {}",
                    router.hop_count(),
                    reference.hop_count()
                );
                // The last mile is hop-for-hop the greedy reference from
                // the handoff region.
                let handoff = router.hops()[router.express_prefix()];
                let tail = route_uncached(&t, handoff, target).unwrap();
                assert_eq!(&router.hops()[router.express_prefix()..], &tail.hops[..]);
            }
        }
    }

    #[test]
    fn express_route_saves_hops_on_long_paths() {
        let t = grid_topology(10); // 1024 regions
        let from = t.locate_scan(Point::new(0.5, 0.5)).unwrap();
        let target = Point::new(63.5, 63.5);
        let reference = route_uncached(&t, from, target).unwrap();
        let mut router = Router::new();
        let executor = router
            .route(&t, from, target, &RouteOptions::express())
            .unwrap();
        assert_eq!(executor, reference.executor);
        assert!(
            router.express_prefix() > 0,
            "corner-to-corner route at 1024 regions never took an express hop"
        );
        assert!(
            router.hop_count() * 2 <= reference.hop_count(),
            "express {} hops vs greedy {}",
            router.hop_count(),
            reference.hop_count()
        );
    }

    #[test]
    fn express_route_to_own_region_is_zero_hops() {
        let t = grid_topology(4);
        let from = t.first_region().unwrap();
        let inside = t.region(from).unwrap().region().center();
        let mut router = Router::new();
        let executor = router
            .route(&t, from, inside, &RouteOptions::express())
            .unwrap();
        assert_eq!(router.hop_count(), 0);
        assert_eq!(executor, from);
    }

    #[test]
    fn snapshot_routing_matches_topology_routing() {
        let t = grid_topology(8); // 256 regions
        let snap = t.snapshot();
        let ids: Vec<RegionId> = t.region_ids().collect();
        let mut on_topo = Router::new();
        let mut on_snap = Router::new();
        for (i, &from) in ids.iter().enumerate().step_by(3) {
            let target = t
                .region(ids[(i * 17 + 3) % ids.len()])
                .unwrap()
                .region()
                .center();
            for opts in [RouteOptions::greedy(), RouteOptions::express()] {
                let a = on_topo.route(&t, from, target, &opts).unwrap();
                let b = on_snap.route(&*snap, from, target, &opts).unwrap();
                assert_eq!(a, b, "{from} -> {target:?}");
                assert_eq!(on_topo.hops(), on_snap.hops(), "{from} -> {target:?}");
            }
            let reference = route_uncached(&t, from, target).unwrap();
            let on_view = route_uncached(&*snap, from, target).unwrap();
            assert_eq!(reference, on_view);
        }
        // The snapshot's own locate agrees with the live spatial index.
        for p in [
            Point::new(0.5, 0.5),
            Point::new(63.5, 63.5),
            Point::new(31.0, 7.0),
        ] {
            assert_eq!(snap.locate(p).unwrap(), t.locate(p).unwrap());
        }
    }
}
