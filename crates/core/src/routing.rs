//! Geographic routing over the region mesh.
//!
//! §2.2 of the paper: "routing in a GeoGrid network works by following the
//! straight line path through the two dimensional coordinate space from
//! source to destination node" — each region forwards to the immediate
//! neighbor closest to the destination until the covering region is
//! reached. Over `N` regions this costs `O(2√N)` hops.
//!
//! # One walk, three next-hop rules
//!
//! [`Router`] is the one way in. Every route runs one private walk, and
//! [`RouteOptions`] picks the next hop, once per route, as a generic
//! closure (so the greedy and express walks compile without the
//! randomized branch in their inner loop):
//!
//! * [`RouteOptions::Greedy`] — the paper's walk: the unvisited neighbor
//!   closest to the target, hop-for-hop identical to [`route_uncached`];
//! * [`RouteOptions::Express`] — an express descent over the region's
//!   fingers, then the greedy walk for the last mile (below);
//! * [`RouteOptions::Randomized`] — the paper's *randomization of routing
//!   entries*: a uniform draw among the unvisited neighbors within a
//!   relative tie window of the best, spreading transit load.
//!
//! Nothing is remembered from earlier queries, and the walk allocates
//! nothing per query: a router keeps a **generation-stamped visited
//! array** indexed by region slot ([`RegionId::index`]) instead of a
//! per-query `HashSet` — marking a region visited is one store, clearing
//! all marks is one counter bump — and recycles its hop buffers.
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
//! Every route is generic over [`TopologyView`]: the same code runs on a
//! live `&Topology` or on an immutable
//! [`TopologySnapshot`](crate::snapshot::TopologySnapshot), where N
//! reader threads each hold their own `Router` and route lock-free while
//! writers mutate the live topology.
//!
//! # Express links
//!
//! Greedy forwarding costs `O(√N)` hops no matter how cheap each hop is,
//! so beyond ~16k regions route *length* dominates. An express route
//! layers the topology's express fingers (see
//! [`Topology::slot_fingers`](crate::Topology::slot_fingers): per region, one link per doubling of
//! distance per compass direction, Kleinberg/Chord-style) on top of the
//! greedy walk:
//!
//! 1. **Express descent** — while the remaining distance exceeds both the
//!    finger floor ([`rules::finger_base`]) and [`EXPRESS_ENGAGE`](rules::EXPRESS_ENGAGE)
//!    current-region diameters, follow the best finger that cuts the
//!    remaining rectangle distance to at most [`EXPRESS_DECAY`](rules::EXPRESS_DECAY)× — but
//!    only when that finger strictly beats every immediate neighbor's
//!    greedy key, so the express phase never takes a hop plain greedy
//!    would have bettered. Each hop shrinks the distance geometrically,
//!    giving `O(log N)` express hops; no visited marks are needed (or
//!    written) because the decay makes loops impossible. The decision is
//!    [`rules::express`], which the engine's forwarding step also calls.
//! 2. **Last mile** — the greedy walk from the handoff region, hop-for-hop
//!    what [`route_uncached`] walks from there
//!    ([`Router::express_prefix`] marks the boundary in the trace).

use std::collections::HashSet;

use geogrid_geometry::{Point, Region};
use rand::SeedableRng;

use crate::rules::{self, EXPRESS_MAX_HOPS, FINGER_COUNT};
use crate::snapshot::TopologyView;
use crate::topology::FINGER_NONE;
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

/// Reusable routing state: visited stamps and hop/candidate buffers,
/// nothing that outlives a query's answer. A scratch may be reused
/// freely across topology instances and views: the stamp table only ever
/// grows to the largest slot count seen.
#[derive(Debug, Clone, Default)]
struct RouteScratch {
    /// `stamps[slot] == generation` ⇔ slot visited in the current query.
    /// One byte per slot: the whole stamp table for a 16k-region network
    /// is 16 KiB, so it stays cache-resident; the cheap price is a full
    /// clear every 255 generations at the `u8` wrap.
    stamps: Vec<u8>,
    generation: u8,
    /// Hop trace of the most recent successful routed query.
    hops: Vec<RegionId>,
    /// Length of the express prefix of the most recent trace (0 for
    /// greedy and randomized routes); see [`Router::express_prefix`].
    express_len: usize,
    /// Recycled candidate buffer for randomized routing.
    cand: Vec<RegionId>,
}

impl RouteScratch {
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

    /// The one routing walk (see the [module docs](self)): with `express`,
    /// the finger descent first; then the greedy walk, whose every hop is
    /// `next(self, slot)` from the current region's slot. The hop trace
    /// lands in `self.hops`, the handoff index in `self.express_len`.
    ///
    /// The descent records its hops but marks none visited, so the walk
    /// that follows sees exactly the state [`route_uncached`] would build
    /// starting at the handoff. A walk that outruns its hop budget or
    /// finds no next hop (degenerate topology; should not happen on a
    /// valid partition) ends at the spatial index's answer, so callers
    /// still make progress.
    fn walk<V, F>(
        &mut self,
        view: &V,
        from: RegionId,
        target: Point,
        express: bool,
        mut next: F,
    ) -> Result<RegionId, CoreError>
    where
        V: TopologyView + ?Sized,
        F: FnMut(&mut Self, usize) -> Option<RegionId>,
    {
        self.begin(view, from, target)?;
        let mut current = from;
        if express {
            let floor = view.finger_base();
            while self.express_len < EXPRESS_MAX_HOPS {
                let Some(hop) = express_choice(view, current, target, floor) else {
                    break;
                };
                self.hops.push(hop);
                current = hop;
                self.express_len += 1;
            }
        }
        self.visit(current.index());
        let budget = 8 * (view.region_count() as f64).sqrt() as usize + 64;
        loop {
            let slot = current.index();
            if !view.is_live(slot) {
                return Err(CoreError::UnknownRegion(current));
            }
            if view.covers(slot, target) {
                return Ok(current);
            }
            let hop = if self.hops.len() - self.express_len > budget {
                None
            } else {
                next(self, slot)
            };
            let Some(hop) = hop else {
                let executor = view.locate(target)?;
                self.hops.push(executor);
                return Ok(executor);
            };
            self.visit(hop.index());
            self.hops.push(hop);
            current = hop;
        }
    }

    /// The randomized next hop from `slot`: a uniform draw among the
    /// unvisited neighbors within the `slack`-relative tie window of the
    /// best closest-point distance (ascending by id), or the greedy
    /// minimum when the window is empty.
    fn draw<V: TopologyView + ?Sized, R: rand::Rng + ?Sized>(
        &mut self,
        view: &V,
        slot: usize,
        target: Point,
        slack: f64,
        rng: &mut R,
    ) -> Option<RegionId> {
        self.cand.clear();
        // Pass 1: best closest-point distance among unvisited neighbors.
        let mut best = f64::INFINITY;
        for &n in view.neighbors(slot) {
            if !self.visited(n.index()) {
                best = best.min(view.slot_rect(n.index()).distance_to_point(target));
            }
        }
        // Pass 2: keep everything within the tie window.
        if best < f64::INFINITY {
            let cutoff = best + slack * best.max(1e-9);
            for &n in view.neighbors(slot) {
                if !self.visited(n.index())
                    && view.slot_rect(n.index()).distance_to_point(target) <= cutoff
                {
                    self.cand.push(n);
                }
            }
            self.cand.sort_unstable();
        }
        if self.cand.is_empty() {
            return scan_next_hop(view, slot, target, self);
        }
        Some(self.cand[rng.random_range(0..self.cand.len())])
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

/// The express decision at `current` toward `target`: the finger to
/// follow, or `None` to hand off to the greedy walk — [`rules::express`]
/// over the region's finger block and its neighbors, keyed by region id.
///
/// Deterministic in the geometry alone (no visited state).
fn express_choice<V: TopologyView + ?Sized>(
    view: &V,
    current: RegionId,
    target: Point,
    floor: f64,
) -> Option<RegionId> {
    let slot = current.index();
    let candidate = |r: RegionId| (view.slot_rect(r.index()), r);
    let fingers = view.slot_fingers(slot).ids()[..FINGER_COUNT]
        .iter()
        .filter(|&&raw| raw != FINGER_NONE)
        .map(|&raw| candidate(RegionId::new(raw)));
    let neighbors = view.neighbors(slot).iter().map(|&n| candidate(n));
    let center = |_: &Region, r: RegionId| view.slot_center(r.index());
    rules::express(
        &view.slot_rect(slot),
        target,
        floor,
        fingers,
        neighbors,
        center,
    )
}

/// Which walk a [`Router`] query takes (see the [module docs](self)).
///
/// `RouteOptions::default()` is the plain greedy walk.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum RouteOptions {
    /// The paper's greedy mesh walk (§2.2): `O(√N)` hops, hop-for-hop
    /// identical to [`route_uncached`].
    #[default]
    Greedy,
    /// Express descent over the topology's fingers (`O(log N)` hops),
    /// then the greedy walk for the last mile.
    Express,
    /// The greedy walk with each next hop drawn uniformly from the
    /// unvisited neighbors within this `slack`-relative tie window of the
    /// best.
    Randomized(f64),
}

impl RouteOptions {
    // Shim for the frozen benchmark/src/{probes,model}.rs only; the next benchmark PR deletes it.
    #[doc(hidden)]
    pub fn express() -> Self {
        Self::Express
    }
}

/// The routing facade and the only way into the walk: visited stamps and
/// recycled hop buffers (no per-query allocation) plus an RNG for
/// randomized queries.
///
/// A `Router` works on any [`TopologyView`]: pass `&Topology` on the
/// single-threaded path or `&TopologySnapshot` when routing concurrently
/// against a published snapshot (one `Router` per reader thread — the
/// router is the per-thread state, the snapshot the shared immutable
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
///     .route(&t, from, Point::new(12.0, 51.0), &RouteOptions::Greedy)
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
            scratch: RouteScratch::default(),
            rng: rand::rngs::SmallRng::seed_from_u64(seed),
        }
    }

    /// Routes from `from` to the region covering `target` on `view` by
    /// the walk `options` names. Returns the executor region; the hop
    /// trace is in [`Self::hops`].
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
        dispatch(
            &mut self.scratch,
            view,
            from,
            target,
            options,
            &mut self.rng,
        )
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
        dispatch(&mut self.scratch, view, from, target, options, rng)
    }

    /// The hop trace of the most recent successful route: starts at the
    /// source, ends at the executor (same contract as [`RoutePath::hops`]).
    pub fn hops(&self) -> &[RegionId] {
        &self.scratch.hops
    }

    /// Hop count of the most recent successful route.
    pub fn hop_count(&self) -> usize {
        self.scratch.hops.len().saturating_sub(1)
    }

    /// Index into [`Self::hops`] of the express→greedy handoff region of
    /// the most recent route: `hops()[prefix..]` is the last-mile greedy
    /// segment (hop-for-hop what [`route_uncached`] walks from the handoff
    /// region), `hops()[..prefix]` the express descent. 0 when no express
    /// hop was taken or after a greedy or randomized route.
    pub fn express_prefix(&self) -> usize {
        self.scratch.express_len
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

/// Picks the next-hop rule once for the route and runs the one walk with
/// it: the greedy and express walks share the unvisited-minimum closure.
fn dispatch<V: TopologyView + ?Sized, R: rand::Rng + ?Sized>(
    scratch: &mut RouteScratch,
    view: &V,
    from: RegionId,
    target: Point,
    options: &RouteOptions,
    rng: &mut R,
) -> Result<RegionId, CoreError> {
    let greedy = |s: &mut RouteScratch, slot| scan_next_hop(view, slot, target, s);
    match *options {
        RouteOptions::Greedy => scratch.walk(view, from, target, false, greedy),
        RouteOptions::Express => scratch.walk(view, from, target, true, greedy),
        RouteOptions::Randomized(slack) => scratch.walk(view, from, target, false, |s, slot| {
            s.draw(view, slot, target, slack, rng)
        }),
    }
}

/// The original allocating implementation — per-query `HashSet` and
/// `Vec`s, no scratch. Kept as the reference the zero-allocation walk
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
                .route(&t, from, target, &RouteOptions::Greedy)
                .expect("route");
            assert!(t.region(executor).unwrap().covers(target, t.space()));
            assert_eq!(executor, t.locate_scan(target).unwrap());
            assert_eq!(*router.hops().first().unwrap(), from);
            assert_eq!(*router.hops().last().unwrap(), executor);
        }
    }

    #[test]
    fn route_to_own_region_is_zero_hops() {
        let t = grid_topology(4);
        let from = t.first_region().unwrap();
        let inside = t.region(from).unwrap().region().center();
        let mut router = Router::new();
        let executor = router
            .route(&t, from, inside, &RouteOptions::Greedy)
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
            router.route(&t, from, Point::new(100.0, 0.0), &RouteOptions::Greedy),
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
                    .route(t, from, target, &RouteOptions::Greedy)
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
    fn randomized_routing_reaches_cover_and_spreads_paths() {
        let t = grid_topology(6);
        let from = t.first_region().unwrap();
        let target = Point::new(60.0, 60.0);
        let mut router = Router::with_seed(3);
        let opts = RouteOptions::Randomized(0.25);
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
            .route(&t, from, target, &RouteOptions::Greedy)
            .unwrap();
        let greedy = router.hop_count();
        for p in &distinct_paths {
            assert!(p.len() - 1 <= greedy * 3 + 8);
        }
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
                        .route(&t, from, target, &RouteOptions::Greedy)
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
        let opts = RouteOptions::Express;
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
            .route(&t, from, target, &RouteOptions::Express)
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
            .route(&t, from, inside, &RouteOptions::Express)
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
            for opts in [RouteOptions::Greedy, RouteOptions::Express] {
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
