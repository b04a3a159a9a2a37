//! Node bootstrap: the basic and dual-peer join protocols, departures,
//! and orphan repair.
//!
//! Basic join (§2.1): the joiner routes a join request to the region
//! covering its own coordinate; that region's owner splits the region in
//! half and hands one half (plus the relevant neighbor list) to the joiner.
//!
//! This model finds that region with [`Topology::locate`]. The regions
//! partition the space, so a greedy walk from any entry ends at the same
//! region, and nothing here reads the walk's hops; routing a join request
//! region by region is the engine's job
//! ([`Message::JoinRequest`](crate::engine::Message::JoinRequest)).
//!
//! Dual-peer join (§2.3): instead of splitting immediately, the joiner
//! probes the covering region **and its neighbors**. It prefers to fill a
//! half-full region whose owner has the least capacity (becoming primary if
//! it is the stronger of the two); only if every candidate already has a
//! dual peer does it split — choosing the candidate whose *primary* is
//! weakest, and then pairing up with the weaker owner of the two halves.

use geogrid_geometry::Point;

use crate::{CoreError, NodeId, RegionId, Topology};

/// Breadth-first rings of regions around `from` (excluding it),
/// deterministic order; used to find a join target when the local
/// neighborhood is saturated at the extent floor.
fn bfs_rings(topo: &Topology, from: RegionId) -> Vec<RegionId> {
    let mut seen = std::collections::HashSet::new();
    seen.insert(from);
    let mut frontier = vec![from];
    let mut out = Vec::new();
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &rid in &frontier {
            let Some(entry) = topo.region(rid) else {
                continue;
            };
            for &n in entry.neighbors() {
                if seen.insert(n) {
                    next.push(n);
                }
            }
        }
        next.sort();
        out.extend(next.iter().copied());
        frontier = next;
    }
    out
}

/// What a join did to the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinOutcome {
    /// The joiner became the primary owner of a freshly split region.
    SplitPrimary {
        /// The joiner's new region.
        region: RegionId,
    },
    /// The joiner filled a half-full region as its secondary.
    FilledSecondary {
        /// The region joined.
        region: RegionId,
    },
    /// The joiner filled a half-full region and, being stronger than the
    /// incumbent, took over as primary (the incumbent became secondary).
    FilledPrimary {
        /// The region joined.
        region: RegionId,
    },
    /// Dual-peer mode: every candidate was full, so a region was split and
    /// the joiner paired with the weaker half-owner.
    SplitSecondary {
        /// The region the joiner co-owns after the split.
        region: RegionId,
        /// The region slot created by the split (may equal `region`).
        new_region: RegionId,
        /// Whether the joiner ended up primary there.
        as_primary: bool,
    },
}

impl JoinOutcome {
    /// The region the joiner ended up owning (or co-owning).
    pub fn region(&self) -> RegionId {
        match *self {
            JoinOutcome::SplitPrimary { region }
            | JoinOutcome::FilledSecondary { region }
            | JoinOutcome::FilledPrimary { region }
            | JoinOutcome::SplitSecondary { region, .. } => region,
        }
    }

    /// The region slot this join created, if it split one.
    pub fn created_region(&self) -> Option<RegionId> {
        match *self {
            JoinOutcome::SplitPrimary { region } => Some(region),
            JoinOutcome::SplitSecondary { new_region, .. } => Some(new_region),
            _ => None,
        }
    }
}

/// Performs a **basic GeoGrid** join: split the region covering `coord`.
///
/// Returns the joiner's node id and outcome.
///
/// # Errors
///
/// * [`CoreError::OutOfSpace`] if `coord` is outside the space.
/// * Region errors propagated from the topology.
pub fn join_basic(
    topo: &mut Topology,
    coord: Point,
    capacity: f64,
) -> Result<(NodeId, JoinOutcome), CoreError> {
    let mut rid = topo.locate(coord)?;
    // Respect the extent floor: if the covering region is already minimal,
    // split the nearest splittable region instead (the geographic
    // association is intentionally breakable, §2.4).
    let covering_region = topo
        .region(rid)
        .ok_or(CoreError::UnknownRegion(rid))?
        .region();
    if !covering_region.is_splittable() {
        rid = bfs_rings(topo, rid)
            .into_iter()
            .find(|&c| topo.region(c).is_some_and(|e| e.region().is_splittable()))
            .ok_or(CoreError::RoutingFailed { hops: 0 })?;
    }
    let primary = topo
        .region(rid)
        .ok_or(CoreError::UnknownRegion(rid))?
        .primary();
    let joiner = topo.register_node(coord, capacity);
    let new_region = topo.split_region(rid, primary, joiner)?;
    Ok((joiner, JoinOutcome::SplitPrimary { region: new_region }))
}

/// Performs a **dual-peer** join per §2.3.
///
/// # Errors
///
/// Same conditions as [`join_basic`].
pub fn join_dual(
    topo: &mut Topology,
    coord: Point,
    capacity: f64,
) -> Result<(NodeId, JoinOutcome), CoreError> {
    let rid = topo.locate(coord)?;

    // Candidate set: the covering region and its neighbors.
    let mut candidates = vec![rid];
    candidates.extend(
        topo.region(rid)
            .ok_or(CoreError::UnknownRegion(rid))?
            .neighbors()
            .iter()
            .copied(),
    );

    let capacity_of =
        |topo: &Topology, node: NodeId| topo.node(node).map(|n| n.capacity()).unwrap_or(0.0);

    // Prefer a half-full candidate whose owner has the least capacity.
    let half_full = candidates
        .iter()
        .copied()
        .filter(|&c| topo.region(c).is_some_and(|e| !e.is_full()))
        .min_by(|&a, &b| {
            let ca = capacity_of(
                topo,
                topo.region(a)
                    .expect("invariant: candidates are filtered to live regions")
                    .primary(),
            );
            let cb = capacity_of(
                topo,
                topo.region(b)
                    .expect("invariant: candidates are filtered to live regions")
                    .primary(),
            );
            ca.partial_cmp(&cb)
                .expect("invariant: capacities are finite (NodeInfo::new enforces it)")
                .then_with(|| a.cmp(&b))
        });

    if let Some(target) = half_full {
        let joiner = topo.register_node(coord, capacity);
        topo.set_secondary(target, joiner)?;
        let incumbent = topo
            .region(target)
            .expect("invariant: candidates are filtered to live regions")
            .primary();
        if capacity > capacity_of(topo, incumbent) {
            // The new node is stronger: after copying state it takes over
            // as primary (§2.3, "Node Join").
            topo.swap_roles(target)?;
            return Ok((joiner, JoinOutcome::FilledPrimary { region: target }));
        }
        return Ok((joiner, JoinOutcome::FilledSecondary { region: target }));
    }

    // All candidates are full: split the one whose primary is weakest,
    // among those still above the extent floor.
    let weakest_splittable = |topo: &Topology, set: &[RegionId]| {
        set.iter()
            .copied()
            .filter(|&c| topo.region(c).is_some_and(|e| e.region().is_splittable()))
            .min_by(|&a, &b| {
                let ca = capacity_of(
                    topo,
                    topo.region(a)
                        .expect("invariant: candidates are filtered to live regions")
                        .primary(),
                );
                let cb = capacity_of(
                    topo,
                    topo.region(b)
                        .expect("invariant: candidates are filtered to live regions")
                        .primary(),
                );
                ca.partial_cmp(&cb)
                    .expect("invariant: capacities are finite (NodeInfo::new enforces it)")
                    .then_with(|| a.cmp(&b))
            })
    };
    let victim = match weakest_splittable(topo, &candidates) {
        Some(v) => v,
        None => {
            // Local neighborhood saturated at the floor: walk outward to
            // the nearest region that is half-full (fill it) or
            // splittable (split it).
            let mut found = None;
            for c in bfs_rings(topo, rid) {
                let Some(e) = topo.region(c) else { continue };
                if !e.is_full() {
                    let joiner = topo.register_node(coord, capacity);
                    topo.set_secondary(c, joiner)?;
                    let incumbent = topo
                        .region(c)
                        .expect("invariant: ring-walk candidates are live regions")
                        .primary();
                    if capacity > capacity_of(topo, incumbent) {
                        topo.swap_roles(c)?;
                        return Ok((joiner, JoinOutcome::FilledPrimary { region: c }));
                    }
                    return Ok((joiner, JoinOutcome::FilledSecondary { region: c }));
                }
                if e.region().is_splittable() {
                    found = Some(c);
                    break;
                }
            }
            found.ok_or(CoreError::RoutingFailed { hops: 0 })?
        }
    };
    let entry_v = topo
        .region(victim)
        .expect("invariant: candidates are filtered to live regions");
    let primary = entry_v.primary();
    let secondary = entry_v
        .secondary()
        .expect("invariant: the split victim is full — no half-full candidate existed");
    let new_half = topo.split_region(victim, primary, secondary)?;

    // The joiner pairs with the weaker of the two half-owners.
    let weak_half = if capacity_of(topo, primary) <= capacity_of(topo, secondary) {
        victim
    } else {
        new_half
    };
    let joiner = topo.register_node(coord, capacity);
    topo.set_secondary(weak_half, joiner)?;
    let incumbent = topo
        .region(weak_half)
        .expect("invariant: both split halves are live")
        .primary();
    let as_primary = capacity > capacity_of(topo, incumbent);
    if as_primary {
        topo.swap_roles(weak_half)?;
    }
    Ok((
        joiner,
        JoinOutcome::SplitSecondary {
            region: weak_half,
            new_region: new_half,
            as_primary,
        },
    ))
}

/// Removes a node per §2.3, repairing an orphaned region if the departing
/// node was a sole owner. A crash ("Failure Recover") has the same
/// structural outcome: the secondary activates, or the repair process
/// runs. (Data-loss differences between crash and graceful departure live
/// in the [service layer](crate::service), not the topology.)
///
/// # Errors
///
/// [`CoreError::UnknownNode`] if the node is not in the network, or a
/// repair error (see [`repair_orphan`]).
pub fn depart(topo: &mut Topology, node: NodeId) -> Result<(), CoreError> {
    if let Some(orphan) = topo.remove_node(node)? {
        repair_orphan(topo, orphan)?;
    }
    Ok(())
}

/// Repairs a region whose last owner departed or failed.
///
/// Strategy, cheapest first:
/// 1. **Steal a nearby secondary** — breadth-first over the neighbor graph
///    (unbounded TTL: correctness beats locality for repair), take the
///    closest region's secondary and adopt it as the orphan's primary.
/// 2. **Merge with a neighbor** — if some neighbor's rectangle re-forms a
///    rectangle with the orphan, that neighbor absorbs the orphan.
/// 3. **Free a node elsewhere** — merge some *other* mergeable region pair
///    (a sibling leaf pair of the split tree always exists), making the
///    weaker of the two owners the merged region's secondary, then steal
///    that secondary for the orphan. This is the CAN-style hand-off chain
///    collapsed into one deterministic step.
///
/// # Errors
///
/// Exhaustion is reported as `RoutingFailed { hops: 0 }`; with ≥ 2 live
/// regions one of the three strategies always applies, so this only
/// occurs on a single-region network whose sole owner vanished.
pub fn repair_orphan(topo: &mut Topology, orphan: RegionId) -> Result<(), CoreError> {
    // 1. BFS for the nearest region with a secondary to steal.
    let mut frontier = vec![orphan];
    let mut seen = std::collections::HashSet::new();
    seen.insert(orphan);
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &rid in &frontier {
            let Some(entry) = topo.region(rid) else {
                continue;
            };
            for &n in entry.neighbors() {
                if seen.insert(n) {
                    next.push(n);
                }
            }
        }
        // Deterministic order.
        next.sort();
        for &candidate in &next {
            if topo.region(candidate).is_some_and(|e| e.is_full()) {
                let stolen = topo.take_secondary(candidate)?;
                topo.adopt_region(orphan, stolen)?;
                return Ok(());
            }
        }
        frontier = next;
    }
    // 2. Merge with a mergeable neighbor.
    let orphan_region = topo
        .region(orphan)
        .ok_or(CoreError::UnknownRegion(orphan))?
        .region();
    let neighbors: Vec<RegionId> = topo
        .region(orphan)
        .ok_or(CoreError::UnknownRegion(orphan))?
        .neighbors()
        .to_vec();
    for n in neighbors {
        let Some(e) = topo.region(n) else { continue };
        if e.region().merge(&orphan_region).is_some() {
            let primary = e.primary();
            let secondary = e.secondary();
            topo.merge_regions(n, orphan, primary, secondary)?;
            return Ok(());
        }
    }
    // 3. Merge some other sibling pair of sole-owner regions to free a
    // node, then adopt it. Deterministic: lowest-id mergeable pair.
    let ids: Vec<RegionId> = topo.region_ids().filter(|&r| r != orphan).collect();
    for &a in &ids {
        let Some(ea) = topo.region(a) else { continue };
        if ea.is_full() {
            continue; // would have been found by the BFS steal
        }
        let candidates: Vec<RegionId> = ea
            .neighbors()
            .iter()
            .copied()
            .filter(|&b| b != orphan && b > a)
            .collect();
        for b in candidates {
            let Some(eb) = topo.region(b) else { continue };
            if eb.is_full() {
                continue;
            }
            let Some(ea) = topo.region(a) else { continue };
            if ea.region().merge(&eb.region()).is_none() {
                continue;
            }
            let (pa, pb) = (ea.primary(), eb.primary());
            let cap = |n: NodeId| topo.node(n).map(|i| i.capacity()).unwrap_or(0.0);
            let (primary, secondary) = if cap(pa) >= cap(pb) {
                (pa, pb)
            } else {
                (pb, pa)
            };
            topo.merge_regions(a, b, primary, Some(secondary))?;
            let freed = topo.take_secondary(a)?;
            topo.adopt_region(orphan, freed)?;
            return Ok(());
        }
    }
    Err(CoreError::RoutingFailed { hops: 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use geogrid_geometry::Space;

    fn boot() -> (Topology, RegionId) {
        let mut t = Topology::new(Space::paper_evaluation());
        let n = t.register_node(Point::new(10.0, 10.0), 10.0);
        let r = t.bootstrap(n).unwrap();
        (t, r)
    }

    #[test]
    fn basic_join_splits_covering_region() {
        let (mut t, _) = boot();
        let (j, outcome) = join_basic(&mut t, Point::new(50.0, 50.0), 20.0).unwrap();
        let jr = outcome.region();
        assert!(t
            .region(jr)
            .unwrap()
            .covers(Point::new(50.0, 50.0), t.space()));
        assert_eq!(t.region(jr).unwrap().primary(), j);
        assert_eq!(t.region_count(), 2);
        t.validate().unwrap();
    }

    #[test]
    fn basic_join_many_keeps_invariants() {
        let (mut t, _) = boot();
        for i in 0..100 {
            let x = ((i as f64 * 0.754877666) % 1.0) * 63.0 + 0.5;
            let y = ((i as f64 * 0.569840296) % 1.0) * 63.0 + 0.5;
            join_basic(&mut t, Point::new(x, y), 10.0).unwrap();
        }
        assert_eq!(t.region_count(), 101);
        t.validate().unwrap();
    }

    #[test]
    fn dual_join_fills_before_splitting() {
        let (mut t, r) = boot();
        // First dual join must become the dual peer of the only region.
        let (_, o1) = join_dual(&mut t, Point::new(50.0, 50.0), 5.0).unwrap();
        assert_eq!(o1, JoinOutcome::FilledSecondary { region: r });
        assert_eq!(t.region_count(), 1);
        // Second dual join: region is full, must split.
        let (_, o2) = join_dual(&mut t, Point::new(40.0, 40.0), 5.0).unwrap();
        assert!(matches!(o2, JoinOutcome::SplitSecondary { .. }));
        assert_eq!(t.region_count(), 2);
        t.validate().unwrap();
    }

    #[test]
    fn stronger_joiner_takes_primary_role() {
        let (mut t, r) = boot(); // incumbent capacity 10
        let (j, o) = join_dual(&mut t, Point::new(50.0, 50.0), 1000.0).unwrap();
        assert_eq!(o, JoinOutcome::FilledPrimary { region: r });
        assert_eq!(t.region(r).unwrap().primary(), j);
        t.validate().unwrap();
    }

    #[test]
    fn dual_join_targets_weakest_owner() {
        let (mut t, _) = boot(); // owner capacity 10 at (10,10)
                                 // Fill root with a strong secondary, then split so we have two
                                 // regions with known primaries.
        join_dual(&mut t, Point::new(50.0, 50.0), 100.0).unwrap();
        join_dual(&mut t, Point::new(30.0, 30.0), 100.0).unwrap();
        t.validate().unwrap();
        // Now find the weakest half-full primary; the next join must pair
        // with it regardless of where the joiner lands.
        let weakest = t
            .regions()
            .filter(|(_, e)| !e.is_full())
            .min_by(|(_, a), (_, b)| {
                let ca = t.node(a.primary()).unwrap().capacity();
                let cb = t.node(b.primary()).unwrap().capacity();
                ca.partial_cmp(&cb).unwrap()
            })
            .map(|(rid, _)| rid);
        if let Some(weakest) = weakest {
            let (_, o) = join_dual(&mut t, Point::new(32.0, 33.0), 7.0).unwrap();
            // The chosen region must be among the covering region's
            // neighborhood; when the weakest is in that neighborhood it is
            // chosen.
            if o.region() == weakest {
                assert!(matches!(
                    o,
                    JoinOutcome::FilledSecondary { .. } | JoinOutcome::FilledPrimary { .. }
                ));
            }
            t.validate().unwrap();
        }
    }

    #[test]
    fn depart_secondary_and_primary() {
        let (mut t, r) = boot();
        let (s, _) = join_dual(&mut t, Point::new(50.0, 50.0), 5.0).unwrap();
        // Secondary departs.
        depart(&mut t, s).unwrap();
        assert!(!t.region(r).unwrap().is_full());
        t.validate().unwrap();
        // Primary departs with a secondary in place: promotion.
        let (s2, _) = join_dual(&mut t, Point::new(20.0, 20.0), 5.0).unwrap();
        let p = t.region(r).unwrap().primary();
        depart(&mut t, p).unwrap();
        assert_eq!(t.region(r).unwrap().primary(), s2);
        t.validate().unwrap();
    }

    #[test]
    fn sole_owner_departure_steals_nearby_secondary() {
        let (mut t, r) = boot();
        // Build: split into two regions; the other region's owner is the
        // weakest in the neighborhood, so the dual join pairs with it.
        let (j, o) = join_basic(&mut t, Point::new(50.0, 50.0), 1.0).unwrap();
        let other = o.region();
        let (s, _) = join_dual(&mut t, Point::new(55.0, 55.0), 0.5).unwrap();
        assert!(t.region(other).unwrap().is_full());
        // The sole owner of r departs; repair must steal `other`'s
        // secondary and adopt it as r's primary.
        let sole = t.region(r).unwrap().primary();
        depart(&mut t, sole).unwrap();
        assert!(!t.region(other).unwrap().is_full());
        assert_eq!(t.region(r).unwrap().primary(), s);
        assert_eq!(t.region(other).unwrap().primary(), j);
        t.validate().unwrap();
    }

    #[test]
    fn sole_owner_departure_merges_when_no_secondary_exists() {
        let (mut t, r) = boot();
        let (_, o) = join_basic(&mut t, Point::new(50.0, 50.0), 10.0).unwrap();
        let other = o.region();
        // Two sole-owner sibling halves; one departs -> merge.
        let departing = t.region(other).unwrap().primary();
        depart(&mut t, departing).unwrap();
        assert_eq!(t.region_count(), 1);
        assert_eq!(t.region(r).unwrap().region(), t.space().bounds());
        t.validate().unwrap();
    }

    #[test]
    fn repair_frees_a_node_when_no_secondary_or_sibling_exists() {
        let (mut t, r) = boot();
        // Build 4 sole-owner quadrants: the SW region's sibling (the north
        // half) is subdivided, so when SW's owner leaves, neither a
        // secondary steal nor a direct merge applies to it after we also
        // split its own sibling... Construct: split space into 4 quads.
        join_basic(&mut t, Point::new(10.0, 50.0), 10.0).unwrap(); // north half
        let (_, _o2) = join_basic(&mut t, Point::new(50.0, 10.0), 10.0).unwrap(); // SE quad
        let (_, _o3) = join_basic(&mut t, Point::new(50.0, 50.0), 10.0).unwrap(); // NE quad
        assert_eq!(t.region_count(), 4);
        t.validate().unwrap();
        // Split the NE quad once more so the NW quad has no mergeable
        // sibling either? NW (north) merges with NE only if NE is whole.
        // Depart the NW owner: its neighbors are SW (64x32-sibling? no:
        // north was split so SW's sibling is gone) — exercise the
        // fallback by departing SW's owner whose sibling (north half) no
        // longer exists as one rectangle.
        let sw_owner = t.region(r).unwrap().primary();
        depart(&mut t, sw_owner).unwrap();
        t.validate().unwrap();
        // Coverage is intact: every probe point has exactly one region.
        for p in [
            Point::new(5.0, 5.0),
            Point::new(50.0, 5.0),
            Point::new(5.0, 50.0),
            Point::new(50.0, 50.0),
        ] {
            t.locate(p).unwrap();
        }
    }

    #[test]
    fn fail_matches_depart_structurally() {
        let (mut t, r) = boot();
        let (s, _) = join_dual(&mut t, Point::new(50.0, 50.0), 500.0).unwrap();
        // s became primary (stronger); crash it.
        assert_eq!(t.region(r).unwrap().primary(), s);
        depart(&mut t, s).unwrap();
        assert!(t.region(r).unwrap().secondary().is_none());
        t.validate().unwrap();
    }

    #[test]
    fn splits_respect_the_extent_floor() {
        // Hammer one corner with dual joins: the weakest-victim rule
        // would otherwise re-split the same region until its edges fall
        // below f64 comparison tolerance (regression: r804/r831 sliver).
        let (mut t, _) = boot();
        for i in 0..400 {
            let p = Point::new(
                63.99 + (i % 7) as f64 * 1e-4,
                47.99 + (i % 11) as f64 * 1e-4,
            );
            let cap = [1.0, 10.0, 100.0][i % 3];
            join_dual(&mut t, p, cap).unwrap();
        }
        t.validate().unwrap();
        for (_, e) in t.regions() {
            let region = e.region();
            assert!(
                region.width().min(region.height()) >= geogrid_geometry::MIN_SPLIT_EXTENT / 2.0,
                "sliver survived: {region}"
            );
        }
    }

    #[test]
    fn basic_joins_respect_the_extent_floor() {
        let (mut t, _) = boot();
        for i in 0..300 {
            let p = Point::new(1.0 + (i % 5) as f64 * 1e-5, 1.0 + (i % 3) as f64 * 1e-5);
            join_basic(&mut t, p, 10.0).unwrap();
        }
        t.validate().unwrap();
        for (_, e) in t.regions() {
            let region = e.region();
            assert!(
                region.width().min(region.height()) >= geogrid_geometry::MIN_SPLIT_EXTENT / 2.0,
                "sliver survived: {region}"
            );
        }
    }
}
