//! Planning logic for the eight adaptation mechanisms.
//!
//! Each planner inspects the topology and the current [`LoadMap`] and
//! returns a concrete [`AdaptationPlan`] when its mechanism is applicable
//! and would improve the situation. A local mechanism and its remote form
//! share one planner over a candidate list: the neighbors, or the regions
//! of the [`ttl_search`] less loaded than the overloaded one.
//! [`plan_for_region`] tries them in the paper's cost order.

use crate::balance::{AdaptationPlan, BalanceConfig, Mechanism};
use crate::load::LoadMap;
use crate::rules::{self, Donor, DonorChoice};
use crate::{RegionId, Topology};

use super::search::ttl_search;

fn primary_capacity(topo: &Topology, rid: RegionId) -> f64 {
    topo.region(rid)
        .map(|e| topo.capacity(e.primary()))
        .unwrap_or(0.0)
}

/// Margin by which a swap must improve the pairwise max index before it is
/// worth the operation overhead (also prevents oscillation).
const IMPROVEMENT: f64 = 0.999;

/// The lowest workload index among `rid`'s neighbors, the trigger's
/// reference (`None` without neighbors).
pub(super) fn lowest_neighbor_index(
    topo: &Topology,
    loads: &LoadMap,
    rid: RegionId,
) -> Option<f64> {
    topo.region(rid)?
        .neighbors()
        .iter()
        .map(|&n| loads.index_of(topo, n))
        .reduce(f64::min)
}

/// (a)/(f) and (e)/(g): a secondary from `candidates` that is stronger
/// than our primary, chosen by [`rules::donor`]. A half-full region steals
/// the least-loaded candidate's secondary, which becomes our primary while
/// ours demotes to secondary ((a), or (f) when `remote`). A full region's
/// primary trades places with the strongest such secondary ((e), or (g)).
fn plan_donor(
    topo: &Topology,
    loads: &LoadMap,
    rid: RegionId,
    candidates: &[RegionId],
    remote: bool,
) -> Option<AdaptationPlan> {
    let entry = topo.region(rid)?;
    let (choice, mechanism) = match (entry.is_full(), remote) {
        (false, false) => (DonorChoice::LeastLoaded, Mechanism::StealSecondary),
        (false, true) => (DonorChoice::LeastLoaded, Mechanism::StealRemoteSecondary),
        (true, false) => (
            DonorChoice::StrongestSecondary,
            Mechanism::SwitchPrimaryWithSecondary,
        ),
        (true, true) => (
            DonorChoice::StrongestSecondary,
            Mechanism::SwitchPrimaryWithRemoteSecondary,
        ),
    };
    let donors = candidates.iter().filter_map(|&c| {
        Some(Donor {
            key: c,
            secondary: topo.capacity(topo.region(c)?.secondary()?),
            index: loads.index_of(topo, c),
        })
    });
    rules::donor(donors, topo.capacity(entry.primary()), choice).map(|donor| AdaptationPlan {
        mechanism,
        region: rid,
        partner: Some(donor),
    })
}

/// (b)/(h) Switch Primary Owners — swap primaries with the candidate whose
/// stronger primary lowers the pair's maximum workload index the most.
fn plan_switch_primaries(
    topo: &Topology,
    loads: &LoadMap,
    rid: RegionId,
    candidates: &[RegionId],
    mechanism: Mechanism,
) -> Option<AdaptationPlan> {
    let entry = topo.region(rid)?;
    let own_cap = topo.capacity(entry.primary());
    let own_load = loads.combined(rid);
    let own_index = loads.index_of(topo, rid);
    candidates
        .iter()
        .filter_map(|&n| {
            let n_cap = primary_capacity(topo, n);
            let old_max = own_index.max(loads.index_of(topo, n));
            let new_max = (own_load / n_cap).max(loads.combined(n) / own_cap);
            (n_cap > own_cap && new_max < old_max * IMPROVEMENT).then_some((new_max, n))
        })
        // `min_by` keeps the first of equal minima.
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(_, partner)| AdaptationPlan {
            mechanism,
            region: rid,
            partner: Some(partner),
        })
}

/// (c) Merge with a Neighbor — when a neighbor's rectangle re-forms a
/// rectangle with ours, both regions are half-full (so the owners fit in
/// one dual-peer region), and the merged index is lower than the average
/// of the two current indexes.
fn plan_merge(topo: &Topology, loads: &LoadMap, rid: RegionId) -> Option<AdaptationPlan> {
    let entry = topo.region(rid)?;
    if entry.is_full() {
        return None;
    }
    let own_index = loads.index_of(topo, rid);
    entry
        .neighbors()
        .iter()
        .filter_map(|&n| {
            let ne = topo.region(n)?;
            if ne.is_full() || entry.region().merge(&ne.region()).is_none() {
                return None;
            }
            let strongest = topo
                .capacity(entry.primary())
                .max(primary_capacity(topo, n));
            let merged_index = (loads.combined(rid) + loads.combined(n)) / strongest;
            let avg = (own_index + loads.index_of(topo, n)) / 2.0;
            (merged_index < avg).then_some((merged_index, n))
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(_, neighbor)| AdaptationPlan {
            mechanism: Mechanism::MergeWithNeighbor,
            region: rid,
            partner: Some(neighbor),
        })
}

/// (d) Split a Region — a full region whose secondary is at least as
/// strong as the primary ("the same capacity" in the paper) splits,
/// halving the primary's index. Refuses to create slivers.
fn plan_split(topo: &Topology, rid: RegionId) -> Option<AdaptationPlan> {
    /// Regions whose shorter side is at or below this never split further.
    const MIN_SPLIT_EXTENT: f64 = 0.5;
    let entry = topo.region(rid)?;
    let secondary = entry.secondary()?;
    let p_cap = topo.capacity(entry.primary());
    let s_cap = topo.capacity(secondary);
    if s_cap < p_cap {
        return None;
    }
    let r = entry.region();
    if r.width().min(r.height()) <= MIN_SPLIT_EXTENT
        || r.width().max(r.height()) <= 2.0 * MIN_SPLIT_EXTENT
    {
        return None;
    }
    Some(AdaptationPlan {
        mechanism: Mechanism::SplitRegion,
        region: rid,
        partner: None,
    })
}

/// Tries all mechanisms for `rid` in the paper's cost order and returns
/// the first applicable plan. Assumes the caller already checked the
/// overload trigger.
pub fn plan_for_region(
    topo: &Topology,
    loads: &LoadMap,
    config: &BalanceConfig,
    rid: RegionId,
) -> Option<AdaptationPlan> {
    let entry = topo.region(rid)?;
    let full = entry.is_full();
    let neighbors = entry.neighbors();
    // (a) suits a half-full region and comes first; (e) suits a full one
    // and comes after (b)–(d).
    let donor = || plan_donor(topo, loads, rid, neighbors, false);
    let local = if full { None } else { donor() }
        .or_else(|| plan_switch_primaries(topo, loads, rid, neighbors, Mechanism::SwitchPrimaries))
        .or_else(|| plan_merge(topo, loads, rid))
        .or_else(|| plan_split(topo, rid))
        .or_else(|| if full { donor() } else { None });
    if local.is_some() || config.local_only {
        return local;
    }
    // (f) and (g) want donors less loaded than us. The filter changes
    // nothing for (h): swapping with a stronger primary at least as loaded
    // as ours never lowers the pair's maximum index.
    let own_index = loads.index_of(topo, rid);
    let remote: Vec<RegionId> = ttl_search(topo, rid, config.search_ttl)
        .into_iter()
        .filter(|&c| loads.index_of(topo, c) < own_index)
        .collect();
    plan_donor(topo, loads, rid, &remote, true).or_else(|| {
        let mechanism = Mechanism::SwitchPrimaryWithRemotePrimary;
        full.then(|| plan_switch_primaries(topo, loads, rid, &remote, mechanism))?
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use geogrid_geometry::{Point, Space};
    use geogrid_workload::{HotSpot, HotSpotField, WorkloadGrid};

    /// Builds the textbook 2x2 scenario: four quadrant regions, a hot spot
    /// over region 0, configurable owner capacities/secondaries.
    struct Scenario {
        topo: Topology,
        grid: WorkloadGrid,
        quads: Vec<RegionId>,
    }

    fn scenario(caps: [f64; 4]) -> Scenario {
        let space = Space::paper_evaluation();
        let mut topo = Topology::new(space);
        // Four nodes at quadrant centers.
        let centers = [
            Point::new(16.0, 16.0),
            Point::new(48.0, 16.0),
            Point::new(16.0, 48.0),
            Point::new(48.0, 48.0),
        ];
        let n0 = topo.register_node(centers[0], caps[0]);
        let r0 = topo.bootstrap(n0).unwrap();
        // Split latitudinally, then each half longitudinally -> quadrants.
        let n2 = topo.register_node(centers[2], caps[2]);
        let top = topo.split_region(r0, n0, n2).unwrap();
        let n1 = topo.register_node(centers[1], caps[1]);
        let right_bottom = topo.split_region(r0, n0, n1).unwrap();
        let n3 = topo.register_node(centers[3], caps[3]);
        let right_top = topo.split_region(top, n2, n3).unwrap();
        topo.validate().unwrap();
        let quads = vec![r0, right_bottom, top, right_top];
        // Hot spot centered on quadrant 0.
        let field = HotSpotField::new(vec![HotSpot::new(Point::new(16.0, 16.0), 10.0)]);
        let grid = WorkloadGrid::from_field(space, 0.5, &field);
        Scenario { topo, grid, quads }
    }

    fn neighbors(s: &Scenario, rid: RegionId) -> &[RegionId] {
        s.topo.region(rid).unwrap().neighbors()
    }

    fn plan_a_or_e(s: &Scenario, loads: &LoadMap, rid: RegionId) -> Option<AdaptationPlan> {
        plan_donor(&s.topo, loads, rid, neighbors(s, rid), false)
    }

    fn plan_b(s: &Scenario, loads: &LoadMap, rid: RegionId) -> Option<AdaptationPlan> {
        let mechanism = Mechanism::SwitchPrimaries;
        plan_switch_primaries(&s.topo, loads, rid, neighbors(s, rid), mechanism)
    }

    #[test]
    fn trigger_requires_sqrt2_margin() {
        let s = scenario([10.0, 10.0, 10.0, 10.0]);
        let loads = LoadMap::from_grid(&s.topo, &s.grid);
        let triggered = |rid| {
            let lowest = lowest_neighbor_index(&s.topo, &loads, rid);
            rules::overloaded(loads.index_of(&s.topo, rid), lowest, rules::TRIGGER_RATIO)
        };
        // Quadrant 0 holds nearly all the load: triggered.
        assert!(triggered(s.quads[0]));
        // Far quadrant is not overloaded.
        assert!(!triggered(s.quads[3]));
    }

    #[test]
    fn mechanism_a_ignores_weak_secondaries() {
        let mut s = scenario([10.0, 10.0, 10.0, 10.0]);
        let sec = s.topo.register_node(Point::new(50.0, 15.0), 5.0); // weaker
        s.topo.set_secondary(s.quads[1], sec).unwrap();
        let loads = LoadMap::from_grid(&s.topo, &s.grid);
        assert!(plan_a_or_e(&s, &loads, s.quads[0]).is_none());
    }

    #[test]
    fn mechanism_b_switches_with_stronger_idle_neighbor() {
        let s = scenario([1.0, 100.0, 10.0, 10.0]);
        let loads = LoadMap::from_grid(&s.topo, &s.grid);
        let plan = plan_b(&s, &loads, s.quads[0]).expect("plan");
        assert_eq!(plan.partner, Some(s.quads[1]));
    }

    #[test]
    fn mechanism_b_rejects_non_improving_swap() {
        // All capacities equal: no strictly-stronger neighbor exists.
        let s = scenario([10.0, 10.0, 10.0, 10.0]);
        let loads = LoadMap::from_grid(&s.topo, &s.grid);
        assert!(plan_b(&s, &loads, s.quads[0]).is_none());
    }

    #[test]
    fn mechanism_c_merges_siblings_when_beneficial() {
        // Quadrants 1 and 3 (east half) are siblings from the same split.
        // Put the load on the weak south-east one: merged under the strong
        // north-east primary its index falls below the pair's average.
        let mut s = scenario([10.0, 1.0, 10.0, 100.0]);
        let field = HotSpotField::new(vec![HotSpot::new(Point::new(48.0, 16.0), 10.0)]);
        s.grid = WorkloadGrid::from_field(Space::paper_evaluation(), 0.5, &field);
        let loads = LoadMap::from_grid(&s.topo, &s.grid);
        let plan = plan_merge(&s.topo, &loads, s.quads[1]).expect("a merge plan");
        assert_eq!(plan.mechanism, Mechanism::MergeWithNeighbor);
        assert_eq!(plan.partner, Some(s.quads[3]));
    }

    #[test]
    fn mechanism_c_respects_owner_limit() {
        let mut s = scenario([10.0, 1.0, 10.0, 100.0]);
        // Fill both east quadrants: 4 owners -> merge must refuse.
        let s1 = s.topo.register_node(Point::new(49.0, 15.0), 5.0);
        let s3 = s.topo.register_node(Point::new(49.0, 49.0), 5.0);
        s.topo.set_secondary(s.quads[1], s1).unwrap();
        s.topo.set_secondary(s.quads[3], s3).unwrap();
        let loads = LoadMap::from_grid(&s.topo, &s.grid);
        assert!(plan_merge(&s.topo, &loads, s.quads[1]).is_none());
    }

    #[test]
    fn mechanism_d_splits_equal_peers_only() {
        let mut s = scenario([10.0, 10.0, 10.0, 10.0]);
        // Half-full region: no split.
        assert!(plan_split(&s.topo, s.quads[0]).is_none());
        // Weak secondary: no split.
        let weak = s.topo.register_node(Point::new(15.0, 15.0), 1.0);
        s.topo.set_secondary(s.quads[0], weak).unwrap();
        assert!(plan_split(&s.topo, s.quads[0]).is_none());
        s.topo.take_secondary(s.quads[0]).unwrap();
        // Equal secondary: split.
        let equal = s.topo.register_node(Point::new(15.0, 15.0), 10.0);
        s.topo.set_secondary(s.quads[0], equal).unwrap();
        let plan = plan_split(&s.topo, s.quads[0]).expect("plan");
        assert_eq!(plan.mechanism, Mechanism::SplitRegion);
        assert_eq!(plan.partner, None);
    }

    #[test]
    fn mechanism_d_refuses_slivers() {
        let mut s = scenario([10.0, 10.0, 10.0, 10.0]);
        // Twelve splits take the 32 × 32 quadrant's corner to 0.5 × 0.5.
        let corner = Point::new(0.1, 0.1);
        for _ in 0..12 {
            let rid = s.topo.locate(corner).unwrap();
            let primary = s.topo.region(rid).unwrap().primary();
            let joiner = s.topo.register_node(corner, 10.0);
            s.topo.split_region(rid, primary, joiner).unwrap();
        }
        let rid = s.topo.locate(corner).unwrap();
        let r = s.topo.region(rid).unwrap().region();
        assert_eq!((r.width(), r.height()), (0.5, 0.5));
        let equal = s.topo.register_node(corner, 10.0);
        s.topo.set_secondary(rid, equal).unwrap();
        assert!(plan_split(&s.topo, rid).is_none());
    }

    #[test]
    fn mechanism_e_needs_full_region() {
        let mut s = scenario([1.0, 10.0, 10.0, 10.0]);
        let strong = s.topo.register_node(Point::new(49.0, 15.0), 100.0);
        s.topo.set_secondary(s.quads[1], strong).unwrap();
        let loads = LoadMap::from_grid(&s.topo, &s.grid);
        // Overloaded region is half-full: (a) steals the strong secondary.
        let plan = plan_a_or_e(&s, &loads, s.quads[0]).expect("plan");
        assert_eq!(plan.mechanism, Mechanism::StealSecondary);
        assert_eq!(plan.partner, Some(s.quads[1]));
        // Fill it, then (e) applies.
        let own_sec = s.topo.register_node(Point::new(15.0, 15.0), 1.0);
        s.topo.set_secondary(s.quads[0], own_sec).unwrap();
        let plan = plan_a_or_e(&s, &loads, s.quads[0]).expect("plan");
        assert_eq!(plan.mechanism, Mechanism::SwitchPrimaryWithSecondary);
        assert_eq!(plan.partner, Some(s.quads[1]));
    }

    #[test]
    fn plan_order_prefers_cheaper_mechanisms() {
        // Both (a) and (b) possible: (a) must win.
        let mut s = scenario([1.0, 100.0, 10.0, 10.0]);
        let sec = s.topo.register_node(Point::new(15.0, 49.0), 100.0);
        s.topo.set_secondary(s.quads[2], sec).unwrap();
        let loads = LoadMap::from_grid(&s.topo, &s.grid);
        let config = BalanceConfig::default();
        let plan = plan_for_region(&s.topo, &loads, &config, s.quads[0]).expect("plan");
        assert_eq!(plan.mechanism, Mechanism::StealSecondary);
    }
}
