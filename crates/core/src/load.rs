//! Workload-index accounting.
//!
//! The paper's load measure is the **workload index**: the workload mapped
//! to a node's region, normalized by the node's capacity. Query workload
//! comes from the hot-spot cell grid (`geogrid-workload`); routing workload
//! counts greedy-forwarding transit traffic from a sampled query mix (the
//! paper balances "both the location query workload and the routing
//! workload").
//!
//! Mechanism (d) of §2.4 — splitting a region with equal-capacity dual
//! owners "can reduce the workload index of the original primary owner by
//! half" — implies the primary bears its region's entire load while the
//! secondary only replicates. Node indexes follow that model: a region's
//! index is charged to its primary; secondaries (and unassigned nodes)
//! carry index 0.

use std::collections::HashMap;

use geogrid_geometry::Point;
use geogrid_metrics::Summary;
use geogrid_workload::{HotSpotField, QueryGenerator, WorkloadGrid};
use rand::Rng;

use crate::{NodeId, RegionId, RouteOptions, Router, Topology};

/// Per-region workload components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RegionLoad {
    /// Normalized query workload (fraction of the global field's mass).
    pub query: f64,
    /// Routing transit load (mean transits per sampled query).
    pub routing: f64,
}

/// The workload of every region, plus the routing weight `α` used to
/// combine the two components.
///
/// # Examples
///
/// ```
/// use geogrid_core::builder::NetworkBuilder;
/// use geogrid_core::load::LoadMap;
/// use geogrid_geometry::Space;
/// use geogrid_workload::{HotSpotField, WorkloadGrid};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let space = Space::paper_evaluation();
/// let net = NetworkBuilder::new(space, 1).build(50);
/// let field = HotSpotField::random(&mut rng, space, 5);
/// let grid = WorkloadGrid::from_field(space, 0.5, &field);
/// let loads = LoadMap::from_grid(net.topology(), &grid);
/// assert!(loads.summary(net.topology()).mean() >= 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LoadMap {
    loads: HashMap<RegionId, RegionLoad>,
    alpha: f64,
}

impl LoadMap {
    /// Computes query loads for every region from the cell grid (no
    /// routing component; `α = 0`).
    pub fn from_grid(topo: &Topology, grid: &WorkloadGrid) -> Self {
        let total = grid.total().max(f64::MIN_POSITIVE);
        let loads = topo
            .regions()
            .map(|(rid, e)| {
                (
                    rid,
                    RegionLoad {
                        query: grid.region_load(&e.region()) / total,
                        routing: 0.0,
                    },
                )
            })
            .collect();
        Self { loads, alpha: 0.0 }
    }

    /// Computes query loads and adds routing transit loads from `samples`
    /// greedy-routed queries whose targets follow `field` with the given
    /// hot-spot `bias`. `alpha` weights routing against query load.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is negative or non-finite.
    pub fn with_routing<R: Rng + ?Sized>(
        topo: &Topology,
        grid: &WorkloadGrid,
        field: &HotSpotField,
        rng: &mut R,
        samples: usize,
        bias: f64,
        alpha: f64,
    ) -> Self {
        assert!(alpha.is_finite() && alpha >= 0.0, "alpha must be >= 0");
        let mut map = Self::from_grid(topo, grid);
        map.alpha = alpha;
        if samples == 0 {
            return map;
        }
        let ids: Vec<RegionId> = topo.region_ids().collect();
        let mut generator = QueryGenerator::new(topo.space()).hotspot_bias(bias);
        let per_query = 1.0 / samples as f64;
        // One router for the whole sample batch: no per-query buffers
        // are allocated.
        let mut router = Router::new();
        for _ in 0..samples {
            let q = generator.generate(rng, field);
            let from = ids[rng.random_range(0..ids.len())];
            if router
                .route(topo, from, q.target, &RouteOptions::Greedy)
                .is_ok()
            {
                // Transit regions do forwarding work; the executor's query
                // work is already in the grid component.
                let hops = router.hops();
                for &rid in &hops[..hops.len().saturating_sub(1)] {
                    map.loads.entry(rid).or_default().routing += per_query;
                }
            }
        }
        map
    }

    /// The routing weight `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The load components of a region (default zero if untracked).
    pub fn region_load(&self, rid: RegionId) -> RegionLoad {
        self.loads.get(&rid).copied().unwrap_or_default()
    }

    /// Combined load of a region: `query + α · routing`.
    pub fn combined(&self, rid: RegionId) -> f64 {
        let l = self.region_load(rid);
        l.query + self.alpha * l.routing
    }

    /// The region's workload index: combined load over the primary's
    /// capacity. Returns 0 for dead regions.
    pub fn index_of(&self, topo: &Topology, rid: RegionId) -> f64 {
        let Some(entry) = topo.region(rid) else {
            return 0.0;
        };
        let cap = topo
            .node(entry.primary())
            .map(|n| n.capacity())
            .unwrap_or(f64::INFINITY);
        self.combined(rid) / cap
    }

    /// Workload index of every registered node: primaries carry their
    /// region's index, secondaries and unassigned nodes carry 0.
    pub fn node_indexes(&self, topo: &Topology) -> HashMap<NodeId, f64> {
        let mut out: HashMap<NodeId, f64> = topo.nodes().map(|n| (n.id(), 0.0)).collect();
        for (rid, e) in topo.regions() {
            out.insert(e.primary(), self.index_of(topo, rid));
        }
        out
    }

    /// Max/mean/std summary of all node workload indexes — the statistics
    /// Figures 5–10 plot.
    pub fn summary(&self, topo: &Topology) -> Summary {
        Summary::from_values(self.node_indexes(topo).into_values())
    }

    /// Re-reads one region's query load from the grid (after a split or
    /// merge changed its rectangle).
    pub fn refresh_from_grid(&mut self, topo: &Topology, grid: &WorkloadGrid, rid: RegionId) {
        if let Some(e) = topo.region(rid) {
            let total = grid.total().max(f64::MIN_POSITIVE);
            let entry = self.loads.entry(rid).or_default();
            entry.query = grid.region_load(&e.region()) / total;
        }
    }

    /// Accounts for a region split: recomputes query loads of both halves
    /// and divides the parent's routing load proportionally to query mass
    /// (a cheap, locality-preserving approximation; routing loads are
    /// re-sampled at the next full recomputation).
    pub fn on_split(
        &mut self,
        topo: &Topology,
        grid: &WorkloadGrid,
        kept: RegionId,
        created: RegionId,
    ) {
        let parent_routing = self.region_load(kept).routing;
        self.refresh_from_grid(topo, grid, kept);
        self.refresh_from_grid(topo, grid, created);
        let qa = self.region_load(kept).query;
        let qb = self.region_load(created).query;
        let total = (qa + qb).max(f64::MIN_POSITIVE);
        if let Some(l) = self.loads.get_mut(&kept) {
            l.routing = parent_routing * qa / total;
        }
        if let Some(l) = self.loads.get_mut(&created) {
            l.routing = parent_routing * qb / total;
        }
    }

    /// Accounts for a merge of `removed` into `into`: loads add.
    pub fn on_merge(&mut self, removed: RegionId, into: RegionId) {
        let gone = self.loads.remove(&removed).unwrap_or_default();
        let entry = self.loads.entry(into).or_default();
        entry.query += gone.query;
        entry.routing += gone.routing;
    }
}

/// Samples `(entry region, target point)` routing queries for ad-hoc hop
/// measurements (the `O(2√N)` routing experiment).
pub fn sample_routing_pairs<R: Rng + ?Sized>(
    topo: &Topology,
    rng: &mut R,
    n: usize,
) -> Vec<(RegionId, Point)> {
    let ids: Vec<RegionId> = topo.region_ids().collect();
    let bounds = topo.space().bounds();
    (0..n)
        .map(|_| {
            let from = ids[rng.random_range(0..ids.len())];
            let target = Point::new(
                rng.random_range(bounds.x()..=bounds.east()),
                rng.random_range(bounds.y()..=bounds.north()),
            );
            (from, target)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{Mode, NetworkBuilder};
    use geogrid_geometry::Space;
    use geogrid_workload::HotSpot;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn setup(n: usize, mode: Mode) -> (crate::Topology, WorkloadGrid, HotSpotField) {
        let space = Space::paper_evaluation();
        let net = NetworkBuilder::new(space, 11).mode(mode).build(n);
        let field = HotSpotField::new(vec![
            HotSpot::new(Point::new(16.0, 16.0), 8.0),
            HotSpot::new(Point::new(48.0, 48.0), 4.0),
        ]);
        let grid = WorkloadGrid::from_field(space, 0.5, &field);
        (net.topology().clone(), grid, field)
    }

    #[test]
    fn query_loads_sum_to_one() {
        let (topo, grid, _) = setup(100, Mode::Basic);
        let map = LoadMap::from_grid(&topo, &grid);
        let sum: f64 = topo.region_ids().map(|r| map.region_load(r).query).sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn index_divides_by_capacity() {
        let (topo, grid, _) = setup(50, Mode::Basic);
        let map = LoadMap::from_grid(&topo, &grid);
        for rid in topo.region_ids() {
            let e = topo.region(rid).unwrap();
            let cap = topo.node(e.primary()).unwrap().capacity();
            let expected = map.combined(rid) / cap;
            assert!((map.index_of(&topo, rid) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn node_indexes_cover_every_node() {
        let (topo, grid, _) = setup(80, Mode::DualPeer);
        let map = LoadMap::from_grid(&topo, &grid);
        let idx = map.node_indexes(&topo);
        assert_eq!(idx.len(), topo.node_count());
        // Secondaries must be zero.
        for (_, e) in topo.regions() {
            if let Some(s) = e.secondary() {
                assert_eq!(idx[&s], 0.0);
            }
        }
    }

    #[test]
    fn routing_load_hits_transit_regions() {
        let (topo, grid, field) = setup(100, Mode::Basic);
        let mut rng = SmallRng::seed_from_u64(4);
        let map = LoadMap::with_routing(&topo, &grid, &field, &mut rng, 200, 0.5, 1.0);
        let total_routing: f64 = topo.region_ids().map(|r| map.region_load(r).routing).sum();
        // Mean path length over 100 regions should be a few hops.
        assert!(total_routing > 1.0, "total routing {total_routing}");
        assert!(map.alpha() == 1.0);
        // Combined load exceeds pure query load somewhere.
        let boosted = topo
            .region_ids()
            .any(|r| map.combined(r) > map.region_load(r).query);
        assert!(boosted);
    }

    #[test]
    fn split_bookkeeping_preserves_mass() {
        let (mut topo, grid, _) = setup(30, Mode::Basic);
        let mut map = LoadMap::from_grid(&topo, &grid);
        // Give a region some routing load, then split it via a fresh join.
        let rid = topo.region_ids().next().unwrap();
        let before = map.region_load(rid);
        let routing_seed = 0.6;
        if let Some(l) = map.loads.get_mut(&rid) {
            l.routing = routing_seed;
        }
        let primary = topo.region(rid).unwrap().primary();
        let joiner = topo.register_node(topo.region(rid).unwrap().region().center(), 10.0);
        let created = topo.split_region(rid, primary, joiner).unwrap();
        map.on_split(&topo, &grid, rid, created);
        let after = map.region_load(rid);
        let new = map.region_load(created);
        assert!((after.query + new.query - before.query).abs() < 1e-9);
        assert!((after.routing + new.routing - routing_seed).abs() < 1e-9);
    }

    #[test]
    fn merge_bookkeeping_adds() {
        let mut map = LoadMap {
            loads: HashMap::new(),
            alpha: 0.0,
        };
        map.loads.insert(
            RegionId::new(0),
            RegionLoad {
                query: 0.25,
                routing: 1.0,
            },
        );
        map.loads.insert(
            RegionId::new(1),
            RegionLoad {
                query: 0.5,
                routing: 2.0,
            },
        );
        map.on_merge(RegionId::new(1), RegionId::new(0));
        let l = map.region_load(RegionId::new(0));
        assert_eq!(l.query, 0.75);
        assert_eq!(l.routing, 3.0);
        assert_eq!(map.region_load(RegionId::new(1)), RegionLoad::default());
    }

    #[test]
    fn summary_matches_node_indexes() {
        let (topo, grid, _) = setup(60, Mode::Basic);
        let map = LoadMap::from_grid(&topo, &grid);
        let s = map.summary(&topo);
        assert_eq!(s.len(), topo.node_count());
        let max_by_hand = map
            .node_indexes(&topo)
            .into_values()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((s.max() - max_by_hand).abs() < 1e-12);
    }

    #[test]
    fn sample_routing_pairs_are_valid() {
        let (topo, _, _) = setup(20, Mode::Basic);
        let mut rng = SmallRng::seed_from_u64(8);
        for (from, target) in sample_routing_pairs(&topo, &mut rng, 50) {
            assert!(topo.region(from).is_some());
            assert!(topo.space().covers(target));
        }
    }
}
