//! Whole-network constructors for experiments and examples.
//!
//! The paper's evaluation builds "randomly generated GeoGrid service
//! networks": nodes with skewed capacities placed over the plane, joining
//! one by one through a random entry node. [`NetworkBuilder`] reproduces
//! that procedure for both protocol variants, seeded and deterministic.

use geogrid_geometry::Space;
use geogrid_workload::placement::uniform_point;
use geogrid_workload::CapacityProfile;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::join::{self, JoinOutcome};
use crate::{NodeId, RegionId, Topology};

/// Which join protocol the network uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Basic GeoGrid: every join splits the covering region (§2.1).
    #[default]
    Basic,
    /// Dual-peer GeoGrid: joins fill half-full regions first (§2.3).
    DualPeer,
}

/// Builds randomly generated GeoGrid networks.
///
/// # Examples
///
/// ```
/// use geogrid_core::builder::{Mode, NetworkBuilder};
/// use geogrid_geometry::Space;
///
/// let net = NetworkBuilder::new(Space::paper_evaluation(), 7)
///     .mode(Mode::Basic)
///     .build(50);
/// assert_eq!(net.topology().region_count(), 50);
/// ```
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    space: Space,
    seed: u64,
    mode: Mode,
    capacities: CapacityProfile,
}

impl NetworkBuilder {
    /// Creates a builder over `space`, deterministic in `seed`.
    pub fn new(space: Space, seed: u64) -> Self {
        Self {
            space,
            seed,
            mode: Mode::Basic,
            capacities: CapacityProfile::gnutella(),
        }
    }

    /// Selects the join protocol.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Selects the node capacity distribution.
    pub fn capacities(mut self, capacities: CapacityProfile) -> Self {
        self.capacities = capacities;
        self
    }

    /// Builds a network of `n` nodes by sequential joins, each drawing a
    /// random entry region as the paper's procedure does (see
    /// [`BuiltNetwork::join_one`]).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn build(self, n: usize) -> BuiltNetwork {
        assert!(n > 0, "a network needs at least one node");
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut topo = Topology::new(self.space);
        let coord = uniform_point(&mut rng, self.space);
        let capacity = self.capacities.sample(&mut rng);
        let first = topo.register_node(coord, capacity);
        let root = topo
            .bootstrap(first)
            .expect("invariant: bootstrap over the topology this builder just created cannot fail");
        let mut net = BuiltNetwork {
            topology: topo,
            rng,
            mode: self.mode,
            capacities: self.capacities,
            live_regions: vec![root],
        };
        for _ in 1..n {
            net.join_one();
        }
        net
    }
}

/// A constructed network plus the RNG state to keep growing it.
#[derive(Debug, Clone)]
pub struct BuiltNetwork {
    topology: Topology,
    rng: SmallRng,
    mode: Mode,
    capacities: CapacityProfile,
    /// Live regions for the entry draw (see [`Self::join_one`]).
    live_regions: Vec<RegionId>,
}

impl BuiltNetwork {
    /// The network's topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Mutable access (adaptation engines operate here).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// The builder's RNG (for follow-on randomized steps that should stay
    /// on the same deterministic stream).
    pub fn rng_mut(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Joins one more node: random placement, random capacity, random
    /// entry region — the paper's bootstrap.
    ///
    /// Returns the node and its join outcome.
    pub fn join_one(&mut self) -> (NodeId, JoinOutcome) {
        let coord = uniform_point(&mut self.rng, self.topology.space());
        let capacity = self.capacities.sample(&mut self.rng);
        // The entry region is drawn but not used: a model join acts on the
        // region covering `coord` directly, which is where a walk from any
        // entry ends (see `join`). The draw stays because it advances the
        // RNG; without it every seeded layout, figure CSV and benchmark
        // topology would change. The entry cache can go stale when
        // adaptation merges regions between joins; a dead hit refreshes it
        // and draws again, as it always has.
        let entry = self.live_regions[self.rng.random_range(0..self.live_regions.len())];
        if self.topology.region(entry).is_none() {
            self.live_regions = self.topology.region_ids().collect();
            self.rng.random_range(0..self.live_regions.len());
        }
        let (node, outcome) = match self.mode {
            Mode::Basic => join::join_basic(&mut self.topology, coord, capacity),
            Mode::DualPeer => join::join_dual(&mut self.topology, coord, capacity),
        }
        .expect("invariant: joins over a builder-maintained topology cannot fail");
        if let Some(created) = outcome.created_region() {
            self.live_regions.push(created);
        }
        (node, outcome)
    }

    /// The join protocol in use.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Consumes the builder state and returns the topology without
    /// cloning it (experiment harnesses build, then only need the
    /// topology).
    pub fn into_topology(self) -> Topology {
        self.topology
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geogrid_metrics::Summary;

    #[test]
    fn basic_build_has_one_region_per_node() {
        let net = NetworkBuilder::new(Space::paper_evaluation(), 1).build(200);
        assert_eq!(net.topology().region_count(), 200);
        assert_eq!(net.topology().node_count(), 200);
        net.topology().validate().unwrap();
    }

    #[test]
    fn dual_build_has_fewer_regions_than_nodes() {
        let net = NetworkBuilder::new(Space::paper_evaluation(), 1)
            .mode(Mode::DualPeer)
            .build(200);
        // Dual peer halves the region count (every region needs two owners
        // before any split); allow slack for stragglers.
        let regions = net.topology().region_count();
        assert!(regions < 140, "got {regions} regions for 200 nodes");
        assert!(regions >= 100, "got {regions} regions for 200 nodes");
        net.topology().validate().unwrap();
    }

    #[test]
    fn same_seed_same_network() {
        let a = NetworkBuilder::new(Space::paper_evaluation(), 9).build(100);
        let b = NetworkBuilder::new(Space::paper_evaluation(), 9).build(100);
        let regions = |net: &BuiltNetwork| {
            net.topology()
                .regions()
                .map(|(rid, e)| (rid, e.region(), e.primary(), e.secondary()))
                .collect::<Vec<_>>()
        };
        assert_eq!(regions(&a), regions(&b));
    }

    #[test]
    fn different_seeds_differ() {
        let a = NetworkBuilder::new(Space::paper_evaluation(), 9).build(50);
        let b = NetworkBuilder::new(Space::paper_evaluation(), 10).build(50);
        let areas = |net: &BuiltNetwork| {
            let mut v: Vec<u64> = net
                .topology()
                .regions()
                .map(|(_, e)| e.region().area().to_bits())
                .collect();
            v.sort();
            v
        };
        assert_ne!(areas(&a), areas(&b));
    }

    #[test]
    fn dual_peer_gives_strong_nodes_bigger_regions() {
        // The paper's Figure 3 observation: with dual peer, more powerful
        // nodes own bigger regions. Verify the correlation directionally:
        // mean region area of the strongest primaries exceeds that of the
        // weakest.
        let net = NetworkBuilder::new(Space::paper_evaluation(), 5)
            .mode(Mode::DualPeer)
            .build(500);
        let topo = net.topology();
        let mut strong = Vec::new();
        let mut weak = Vec::new();
        for (_, e) in topo.regions() {
            let cap = topo.node(e.primary()).unwrap().capacity();
            if cap >= 1_000.0 {
                strong.push(e.region().area());
            } else if cap <= 1.0 {
                weak.push(e.region().area());
            }
        }
        if !strong.is_empty() && !weak.is_empty() {
            let strong = Summary::from_values(strong);
            let weak = Summary::from_values(weak);
            assert!(
                strong.mean() > weak.mean(),
                "strong {} <= weak {}",
                strong.mean(),
                weak.mean()
            );
        }
    }

    #[test]
    fn incremental_joins_after_build() {
        let mut net = NetworkBuilder::new(Space::paper_evaluation(), 3).build(10);
        for _ in 0..10 {
            net.join_one();
        }
        assert_eq!(net.topology().node_count(), 20);
        net.topology().validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        NetworkBuilder::new(Space::paper_evaluation(), 0).build(0);
    }
}
