//! The adaptation engine: trigger checks, plan application, and rounds.

use geogrid_metrics::Summary;
use geogrid_workload::WorkloadGrid;

use crate::balance::{
    mechanisms::{lowest_neighbor_index, plan_for_region},
    AdaptationPlan, BalanceConfig, Mechanism,
};
use crate::load::LoadMap;
use crate::{rules, CoreError, RegionId, Topology};

/// Statistics recorded after each adaptation round (Figures 7 and 8 plot
/// these by round; Figures 9 and 10 plot per-operation recordings).
#[derive(Debug, Clone, PartialEq)]
pub struct RoundStats {
    /// Round number, starting at 1.
    pub round: usize,
    /// Adaptations executed in this round.
    pub adaptations: usize,
    /// Workload-index summary over all nodes after the round.
    pub summary: Summary,
}

/// Runs the paper's load-balance adaptation over a topology.
///
/// "Each node periodically exchanges workload statistic information with
/// its neighbors" — a round models one such period: every region checks
/// the √2 trigger (in ascending region-id order for determinism) and the
/// overloaded ones execute their cheapest applicable mechanism.
///
/// # Examples
///
/// ```
/// use geogrid_core::balance::{AdaptationEngine, BalanceConfig};
/// use geogrid_core::builder::{Mode, NetworkBuilder};
/// use geogrid_core::load::LoadMap;
/// use geogrid_geometry::Space;
/// use geogrid_workload::{HotSpotField, WorkloadGrid};
/// use rand::SeedableRng;
///
/// let space = Space::paper_evaluation();
/// let mut net = NetworkBuilder::new(space, 3).mode(Mode::DualPeer).build(100);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
/// let field = HotSpotField::random(&mut rng, space, 5);
/// let grid = WorkloadGrid::from_field(space, 0.5, &field);
/// let mut loads = LoadMap::from_grid(net.topology(), &grid);
///
/// let engine = AdaptationEngine::new(BalanceConfig::default());
/// let stats = engine.run(net.topology_mut(), &grid, &mut loads, 10);
/// assert!(stats.len() <= 10);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AdaptationEngine {
    config: BalanceConfig,
}

impl AdaptationEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: BalanceConfig) -> Self {
        Self { config }
    }

    /// Executes one plan, updating topology and load bookkeeping.
    ///
    /// # Errors
    ///
    /// Propagates topology errors if the plan no longer matches the state
    /// (stale plans are a caller bug; `run_round` always applies fresh
    /// ones).
    pub fn apply(
        &self,
        topo: &mut Topology,
        grid: &WorkloadGrid,
        loads: &mut LoadMap,
        plan: &AdaptationPlan,
    ) -> Result<(), CoreError> {
        let partner = || {
            plan.partner
                .expect("invariant: plan_for_region sets a partner on every plan but (d)'s")
        };
        match plan.mechanism {
            Mechanism::StealSecondary | Mechanism::StealRemoteSecondary => {
                let stolen = topo.take_secondary(partner())?;
                topo.set_secondary(plan.region, stolen)?;
                // The stolen (stronger) node becomes primary; the old
                // primary resigns to secondary.
                topo.swap_roles(plan.region)?;
            }
            Mechanism::SwitchPrimaries | Mechanism::SwitchPrimaryWithRemotePrimary => {
                topo.swap_primaries(plan.region, partner())?;
            }
            Mechanism::MergeWithNeighbor => {
                let neighbor = partner();
                let own = topo
                    .region(plan.region)
                    .ok_or(CoreError::UnknownRegion(plan.region))?;
                let other = topo
                    .region(neighbor)
                    .ok_or(CoreError::UnknownRegion(neighbor))?;
                let (primary, secondary) =
                    rules::seat(own.primary(), other.primary(), |&n| topo.capacity(n));
                let displaced =
                    topo.merge_regions(plan.region, neighbor, primary, Some(secondary))?;
                debug_assert!(displaced.is_empty(), "plan guaranteed <= 2 owners");
                loads.on_merge(neighbor, plan.region);
            }
            Mechanism::SplitRegion => {
                let entry = topo
                    .region(plan.region)
                    .ok_or(CoreError::UnknownRegion(plan.region))?;
                let primary = entry.primary();
                let secondary = entry
                    .secondary()
                    .ok_or(CoreError::NoSecondary(plan.region))?;
                let created = topo.split_region(plan.region, primary, secondary)?;
                loads.on_split(topo, grid, plan.region, created);
            }
            Mechanism::SwitchPrimaryWithSecondary | Mechanism::SwitchPrimaryWithRemoteSecondary => {
                topo.switch_primary_with_secondary(plan.region, partner())?;
            }
        }
        Ok(())
    }

    /// One region's turn: if `rid` is still alive (not merged away earlier
    /// in the round) and its trigger fires, plans and applies its cheapest
    /// mechanism.
    fn adapt(
        &self,
        topo: &mut Topology,
        grid: &WorkloadGrid,
        loads: &mut LoadMap,
        rid: RegionId,
    ) -> Option<AdaptationPlan> {
        let own = loads.index_of(topo, rid);
        let lowest = lowest_neighbor_index(topo, loads, rid);
        if !rules::overloaded(own, lowest, self.config.trigger_ratio) {
            return None;
        }
        let plan = plan_for_region(topo, loads, &self.config, rid)?;
        self.apply(topo, grid, loads, &plan).expect(
            "invariant: a freshly planned mechanism applies to the topology it was planned on",
        );
        Some(plan)
    }

    /// Runs one adaptation round. Returns the adaptations executed.
    pub fn run_round(
        &self,
        topo: &mut Topology,
        grid: &WorkloadGrid,
        loads: &mut LoadMap,
    ) -> Vec<AdaptationPlan> {
        let ids: Vec<_> = topo.region_ids().collect();
        ids.into_iter()
            .filter_map(|rid| self.adapt(topo, grid, loads, rid))
            .collect()
    }

    /// Runs up to `max_rounds` rounds, stopping early once a round makes
    /// no adaptation. Returns per-round statistics.
    pub fn run(
        &self,
        topo: &mut Topology,
        grid: &WorkloadGrid,
        loads: &mut LoadMap,
        max_rounds: usize,
    ) -> Vec<RoundStats> {
        let mut out = Vec::new();
        for round in 1..=max_rounds {
            let applied = self.run_round(topo, grid, loads);
            let n = applied.len();
            out.push(RoundStats {
                round,
                adaptations: n,
                summary: loads.summary(topo),
            });
            if n == 0 {
                break;
            }
        }
        out
    }

    /// Runs rounds while recording the node-index summary after **every
    /// single adaptation** (the per-operation convergence view of Figures
    /// 9 and 10), until `max_ops` operations have been executed or a round
    /// goes idle.
    pub fn run_per_op(
        &self,
        topo: &mut Topology,
        grid: &WorkloadGrid,
        loads: &mut LoadMap,
        max_ops: usize,
    ) -> Vec<Summary> {
        let mut out = Vec::new();
        loop {
            let ids: Vec<_> = topo.region_ids().collect();
            let before = out.len();
            for rid in ids {
                if out.len() >= max_ops {
                    return out;
                }
                if self.adapt(topo, grid, loads, rid).is_some() {
                    out.push(loads.summary(topo));
                }
            }
            if out.len() == before {
                return out;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{Mode, NetworkBuilder};
    use geogrid_geometry::Space;
    use geogrid_workload::HotSpotField;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn setup(n: usize, seed: u64) -> (Topology, WorkloadGrid, LoadMap) {
        let space = Space::paper_evaluation();
        let net = NetworkBuilder::new(space, seed)
            .mode(Mode::DualPeer)
            .build(n);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xfeed);
        let field = HotSpotField::random(&mut rng, space, 8);
        let grid = WorkloadGrid::from_field(space, 0.5, &field);
        let topo = net.topology().clone();
        let loads = LoadMap::from_grid(&topo, &grid);
        (topo, grid, loads)
    }

    #[test]
    fn adaptation_reduces_imbalance() {
        let (mut topo, grid, mut loads) = setup(300, 5);
        let before = loads.summary(&topo);
        let engine = AdaptationEngine::default();
        let stats = engine.run(&mut topo, &grid, &mut loads, 20);
        let after = loads.summary(&topo);
        assert!(!stats.is_empty());
        assert!(
            after.std_dev() <= before.std_dev(),
            "std {} -> {}",
            before.std_dev(),
            after.std_dev()
        );
        topo.validate().unwrap();
    }

    #[test]
    fn rounds_converge_to_idle() {
        let (mut topo, grid, mut loads) = setup(200, 7);
        let engine = AdaptationEngine::default();
        let stats = engine.run(&mut topo, &grid, &mut loads, 50);
        // The run must terminate before the cap by reaching a quiet round.
        assert!(stats.len() < 50, "never converged: {} rounds", stats.len());
        assert_eq!(stats.last().unwrap().adaptations, 0);
        topo.validate().unwrap();
    }

    #[test]
    fn applied_plans_keep_topology_valid() {
        let (mut topo, grid, mut loads) = setup(150, 9);
        let engine = AdaptationEngine::default();
        for _ in 0..5 {
            let applied = engine.run_round(&mut topo, &grid, &mut loads);
            topo.validate().unwrap();
            if applied.is_empty() {
                break;
            }
        }
    }

    #[test]
    fn per_op_recording_counts_operations() {
        let (mut topo, grid, mut loads) = setup(300, 11);
        let engine = AdaptationEngine::default();
        let summaries = engine.run_per_op(&mut topo, &grid, &mut loads, 40);
        assert!(!summaries.is_empty());
        assert!(summaries.len() <= 40);
        topo.validate().unwrap();
    }

    #[test]
    fn local_only_never_uses_remote_mechanisms() {
        let (mut topo, grid, mut loads) = setup(300, 13);
        let engine = AdaptationEngine::new(BalanceConfig {
            local_only: true,
            ..BalanceConfig::default()
        });
        for _ in 0..10 {
            let applied = engine.run_round(&mut topo, &grid, &mut loads);
            for a in &applied {
                assert!(!a.mechanism.is_remote());
            }
            if applied.is_empty() {
                break;
            }
        }
        topo.validate().unwrap();
    }

    #[test]
    fn engine_handles_moving_hotspots() {
        let space = Space::paper_evaluation();
        let net = NetworkBuilder::new(space, 17)
            .mode(Mode::DualPeer)
            .build(200);
        let mut topo = net.topology().clone();
        let mut rng = SmallRng::seed_from_u64(99);
        let mut field = HotSpotField::random(&mut rng, space, 6);
        let mut grid = WorkloadGrid::from_field(space, 0.5, &field);
        let engine = AdaptationEngine::default();
        for _ in 0..5 {
            field.advance_epochs(&mut rng, space, 4);
            grid.fill(&field);
            let mut loads = LoadMap::from_grid(&topo, &grid);
            engine.run_round(&mut topo, &grid, &mut loads);
            topo.validate().unwrap();
        }
    }
}
