//! Shared experiment plumbing.

use std::path::{Path, PathBuf};

use geogrid_core::balance::{AdaptationEngine, BalanceConfig};
use geogrid_core::builder::{Mode, NetworkBuilder};
use geogrid_core::load::LoadMap;
use geogrid_core::Topology;
use geogrid_geometry::Space;
use geogrid_metrics::table::Table;
use geogrid_workload::{HotSpotField, WorkloadGrid};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Paper defaults: 64×64-mile plane, 0.5-mile workload cells, 10 hot
/// spots with radius ∈ [0.1, 10] miles.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Trials per setting (the paper uses 100 randomly generated
    /// networks; the default here keeps `repro all` minutes-scale).
    pub trials: usize,
    /// Number of hot spots in the workload field.
    pub hotspots: usize,
    /// Workload-cell side length in miles.
    pub cell_size: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Output directory for CSVs.
    pub out_dir: PathBuf,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            trials: 10,
            hotspots: 10,
            cell_size: 0.5,
            seed: 20070625, // ICDCS'07
            out_dir: PathBuf::from("results"),
        }
    }
}

impl ExperimentConfig {
    /// The evaluation space (the paper's 64 × 64 miles).
    pub fn space(&self) -> Space {
        Space::paper_evaluation()
    }

    /// A deterministic RNG for (experiment, trial).
    pub fn rng(&self, experiment: u64, trial: u64) -> SmallRng {
        SmallRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(experiment << 32)
                .wrapping_add(trial),
        )
    }

    /// Builds the trial's random hot-spot field and its cell grid.
    pub fn field_and_grid(&self, rng: &mut SmallRng) -> (HotSpotField, WorkloadGrid) {
        let field = HotSpotField::random(rng, self.space(), self.hotspots);
        let grid = WorkloadGrid::from_field(self.space(), self.cell_size, &field);
        (field, grid)
    }

    /// Prints a table and writes it as `<out_dir>/<name>.csv`.
    pub fn emit(&self, name: &str, table: &Table) {
        println!("\n== {name} ==");
        print!("{table}");
        let path = self.out_dir.join(format!("{name}.csv"));
        match table.write_csv(&path) {
            Ok(()) => println!("-> wrote {}", path.display()),
            Err(e) => eprintln!("-> FAILED to write {}: {e}", path.display()),
        }
    }
}

/// Builds a network of `n` nodes in the given mode, seeded per trial.
/// The topology is moved out of the builder rather than cloned.
pub fn build_network(config: &ExperimentConfig, mode: Mode, n: usize, trial: u64) -> Topology {
    NetworkBuilder::new(config.space(), config.seed ^ (trial << 17) ^ n as u64)
        .mode(mode)
        .build(n)
        .into_topology()
}

/// Runs adaptation to convergence (bounded) and returns the final loads.
pub fn adapt_until_stable(topo: &mut Topology, grid: &WorkloadGrid, max_rounds: usize) -> LoadMap {
    let mut loads = LoadMap::from_grid(topo, grid);
    let engine = AdaptationEngine::new(BalanceConfig::default());
    engine.run(topo, grid, &mut loads, max_rounds);
    loads
}

/// Formats a float for the tables (6 significant decimals).
pub fn fmt(v: f64) -> String {
    format!("{v:.6}")
}

/// Ensures the output directory exists (errors only surface on write).
pub fn ensure_dir(path: &Path) {
    let _ = std::fs::create_dir_all(path);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rngs_are_deterministic_and_distinct() {
        let c = ExperimentConfig::default();
        let a: Vec<u32> = {
            use rand::Rng;
            let mut r = c.rng(1, 1);
            (0..4).map(|_| r.random()).collect()
        };
        let b: Vec<u32> = {
            use rand::Rng;
            let mut r = c.rng(1, 1);
            (0..4).map(|_| r.random()).collect()
        };
        assert_eq!(a, b);
        let d: Vec<u32> = {
            use rand::Rng;
            let mut r = c.rng(1, 2);
            (0..4).map(|_| r.random()).collect()
        };
        assert_ne!(a, d);
    }

    #[test]
    fn build_network_modes() {
        let c = ExperimentConfig::default();
        let basic = build_network(&c, Mode::Basic, 50, 0);
        assert_eq!(basic.region_count(), 50);
        let dual = build_network(&c, Mode::DualPeer, 50, 0);
        assert!(dual.region_count() < 50);
    }

    #[test]
    fn adaptation_helper_runs() {
        let c = ExperimentConfig::default();
        let mut rng = c.rng(9, 0);
        let (_, grid) = c.field_and_grid(&mut rng);
        let mut topo = build_network(&c, Mode::DualPeer, 100, 0);
        let loads = adapt_until_stable(&mut topo, &grid, 10);
        assert!(loads.summary(&topo).mean() >= 0.0);
        topo.validate().unwrap();
    }
}
