//! Figures 5 and 6: standard deviation (Figure 5) and mean (Figure 6) of
//! the workload index versus network size, for three protocol variants —
//! basic GeoGrid, GeoGrid + dual peer, and GeoGrid + dual peer + load
//! balance adaptation.
//!
//! The paper's populations range from 10³ to 1.6 × 10⁴ with 100 random
//! networks per setting; the headline observation is that dual peer +
//! adaptation beats basic "by one order of magnitude in both metrics".

use geogrid_core::builder::Mode;
use geogrid_core::load::LoadMap;
use geogrid_metrics::{table::Table, RunningStats};

use crate::common::{adapt_until_stable, build_network, ExperimentConfig};
use crate::par::par_trials;

/// The paper's population settings.
pub const POPULATIONS: [usize; 5] = [1_000, 2_000, 4_000, 8_000, 16_000];

/// Maximum adaptation rounds per trial (the paper converges "in the first
/// a few rounds").
pub const MAX_ROUNDS: usize = 25;

/// Aggregates for one (population, variant) cell.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cell {
    /// Trial-averaged std-dev of the workload index.
    pub std_dev: f64,
    /// Trial-averaged mean of the workload index.
    pub mean: f64,
    /// Trial-averaged max of the workload index.
    pub max: f64,
}

/// One population row: basic / dual / dual+adaptation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Number of nodes.
    pub nodes: usize,
    /// Basic GeoGrid.
    pub basic: Cell,
    /// GeoGrid + dual peer.
    pub dual: Cell,
    /// GeoGrid + dual peer + adaptation.
    pub adapted: Cell,
}

fn aggregate(values: &[(f64, f64, f64)]) -> Cell {
    let std: RunningStats = values.iter().map(|v| v.0).collect();
    let mean: RunningStats = values.iter().map(|v| v.1).collect();
    let max: RunningStats = values.iter().map(|v| v.2).collect();
    Cell {
        std_dev: std.mean(),
        mean: mean.mean(),
        max: max.mean(),
    }
}

/// Runs one population setting over all trials.
///
/// Trials run in parallel; each is a pure function of its index (its RNG
/// and network are seeded by trial number), and results are folded in
/// trial order, so the output is identical to the serial loop.
pub fn run_population(config: &ExperimentConfig, nodes: usize) -> Row {
    let samples = par_trials(config.trials, |trial| {
        let mut rng = config.rng(56, trial as u64);
        let (_, grid) = config.field_and_grid(&mut rng);

        let topo_basic = build_network(config, Mode::Basic, nodes, trial as u64);
        let s = LoadMap::from_grid(&topo_basic, &grid).summary(&topo_basic);
        let basic = (s.std_dev(), s.mean(), s.max());

        let mut topo_dual = build_network(config, Mode::DualPeer, nodes, trial as u64);
        let s = LoadMap::from_grid(&topo_dual, &grid).summary(&topo_dual);
        let dual = (s.std_dev(), s.mean(), s.max());

        let loads = adapt_until_stable(&mut topo_dual, &grid, MAX_ROUNDS);
        let s = loads.summary(&topo_dual);
        (basic, dual, (s.std_dev(), s.mean(), s.max()))
    });
    let basic: Vec<_> = samples.iter().map(|s| s.0).collect();
    let dual: Vec<_> = samples.iter().map(|s| s.1).collect();
    let adapted: Vec<_> = samples.iter().map(|s| s.2).collect();
    Row {
        nodes,
        basic: aggregate(&basic),
        dual: aggregate(&dual),
        adapted: aggregate(&adapted),
    }
}

/// Runs the full sweep and emits `fig5_stddev.csv` / `fig6_mean.csv`.
pub fn run(config: &ExperimentConfig) -> Vec<Row> {
    run_with_populations(config, &POPULATIONS)
}

/// Runs the sweep over custom populations (tests use small ones).
pub fn run_with_populations(config: &ExperimentConfig, populations: &[usize]) -> Vec<Row> {
    let rows: Vec<Row> = populations
        .iter()
        .map(|&n| {
            eprintln!("fig5/6: population {n} ({} trials)...", config.trials);
            run_population(config, n)
        })
        .collect();

    let mut fig5 = Table::new(["nodes", "basic", "dual_peer", "dual_peer_adaptation"]);
    let mut fig6 = Table::new(["nodes", "basic", "dual_peer", "dual_peer_adaptation"]);
    let mut maxes = Table::new(["nodes", "basic", "dual_peer", "dual_peer_adaptation"]);
    for row in &rows {
        fig5.row([
            row.nodes.to_string(),
            format!("{:.6e}", row.basic.std_dev),
            format!("{:.6e}", row.dual.std_dev),
            format!("{:.6e}", row.adapted.std_dev),
        ]);
        fig6.row([
            row.nodes.to_string(),
            format!("{:.6e}", row.basic.mean),
            format!("{:.6e}", row.dual.mean),
            format!("{:.6e}", row.adapted.mean),
        ]);
        maxes.row([
            row.nodes.to_string(),
            format!("{:.6e}", row.basic.max),
            format!("{:.6e}", row.dual.max),
            format!("{:.6e}", row.adapted.max),
        ]);
    }
    config.emit("fig5_stddev", &fig5);
    config.emit("fig6_mean", &fig6);
    config.emit("fig5_6_max", &maxes);
    for row in &rows {
        let ratio = row.basic.std_dev / row.adapted.std_dev.max(f64::MIN_POSITIVE);
        println!(
            "N={:>6}: basic/adapted std-dev ratio = {ratio:.1}x",
            row.nodes
        );
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_order_as_in_paper() {
        let config = ExperimentConfig {
            trials: 3,
            out_dir: std::env::temp_dir().join("geogrid_fig56_test"),
            ..ExperimentConfig::default()
        };
        let rows = run_with_populations(&config, &[400]);
        let row = rows[0];
        // Basic is the worst; adaptation improves on dual peer.
        assert!(
            row.basic.std_dev > row.adapted.std_dev,
            "basic {} <= adapted {}",
            row.basic.std_dev,
            row.adapted.std_dev
        );
        assert!(row.dual.std_dev >= row.adapted.std_dev);
        assert!(row.basic.mean > row.adapted.mean);
        let _ = std::fs::remove_dir_all(&config.out_dir);
    }
}
