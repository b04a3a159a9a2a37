//! Figures 7 and 8: convergence of the mean (Figure 7) and standard
//! deviation (Figure 8) of the workload index, plotted by **round of
//! adaptation**, for three scenarios on a 2,000-node dual-peer network:
//!
//! * **static hot spots** — spots never move while adaptation runs;
//! * **moving hot spots** — spots advance 4–10 migration steps per round
//!   (faster than adaptation);
//! * **no adaptation** — the moving-spot baseline with adaptation off.
//!
//! The paper's observation: both adaptation scenarios converge in the
//! first few rounds, after which moving spots are absorbed gracefully.

use geogrid_core::balance::{AdaptationEngine, BalanceConfig};
use geogrid_core::builder::Mode;
use geogrid_core::load::LoadMap;
use geogrid_metrics::{table::Table, RunningStats};
use rand::Rng;

use crate::common::{build_network, ExperimentConfig};
use crate::par::par_trials;

/// Network size (paper: 2 × 10³ peers).
pub const NODES: usize = 2_000;

/// Rounds plotted (paper: 25).
pub const ROUNDS: usize = 25;

/// Per-round series for the three scenarios.
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// Mean workload index after each round, static spots.
    pub static_mean: Vec<f64>,
    /// Std-dev after each round, static spots.
    pub static_std: Vec<f64>,
    /// Mean after each round, moving spots.
    pub moving_mean: Vec<f64>,
    /// Std-dev after each round, moving spots.
    pub moving_std: Vec<f64>,
    /// Mean after each round, no adaptation (moving spots).
    pub none_mean: Vec<f64>,
    /// Std-dev after each round, no adaptation (moving spots).
    pub none_std: Vec<f64>,
}

/// Runs one trial of all three scenarios with a common starting network.
pub fn run_trial(config: &ExperimentConfig, nodes: usize, trial: u64) -> Series {
    let mut series = Series::default();
    let engine = AdaptationEngine::new(BalanceConfig::default());

    // Static scenario.
    {
        let mut rng = config.rng(78, trial);
        let (_, grid) = config.field_and_grid(&mut rng);
        let mut topo = build_network(config, Mode::DualPeer, nodes, trial);
        let mut loads = LoadMap::from_grid(&topo, &grid);
        for _ in 0..ROUNDS {
            engine.run_round(&mut topo, &grid, &mut loads);
            let s = loads.summary(&topo);
            series.static_mean.push(s.mean());
            series.static_std.push(s.std_dev());
        }
    }

    // Moving scenario (+ the no-adaptation baseline sharing the same
    // hot-spot trajectory).
    {
        let mut rng = config.rng(78, trial);
        let (mut field, mut grid) = config.field_and_grid(&mut rng);
        let mut topo = build_network(config, Mode::DualPeer, nodes, trial);
        let baseline = topo.clone();
        for _ in 0..ROUNDS {
            // Spots move 4-10 steps before the round of adaptation ends.
            let steps = rng.random_range(4..=10);
            field.advance_epochs(&mut rng, config.space(), steps);
            grid.fill(&field);
            let mut loads = LoadMap::from_grid(&topo, &grid);
            engine.run_round(&mut topo, &grid, &mut loads);
            let s = loads.summary(&topo);
            series.moving_mean.push(s.mean());
            series.moving_std.push(s.std_dev());
            let s = LoadMap::from_grid(&baseline, &grid).summary(&baseline);
            series.none_mean.push(s.mean());
            series.none_std.push(s.std_dev());
        }
        baseline.validate().expect("baseline untouched");
    }
    series
}

/// Runs all trials, averages per round, and emits
/// `fig7_mean_by_round.csv` / `fig8_std_by_round.csv`.
pub fn run(config: &ExperimentConfig) -> Series {
    run_sized(config, NODES)
}

/// Runs with a custom network size (tests use small ones).
pub fn run_sized(config: &ExperimentConfig, nodes: usize) -> Series {
    eprintln!("fig7/8: {} trials...", config.trials);
    // Parallel across trials; per-round averaging below folds in trial
    // order, so the output is identical to the serial loop.
    let trials: Vec<Series> = par_trials(config.trials, |t| run_trial(config, nodes, t as u64));
    let avg = |pick: fn(&Series) -> &Vec<f64>| -> Vec<f64> {
        (0..ROUNDS)
            .map(|round| {
                let stats: RunningStats = trials.iter().map(|s| pick(s)[round]).collect();
                stats.mean()
            })
            .collect()
    };
    let series = Series {
        static_mean: avg(|s| &s.static_mean),
        static_std: avg(|s| &s.static_std),
        moving_mean: avg(|s| &s.moving_mean),
        moving_std: avg(|s| &s.moving_std),
        none_mean: avg(|s| &s.none_mean),
        none_std: avg(|s| &s.none_std),
    };

    let mut fig7 = Table::new(["round", "static_hotspot", "moving_hotspot", "no_adaptation"]);
    let mut fig8 = Table::new(["round", "static_hotspot", "moving_hotspot", "no_adaptation"]);
    for round in 0..ROUNDS {
        fig7.row([
            (round + 1).to_string(),
            format!("{:.6e}", series.static_mean[round]),
            format!("{:.6e}", series.moving_mean[round]),
            format!("{:.6e}", series.none_mean[round]),
        ]);
        fig8.row([
            (round + 1).to_string(),
            format!("{:.6e}", series.static_std[round]),
            format!("{:.6e}", series.moving_std[round]),
            format!("{:.6e}", series.none_std[round]),
        ]);
    }
    config.emit("fig7_mean_by_round", &fig7);
    config.emit("fig8_std_by_round", &fig8);
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptation_beats_no_adaptation_and_converges() {
        let config = ExperimentConfig {
            trials: 2,
            out_dir: std::env::temp_dir().join("geogrid_fig78_test"),
            ..ExperimentConfig::default()
        };
        let s = run_sized(&config, 300);
        // Static scenario: later rounds no worse than round 1 (converged).
        let first = s.static_std[0];
        let last = *s.static_std.last().unwrap();
        assert!(
            last <= first * 1.05,
            "static never converged: {first} -> {last}"
        );
        // Adaptation under moving spots beats the untouched baseline at
        // the end.
        assert!(
            s.moving_std.last().unwrap() < s.none_std.last().unwrap(),
            "moving {} vs none {}",
            s.moving_std.last().unwrap(),
            s.none_std.last().unwrap()
        );
        let _ = std::fs::remove_dir_all(&config.out_dir);
    }
}
