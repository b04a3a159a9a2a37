//! Figures 9 and 10: convergence of the standard deviation (Figure 9)
//! and mean (Figure 10) of the workload index, plotted by **cumulative
//! number of adaptations** (0–500) on a 2,000-node dual-peer network.
//!
//! Under moving hot spots the paper sees "a few surges on the dashed
//! lines" — spots relocating mid-convergence — before the system settles.
//!
//! Each trial's network comes from [`build_network`], and the
//! per-operation adaptation loop then mutates its geometry freely —
//! routing keeps no state between queries, so nothing can be served
//! stale.

use geogrid_core::balance::{AdaptationEngine, BalanceConfig};
use geogrid_core::builder::Mode;
use geogrid_core::load::LoadMap;
use geogrid_metrics::{table::Table, RunningStats};
use rand::Rng;

use crate::common::{build_network, ExperimentConfig};
use crate::par::par_trials;

/// Network size (paper: 2 × 10³ peers).
pub const NODES: usize = 2_000;

/// Adaptation operations plotted (paper: 500).
pub const OPS: usize = 500;

/// Per-operation series.
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// (mean, std) after each adaptation, static hot spots.
    pub static_points: Vec<(f64, f64)>,
    /// (mean, std) after each adaptation, moving hot spots.
    pub moving_points: Vec<(f64, f64)>,
}

fn pad_to(points: &mut Vec<(f64, f64)>, n: usize) {
    // Once the network converges no further adaptations fire; the curve
    // holds its final value (matches how the paper's lines flatten).
    if let Some(&last) = points.last() {
        while points.len() < n {
            points.push(last);
        }
    }
    points.truncate(n);
}

/// Runs one trial of both scenarios.
pub fn run_trial(config: &ExperimentConfig, nodes: usize, trial: u64) -> Series {
    let engine = AdaptationEngine::new(BalanceConfig::default());
    let mut series = Series::default();

    // Static: record after every operation until idle or OPS.
    {
        let mut rng = config.rng(910, trial);
        let (_, grid) = config.field_and_grid(&mut rng);
        let mut topo = build_network(config, Mode::DualPeer, nodes, trial);
        let mut loads = LoadMap::from_grid(&topo, &grid);
        let summaries = engine.run_per_op(&mut topo, &grid, &mut loads, OPS);
        series.static_points = summaries.iter().map(|s| (s.mean(), s.std_dev())).collect();
        if series.static_points.is_empty() {
            let s = loads.summary(&topo);
            series.static_points.push((s.mean(), s.std_dev()));
        }
        pad_to(&mut series.static_points, OPS);
    }

    // Moving: spots advance 4-10 steps per adaptation round; operations
    // are recorded one at a time.
    {
        let mut rng = config.rng(910, trial);
        let (mut field, mut grid) = config.field_and_grid(&mut rng);
        let mut topo = build_network(config, Mode::DualPeer, nodes, trial);
        let mut points = Vec::new();
        let mut idle_rounds = 0;
        while points.len() < OPS && idle_rounds < 3 {
            let steps = rng.random_range(4..=10);
            field.advance_epochs(&mut rng, config.space(), steps);
            grid.fill(&field);
            let mut loads = LoadMap::from_grid(&topo, &grid);
            let budget = OPS - points.len();
            let summaries = engine.run_per_op(&mut topo, &grid, &mut loads, budget);
            if summaries.is_empty() {
                idle_rounds += 1;
                let s = loads.summary(&topo);
                points.push((s.mean(), s.std_dev()));
            } else {
                idle_rounds = 0;
                points.extend(summaries.iter().map(|s| (s.mean(), s.std_dev())));
            }
        }
        series.moving_points = points;
        pad_to(&mut series.moving_points, OPS);
    }
    series
}

/// Runs all trials, averages per operation index, and emits
/// `fig9_std_by_op.csv` / `fig10_mean_by_op.csv`.
pub fn run(config: &ExperimentConfig) -> Series {
    run_sized(config, NODES)
}

/// Runs with a custom network size (tests use small ones).
pub fn run_sized(config: &ExperimentConfig, nodes: usize) -> Series {
    eprintln!("fig9/10: {} trials...", config.trials);
    // Parallel across trials; per-op averaging below folds in trial order,
    // so the output is identical to the serial loop.
    let trials: Vec<Series> = par_trials(config.trials, |t| run_trial(config, nodes, t as u64));
    let avg = |pick: fn(&Series) -> &Vec<(f64, f64)>, which: usize| -> Vec<f64> {
        (0..OPS)
            .map(|op| {
                let stats: RunningStats = trials
                    .iter()
                    .map(|s| {
                        let p = pick(s)[op];
                        if which == 0 {
                            p.0
                        } else {
                            p.1
                        }
                    })
                    .collect();
                stats.mean()
            })
            .collect()
    };
    let static_mean = avg(|s| &s.static_points, 0);
    let static_std = avg(|s| &s.static_points, 1);
    let moving_mean = avg(|s| &s.moving_points, 0);
    let moving_std = avg(|s| &s.moving_points, 1);

    let mut fig9 = Table::new(["adaptations", "static_hotspot", "moving_hotspot"]);
    let mut fig10 = Table::new(["adaptations", "static_hotspot", "moving_hotspot"]);
    // Sample every 10th point like the paper's marker spacing.
    for op in (0..OPS).step_by(10) {
        fig9.row([
            (op + 1).to_string(),
            format!("{:.6e}", static_std[op]),
            format!("{:.6e}", moving_std[op]),
        ]);
        fig10.row([
            (op + 1).to_string(),
            format!("{:.6e}", static_mean[op]),
            format!("{:.6e}", moving_mean[op]),
        ]);
    }
    config.emit("fig9_std_by_op", &fig9);
    config.emit("fig10_mean_by_op", &fig10);

    Series {
        static_points: static_mean.into_iter().zip(static_std).collect(),
        moving_points: moving_mean.into_iter().zip(moving_std).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_op_series_have_full_length_and_static_converges() {
        let config = ExperimentConfig {
            trials: 1,
            out_dir: std::env::temp_dir().join("geogrid_fig910_test"),
            ..ExperimentConfig::default()
        };
        let s = run_sized(&config, 300);
        assert_eq!(s.static_points.len(), OPS);
        assert_eq!(s.moving_points.len(), OPS);
        // Static curve is non-increasing in the large: the end is no
        // worse than the start.
        let first_std = s.static_points[0].1;
        let last_std = s.static_points[OPS - 1].1;
        assert!(
            last_std <= first_std * 1.05,
            "static per-op never improved: {first_std} -> {last_std}"
        );
        let _ = std::fs::remove_dir_all(&config.out_dir);
    }
}
