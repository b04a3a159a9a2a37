//! §2.2 routing-cost claim: "routing between a pair of randomly chosen
//! regions has the overhead of O(2√N)" hops.
//!
//! This experiment measures greedy-routing hop counts over growing
//! networks and reports the measured mean next to the `2√N` bound. The
//! same pairs are routed again with express fingers, and the hops-vs-N
//! exponent of each engine is fitted by least squares on the log-log
//! sweep (`routing_fit.csv`).

use std::collections::HashMap;

use geogrid_core::builder::Mode;
use geogrid_core::load::sample_routing_pairs;
use geogrid_core::routing::{RouteOptions, Router};
use geogrid_core::{RegionId, Topology};
use geogrid_geometry::Point;
use geogrid_metrics::{gini, table::Table, Summary};

use crate::common::{build_network, ExperimentConfig};
use crate::par::par_trials;

/// Populations swept.
pub const POPULATIONS: [usize; 8] = [256, 512, 1_024, 2_048, 4_096, 8_192, 16_384, 65_536];

/// Routed pairs sampled per population.
pub const SAMPLES: usize = 1_000;

/// One population's hop statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct HopRow {
    /// Number of regions (basic network: == nodes).
    pub nodes: usize,
    /// Greedy hop-count summary over the sampled pairs.
    pub hops: Summary,
    /// Express hop-count summary over the same pairs.
    pub express: Summary,
    /// Mean hops of the express routes' finger descent, before the
    /// greedy hand-off.
    pub express_prefix_mean: f64,
    /// The paper's bound, `2√N`.
    pub bound: f64,
}

/// Runs one population.
pub fn run_population(config: &ExperimentConfig, nodes: usize) -> HopRow {
    let topo = build_network(config, Mode::Basic, nodes, 0);
    let mut rng = config.rng(22, nodes as u64);
    let pairs = sample_routing_pairs(&topo, &mut rng, SAMPLES);
    // One router for both engines: the sampled routes share its stamp
    // and hop buffers. Neither engine draws from the RNG.
    let mut router = Router::new();
    let (hops, _) = route_pairs(&topo, &mut router, &pairs, &RouteOptions::greedy());
    let (express, express_prefix_mean) =
        route_pairs(&topo, &mut router, &pairs, &RouteOptions::express());
    HopRow {
        nodes,
        hops,
        express,
        express_prefix_mean,
        bound: 2.0 * (nodes as f64).sqrt(),
    }
}

/// Routes every pair with `options`: the hop-count summary and the mean
/// express prefix.
fn route_pairs(
    topo: &Topology,
    router: &mut Router,
    pairs: &[(RegionId, Point)],
    options: &RouteOptions,
) -> (Summary, f64) {
    let mut prefix = 0usize;
    let hops = Summary::from_values(pairs.iter().map(|&(from, target)| {
        router
            .route(topo, from, target, options)
            .expect("route succeeds on valid topology");
        prefix += router.express_prefix();
        router.hop_count() as f64
    }));
    (hops, prefix as f64 / pairs.len() as f64)
}

/// Least-squares slope of ln(hops) against ln(N) over `(N, mean hops)`
/// points: the fitted exponent b of hops ≈ a·N^b (NaN with fewer than two
/// sizes).
fn scaling_exponent(points: impl Iterator<Item = (usize, f64)>) -> f64 {
    let pts: Vec<(f64, f64)> = points.map(|(n, h)| ((n as f64).ln(), h.ln())).collect();
    let k = pts.len() as f64;
    let (sx, sy) = pts.iter().fold((0.0, 0.0), |(a, b), p| (a + p.0, b + p.1));
    let (sxx, sxy) = pts
        .iter()
        .fold((0.0, 0.0), |(a, b), p| (a + p.0 * p.0, b + p.0 * p.1));
    (k * sxy - sx * sy) / (k * sxx - sx * sx)
}

/// Runs the sweep and emits `routing_hops.csv`, `routing_fit.csv` and
/// `routing_spread.csv`.
pub fn run(config: &ExperimentConfig) -> Vec<HopRow> {
    run_with_populations(config, &POPULATIONS)
}

/// Runs the sweep over custom populations.
pub fn run_with_populations(config: &ExperimentConfig, populations: &[usize]) -> Vec<HopRow> {
    eprintln!("routing: populations {populations:?}...");
    // Parallel across populations (each seeds its own RNG by size); rows
    // come back in population order, so the table matches the serial run.
    let rows: Vec<HopRow> = par_trials(populations.len(), |i| {
        run_population(config, populations[i])
    });
    let mut table = Table::new([
        "nodes",
        "mean_hops",
        "p50_hops",
        "p99_hops",
        "max_hops",
        "bound_2_sqrt_n",
        "mean_over_bound",
        "express_mean_hops",
        "express_prefix_mean",
    ]);
    for row in &rows {
        table.row([
            row.nodes.to_string(),
            format!("{:.2}", row.hops.mean()),
            format!("{:.1}", row.hops.median()),
            format!("{:.1}", row.hops.percentile(99.0)),
            format!("{:.0}", row.hops.max()),
            format!("{:.2}", row.bound),
            format!("{:.3}", row.hops.mean() / row.bound),
            format!("{:.2}", row.express.mean()),
            format!("{:.2}", row.express_prefix_mean),
        ]);
    }
    config.emit("routing_hops", &table);
    let greedy = scaling_exponent(rows.iter().map(|r| (r.nodes, r.hops.mean())));
    let express = scaling_exponent(rows.iter().map(|r| (r.nodes, r.express.mean())));
    let mut fit = Table::new(["engine", "hops_exponent"]);
    fit.row(["greedy".to_string(), format!("{greedy:.4}")]);
    fit.row(["express".to_string(), format!("{express:.4}")]);
    config.emit("routing_fit", &fit);
    spread_experiment(config);
    rows
}

/// Transit-load spread: greedy routing always burns the same corridors;
/// the paper's "randomization of routing entries" spreads the forwarding
/// work. Measures Gini of per-region transit counts and the mean hop cost
/// paid for the spreading.
pub fn spread_experiment(config: &ExperimentConfig) {
    let n = 1_024;
    let topo = build_network(config, Mode::Basic, n, 1);
    let mut rng = config.rng(33, 0);
    let pairs = sample_routing_pairs(&topo, &mut rng, 2_000);
    let mut table = Table::new(["strategy", "transit_gini", "mean_hops"]);
    let mut router = Router::new();
    for (label, slack) in [("greedy", None), ("randomized_25pct", Some(0.25))] {
        let mut transits: HashMap<RegionId, f64> = HashMap::new();
        let mut hops = 0usize;
        for (from, target) in &pairs {
            match slack {
                None => router.route(&topo, *from, *target, &RouteOptions::greedy()),
                Some(s) => router.route_with_rng(
                    &topo,
                    *from,
                    *target,
                    &RouteOptions::randomized(s),
                    &mut rng,
                ),
            }
            .expect("routable");
            hops += router.hop_count();
            let trace = router.hops();
            for rid in &trace[..trace.len().saturating_sub(1)] {
                *transits.entry(*rid).or_default() += 1.0;
            }
        }
        // Include zero-transit regions in the spread measure.
        let mut counts: Vec<f64> = topo
            .region_ids()
            .map(|r| transits.get(&r).copied().unwrap_or(0.0))
            .collect();
        counts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        table.row([
            label.to_string(),
            format!("{:.4}", gini(counts)),
            format!("{:.2}", hops as f64 / pairs.len() as f64),
        ]);
    }
    config.emit("routing_spread", &table);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hops_stay_within_paper_bound_and_scale() {
        let config = ExperimentConfig {
            out_dir: std::env::temp_dir().join("geogrid_routing_test"),
            ..ExperimentConfig::default()
        };
        let rows = run_with_populations(&config, &[64, 256]);
        for row in &rows {
            assert!(
                row.hops.mean() < row.bound,
                "N={}: mean {} exceeds 2sqrt(N) {}",
                row.nodes,
                row.hops.mean(),
                row.bound
            );
            assert!(
                row.express.mean() <= row.hops.mean(),
                "N={}: express mean {} exceeds greedy {}",
                row.nodes,
                row.express.mean(),
                row.hops.mean()
            );
            assert!(
                row.express_prefix_mean <= row.express.mean(),
                "N={}: express prefix {} exceeds the express route {}",
                row.nodes,
                row.express_prefix_mean,
                row.express.mean()
            );
        }
        // Quadrupling the network roughly doubles the mean hops (sqrt
        // scaling; allow generous slack).
        let ratio = rows[1].hops.mean() / rows[0].hops.mean();
        assert!(
            (1.3..=3.0).contains(&ratio),
            "scaling ratio {ratio} not sqrt-like"
        );
        let _ = std::fs::remove_dir_all(&config.out_dir);
    }
}
