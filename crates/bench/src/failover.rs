//! Dual-peer fault-resilience experiment.
//!
//! The paper claims dual peer "improves the fault resilience of the
//! GeoGrid service network" but does not quantify it. This experiment
//! does, at the message level on the simulator:
//!
//! 1. build an overlay (basic vs dual peer) and publish records at random
//!    positions;
//! 2. crash a fraction of the nodes simultaneously (no goodbye messages);
//! 3. let heartbeat timeouts and fail-over promotions run;
//! 4. re-query every record's position from a surviving node.
//!
//! Reported per crash fraction: how many records are still retrievable
//! (data survival), how many probe queries get *any* answer back
//! (service availability), and what the surviving primaries claim: their
//! summed area over the space's (a hole reads < 1, an overlap > 1) and the
//! number of primary pairs whose regions overlap (ownership forks). The
//! last two are read from the owner views after the probe phase and draw
//! nothing from the RNG.
//!
//! Forwarding inside the simulated engine uses the same greedy next-hop
//! rule as `geogrid_core::routing` (each node scans its own neighbor
//! table with precomputed distance keys); fail-over promotions are
//! ownership changes only, which at the topology level leave the routing
//! epoch intact.

use geogrid_core::engine::sim::SimHarness;
use geogrid_core::engine::{ClientEvent, EngineConfig, EngineMode, Input};
use geogrid_core::service::{LocationQuery, LocationRecord};
use geogrid_core::topology::Role;
use geogrid_core::NodeId;
use geogrid_geometry::{Point, Region, Space};
use geogrid_metrics::{table::Table, RunningStats};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::ExperimentConfig;
use crate::par::par_trials;

/// Nodes in the simulated overlay.
pub const NODES: usize = 48;

/// Records published before the crash.
pub const RECORDS: usize = 120;

/// Crash fractions swept.
pub const CRASH_FRACTIONS: [f64; 3] = [0.1, 0.25, 0.4];

/// One measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailoverRow {
    /// `basic` or `dual`.
    pub mode: &'static str,
    /// Fraction of nodes crashed.
    pub crash_fraction: f64,
    /// Fraction of records still retrievable after fail-over.
    pub survival: f64,
    /// Fraction of probe queries answered at all.
    pub availability: f64,
    /// Summed area of live primaries over the space's area.
    pub primary_area: f64,
    /// Pairs of live primaries whose regions overlap.
    pub overlapping_primary_pairs: f64,
}

/// What one trial measures; the fields are [`FailoverRow`]'s.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Trial {
    survival: f64,
    availability: f64,
    primary_area: f64,
    overlapping_primary_pairs: usize,
}

fn build(mode: EngineMode, seed: u64, nodes: usize) -> SimHarness {
    let mut h = SimHarness::new(
        Space::paper_evaluation(),
        EngineConfig {
            mode,
            balance_enabled: false, // isolate fail-over from adaptation
            ..EngineConfig::default()
        },
        seed,
    );
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xDEAD);
    let coord =
        |rng: &mut SmallRng| Point::new(rng.random_range(0.2..63.8), rng.random_range(0.2..63.8));
    let caps = [1.0, 10.0, 10.0, 100.0, 10.0];
    h.bootstrap(coord(&mut rng), 10.0);
    for i in 1..nodes {
        h.join(coord(&mut rng), caps[i % caps.len()]);
        h.run_for(250);
    }
    h.settle();
    h
}

/// Runs one (mode, crash fraction) trial.
fn run_trial(
    mode: EngineMode,
    crash_fraction: f64,
    seed: u64,
    nodes: usize,
    records: usize,
) -> Trial {
    let mut h = build(mode, seed, nodes);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xBEEF);

    // Publish through random live nodes.
    let mut positions = Vec::with_capacity(records);
    for i in 0..records {
        let pos = Point::new(rng.random_range(0.2..63.8), rng.random_range(0.2..63.8));
        positions.push(pos);
        let publisher = NodeId::new(rng.random_range(0..nodes as u64));
        h.inject(
            publisher,
            Input::UserPublish {
                record: LocationRecord::new(i as u64, "data", pos, vec![0u8; 16]),
            },
        );
        if i % 8 == 0 {
            h.run_for(120);
        }
    }
    h.run_for(3_000); // publishes route + replicas sync

    // Crash a random subset; keep node 0 alive as the prober.
    let crash_count = ((nodes as f64) * crash_fraction).round() as usize;
    let mut victims: Vec<u64> = (1..nodes as u64).collect();
    for i in (1..victims.len()).rev() {
        let j = rng.random_range(0..=i);
        victims.swap(i, j);
    }
    for &v in victims.iter().take(crash_count) {
        h.crash(NodeId::new(v));
    }
    // Heartbeat timeouts + promotions.
    h.run_for(4_000);

    // Probe every record position from the survivor.
    let prober = NodeId::new(0);
    let before_events = h.events_of(prober).len();
    for (i, pos) in positions.iter().enumerate() {
        h.inject(
            prober,
            Input::UserQuery {
                query: LocationQuery::new(
                    Region::new(pos.x - 0.05, pos.y - 0.05, 0.1, 0.1),
                    prober,
                ),
            },
        );
        if i % 8 == 0 {
            h.run_for(150);
        }
    }
    h.run_for(3_000);

    let mut answered = 0usize;
    let mut recovered = 0usize;
    for e in &h.events_of(prober)[before_events..] {
        if let ClientEvent::QueryResults { records, .. } = e {
            answered += 1;
            recovered += usize::from(!records.is_empty());
        }
    }
    let primaries: Vec<Region> = h
        .owner_views()
        .into_iter()
        .filter(|(_, v)| v.role == Role::Primary)
        .map(|(_, v)| v.region)
        .collect();
    let overlapping_primary_pairs = primaries
        .iter()
        .enumerate()
        .map(|(i, a)| {
            primaries[i + 1..]
                .iter()
                .filter(|b| a.intersects(b))
                .count()
        })
        .sum();
    Trial {
        survival: recovered as f64 / records as f64,
        availability: answered as f64 / records as f64,
        primary_area: primaries.iter().map(Region::area).sum::<f64>()
            / Space::paper_evaluation().bounds().area(),
        overlapping_primary_pairs,
    }
}

/// Runs the sweep and emits `failover.csv`.
pub fn run(config: &ExperimentConfig) -> Vec<FailoverRow> {
    run_sized(config, NODES, RECORDS)
}

/// Runs with custom sizes (tests shrink them).
pub fn run_sized(config: &ExperimentConfig, nodes: usize, records: usize) -> Vec<FailoverRow> {
    let trials = config.trials.clamp(1, 10); // sim trials are heavier
    let mut rows = Vec::new();
    for &fraction in &CRASH_FRACTIONS {
        for (mode, label) in [(EngineMode::Basic, "basic"), (EngineMode::DualPeer, "dual")] {
            eprintln!("failover: {label} at {:.0}% crash...", fraction * 100.0);
            let mut survival = RunningStats::new();
            let mut availability = RunningStats::new();
            let mut primary_area = RunningStats::new();
            let mut overlaps = RunningStats::new();
            // Parallel sim trials, folded in trial order (identical to the
            // serial loop; each trial's harness is seeded by its index).
            let results = par_trials(trials, |trial| {
                let seed = config.seed ^ ((trial as u64) << 21) ^ (fraction * 100.0) as u64;
                run_trial(mode, fraction, seed, nodes, records)
            });
            for t in results {
                survival.push(t.survival);
                availability.push(t.availability);
                primary_area.push(t.primary_area);
                overlaps.push(t.overlapping_primary_pairs as f64);
            }
            rows.push(FailoverRow {
                mode: label,
                crash_fraction: fraction,
                survival: survival.mean(),
                availability: availability.mean(),
                primary_area: primary_area.mean(),
                overlapping_primary_pairs: overlaps.mean(),
            });
        }
    }
    let mut table = Table::new([
        "mode",
        "crash_fraction",
        "record_survival",
        "query_availability",
        "primary_area",
        "overlapping_primary_pairs",
    ]);
    for r in &rows {
        table.row([
            r.mode.to_string(),
            format!("{:.2}", r.crash_fraction),
            format!("{:.3}", r.survival),
            format!("{:.3}", r.availability),
            format!("{:.3}", r.primary_area),
            format!("{:.2}", r.overlapping_primary_pairs),
        ]);
    }
    config.emit("failover", &table);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_peer_survives_more_than_basic() {
        let config = ExperimentConfig {
            trials: 2,
            out_dir: std::env::temp_dir().join("geogrid_failover_test"),
            ..ExperimentConfig::default()
        };
        let rows = run_sized(&config, 20, 40);
        // Compare at the heaviest crash fraction.
        let basic = rows
            .iter()
            .find(|r| r.mode == "basic" && r.crash_fraction == 0.4)
            .unwrap();
        let dual = rows
            .iter()
            .find(|r| r.mode == "dual" && r.crash_fraction == 0.4)
            .unwrap();
        assert!(
            dual.survival > basic.survival,
            "dual {} <= basic {}",
            dual.survival,
            basic.survival
        );
        // And dual must actually be resilient in absolute terms.
        assert!(dual.survival > 0.5, "dual survival only {}", dual.survival);
        let _ = std::fs::remove_dir_all(&config.out_dir);
    }

    /// The three `repro failover` trials (default seed, trials 2, 6 and 7)
    /// in which DualPeer at 40 % crash ended with two live primaries
    /// claiming overlapping regions while the silent-region ring-check
    /// asked only the asker's neighbours' primaries.
    #[test]
    fn dual_peer_crash_storm_leaves_no_overlapping_primaries() {
        let pairs = [24_264_905, 30_556_361, 32_653_513].map(|seed| {
            run_trial(EngineMode::DualPeer, 0.4, seed, NODES, RECORDS).overlapping_primary_pairs
        });
        assert_eq!(pairs, [0, 0, 0], "overlapping primary pairs per seed");
    }
}
