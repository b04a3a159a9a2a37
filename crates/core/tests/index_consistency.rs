//! Property tests for the grid spatial index: after an arbitrary sequence
//! of structural mutations, `Topology::locate` must agree with the
//! linear-scan ground truth on every probe point.
//!
//! The mutation driver exercises every path that can touch region
//! geometry or ownership: splits, merges, secondary placement/removal,
//! role swaps (local and cross-region), node departures (including orphan
//! repair), and adoption.

use geogrid_core::topology::Role;
use geogrid_core::{CoreError, RegionId, Topology};
use geogrid_geometry::{Point, Space};
use proptest::prelude::*;

fn space() -> Space {
    Space::paper_evaluation()
}

/// Clamps a probe coordinate into the space (generators emit 0..=64
/// already, but keep the guard local and obvious).
fn probe(x: f64, y: f64) -> Point {
    space().clamp(Point::new(x, y))
}

/// Applies one encoded mutation. `op` selects the kind, `(x, y)` selects
/// the region it targets (via ground-truth scan, so the index under test
/// is never used to drive mutations).
fn apply_op(t: &mut Topology, op: u8, x: f64, y: f64) {
    let p = probe(x, y);
    let Ok(rid) = t.locate_scan(p) else {
        return;
    };
    let entry = t.region(rid).expect("scan returned a live region");
    let primary = entry.primary();
    let secondary = entry.secondary();
    match op % 8 {
        // Grow the network: split the covering region (biased: three
        // opcodes map here so sequences tend to build real topologies).
        0..=2 => {
            let j = t.register_node(p, 10.0);
            if t.split_region(rid, primary, j).is_err() {
                // Primary may sit outside its region after swaps; that is
                // fine for split (keeper gets the low half) — the only
                // expected failure is `give` being assigned, which cannot
                // happen for a fresh node.
                unreachable!("split of a live region with a fresh node");
            }
        }
        // Merge with the first neighbor that re-forms a rectangle.
        3 => {
            let neighbors: Vec<RegionId> = entry.neighbors().to_vec();
            for n in neighbors {
                let Some(ne) = t.region(n) else { continue };
                if t.region(rid)
                    .unwrap()
                    .region()
                    .merge(&ne.region())
                    .is_some()
                {
                    t.merge_regions(rid, n, primary, None)
                        .expect("owners include the kept primary");
                    break;
                }
            }
        }
        // Dual-peer lifecycle on the covering region.
        4 => match secondary {
            None => {
                let s = t.register_node(p, 50.0);
                t.set_secondary(rid, s).expect("region was half-full");
            }
            Some(_) => {
                t.take_secondary(rid).expect("region was full");
            }
        },
        // Within-region role swap, or a primary swap with a neighbor.
        5 => {
            if secondary.is_some() {
                t.swap_roles(rid).expect("region was full");
            } else if let Some(&n) = entry.neighbors().first() {
                t.swap_primaries(rid, n).expect("both regions live");
            }
        }
        // Cross-region: promote a neighbor's secondary into this region.
        6 => {
            let with_secondary = entry
                .neighbors()
                .iter()
                .copied()
                .find(|&n| t.region(n).is_some_and(|e| e.secondary().is_some()));
            if let Some(n) = with_secondary {
                t.switch_primary_with_secondary(rid, n)
                    .expect("neighbor had a secondary");
            }
        }
        // Departure of the primary (fail-over or orphan repair).
        _ => {
            if t.region_count() == 1 && secondary.is_none() {
                return; // keep the network non-empty
            }
            match t.remove_node(primary) {
                Ok(None) => {}
                Ok(Some(orphan)) => {
                    let a = t.register_node(p, 10.0);
                    t.adopt_region(orphan, a).expect("fresh node adopts");
                }
                Err(e) => panic!("remove_node({primary}): {e:?}"),
            }
        }
    }
}

fn build(ops: &[(u8, f64, f64)]) -> Topology {
    let mut t = Topology::new(space());
    let n0 = t.register_node(Point::new(1.0, 1.0), 10.0);
    t.bootstrap(n0).expect("fresh network");
    for &(op, x, y) in ops {
        apply_op(&mut t, op, x, y);
    }
    t
}

/// Probe points that historically hide indexing bugs: space corners and
/// edges (the west/south closure), plus every region's corners — a
/// region's own south-west corner is covered by a *different* region
/// under the half-open rule.
fn adversarial_probes(t: &Topology) -> Vec<Point> {
    let b = space().bounds();
    let mut probes = vec![
        Point::new(b.x(), b.y()),
        Point::new(b.east(), b.north()),
        Point::new(b.x(), b.north()),
        Point::new(b.east(), b.y()),
        Point::new(b.x(), b.north() / 2.0),
        Point::new(b.east() / 2.0, b.y()),
    ];
    for (_, e) in t.regions() {
        let r = e.region();
        probes.push(Point::new(r.x(), r.y()));
        probes.push(Point::new(r.east(), r.north()));
        probes.push(r.center());
    }
    probes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn locate_matches_scan_after_mutations(
        ops in prop::collection::vec((any::<u8>(), 0.0..=64.0, 0.0..=64.0), 1..60),
        raw_probes in prop::collection::vec((0.0..=64.0, 0.0..=64.0), 16),
    ) {
        let t = build(&ops);
        prop_assert!(t.validate().is_ok(), "invalid topology: {:?}", t.validate());
        for (x, y) in raw_probes {
            let p = probe(x, y);
            prop_assert_eq!(t.locate(p).expect("in space"), t.locate_scan(p).expect("in space"), "at {:?}", p);
        }
        for p in adversarial_probes(&t) {
            prop_assert_eq!(t.locate(p).expect("in space"), t.locate_scan(p).expect("in space"), "at {:?}", p);
        }
    }

    #[test]
    fn assignments_stay_consistent_after_mutations(
        ops in prop::collection::vec((any::<u8>(), 0.0..=64.0, 0.0..=64.0), 1..60),
    ) {
        let t = build(&ops);
        prop_assert!(t.validate().is_ok(), "invalid topology: {:?}", t.validate());
        // Every region's owners resolve back through the assignment map.
        for (rid, e) in t.regions() {
            prop_assert_eq!(t.assignment(e.primary()), Some((rid, Role::Primary)));
            if let Some(s) = e.secondary() {
                prop_assert_eq!(t.assignment(s), Some((rid, Role::Secondary)));
            }
        }
        // And locate never invents out-of-space answers.
        let out_of_space = matches!(
            t.locate(Point::new(-1.0, 1.0)),
            Err(CoreError::OutOfSpace { .. })
        );
        prop_assert!(out_of_space);
    }
}
