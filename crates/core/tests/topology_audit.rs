//! Model-explorer property tests for the structural auditor
//! (`Topology::audit` / `TopologyAuditor`).
//!
//! Two properties, each over randomized interleavings of the paper's
//! structural operations (joins that split, merges, fail-overs with
//! repair, and ownership hand-offs):
//!
//! 1. **The auditor stays silent on legal histories.** After every single
//!    operation the full audit reports no violation — except the one legal
//!    transient, [`ViolationKind::OrphanedOwner`], which may appear only
//!    between `remove_node` returning an orphan and its repair, and must
//!    name exactly that orphan. Since the audit now recomputes every
//!    express-link finger against the finger selection rule and sweeps the
//!    reverse index, this property also proves the incremental finger
//!    maintenance at each split/merge/fail-over/hand-off leaves zero
//!    dangling, mis-scaled, or asymmetric fingers.
//! 2. **Tessellation completeness.** The live regions always partition
//!    the space: areas sum to the space's area, no two regions overlap
//!    with positive area, every sampled point is covered by exactly one
//!    region, and neighbor links are symmetric edge-adjacencies.
//!
//! Together the two proptest blocks run 320 cases.
//!
//! The proptests start from one region, so their finger in-lists stay
//! short. Splits and merges update fingers from local geometry tests, and
//! the long in-lists that clamped fingers pile onto edge and large
//! regions are where that could go wrong. So two seeded cases, one per
//! join mode, start from a 1,024-node built layout and audit after each
//! of 200 operations.

use geogrid_core::audit::{TopologyAuditor, ViolationKind};
use geogrid_core::builder::{Mode, NetworkBuilder};
use geogrid_core::{join, RegionId, Topology};
use geogrid_geometry::{Point, Space};
use proptest::prelude::*;
use rand::Rng;

fn space() -> Space {
    Space::paper_evaluation()
}

fn probe(x: f64, y: f64) -> Point {
    space().clamp(Point::new(x, y))
}

/// Applies one encoded structural operation and audits around it.
///
/// Every path observes the topology afterwards and fails the test on any
/// violation; the explicit fail-over arm (`remove_node` + adopt) also
/// checks the orphan-transient contract mid-flight.
fn apply_audited(t: &mut Topology, auditor: &mut TopologyAuditor, op: u8, x: f64, y: f64) {
    let p = probe(x, y);
    let Ok(rid) = t.locate_scan(p) else {
        return;
    };
    let entry = t.region(rid).expect("scan returned a live region");
    let primary = entry.primary();
    let secondary = entry.secondary();
    match op % 8 {
        // Join protocols (both split a region somewhere).
        0 => {
            let _ = join::join_basic(t, p, 10.0).expect("basic join inside the space");
        }
        1..=2 => {
            let _ = join::join_dual(t, p, 25.0).expect("dual join inside the space");
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
        // Dual-peer lifecycle and hand-offs.
        4 => match secondary {
            None => {
                let s = t.register_node(p, 50.0);
                t.set_secondary(rid, s).expect("region was half-full");
            }
            Some(_) => {
                t.swap_roles(rid).expect("region was full");
            }
        },
        5 => {
            let with_secondary = entry
                .neighbors()
                .iter()
                .copied()
                .find(|&n| t.region(n).is_some_and(|e| e.secondary().is_some()));
            if let Some(n) = with_secondary {
                t.switch_primary_with_secondary(rid, n)
                    .expect("neighbor had a secondary");
            } else if let Some(&n) = entry.neighbors().first() {
                t.swap_primaries(rid, n).expect("both regions live");
            }
        }
        // Graceful departure / failure: repair happens inside.
        6 => {
            if t.region_count() > 1 || secondary.is_some() {
                let victim = secondary.unwrap_or(primary);
                join::fail(t, victim).expect("repairable departure");
            }
        }
        // Raw fail-over: remove_node may orphan the region; the audit in
        // between must report exactly that transient and nothing else.
        _ => {
            if t.region_count() == 1 && secondary.is_none() {
                return; // keep the network non-empty
            }
            match t.remove_node(primary).expect("primary was registered") {
                None => {}
                Some(orphan) => {
                    let mid = auditor.observe(t);
                    assert!(
                        !mid.is_empty()
                            && mid.iter().all(|v| matches!(
                                v.kind,
                                ViolationKind::OrphanedOwner(_, r) if r == orphan
                            )),
                        "between orphaning and repair the audit must report only \
                         the orphan transient for {orphan}, got {mid:?}"
                    );
                    let a = t.register_node(p, 10.0);
                    t.adopt_region(orphan, a).expect("fresh node adopts");
                }
            }
        }
    }
    let violations = auditor.observe(t);
    assert!(
        violations.is_empty(),
        "audit after op {op} at {p:?}: {violations:?}"
    );
}

fn build_audited(ops: &[(u8, f64, f64)]) -> Topology {
    let mut t = Topology::new(space());
    let n0 = t.register_node(Point::new(1.0, 1.0), 10.0);
    t.bootstrap(n0).expect("fresh network");
    let mut auditor = TopologyAuditor::new();
    assert!(auditor.observe(&t).is_empty(), "bootstrap must audit clean");
    for &(op, x, y) in ops {
        apply_audited(&mut t, &mut auditor, op, x, y);
    }
    t
}

/// 200 seeded joins, merges, repaired departures and raw fail-overs on
/// a 1,024-node `mode` layout, each audited in full (the auditor is not
/// throttled like the debug-build hook).
fn churn_built_layout(mode: Mode, join_op: u8) {
    let mut net = NetworkBuilder::new(space(), 41).mode(mode).build(1_024);
    let ops: Vec<(u8, f64, f64)> = (0..200)
        .map(|_| {
            let rng = net.rng_mut();
            let op = [join_op, join_op, 3, 6, 7][rng.random_range(0..5)];
            (op, 64.0 * rng.random::<f64>(), 64.0 * rng.random::<f64>())
        })
        .collect();
    let t = net.topology_mut();
    let mut auditor = TopologyAuditor::new();
    assert!(
        auditor.observe(t).is_empty(),
        "built layout must audit clean"
    );
    for (op, x, y) in ops {
        apply_audited(t, &mut auditor, op, x, y);
    }
}

#[test]
fn basic_layout_churn_stays_audit_clean() {
    churn_built_layout(Mode::Basic, 0);
}

#[test]
fn dual_peer_layout_churn_stays_audit_clean() {
    churn_built_layout(Mode::DualPeer, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Interleaved split/merge/fail-over/hand-off sequences keep every
    /// structural invariant, observed after each individual operation.
    #[test]
    fn model_explorer_stays_audit_clean(
        ops in prop::collection::vec((any::<u8>(), 0.0..=64.0, 0.0..=64.0), 1..32),
    ) {
        let t = build_audited(&ops);
        // And the summary view agrees with the typed audit.
        prop_assert!(t.validate().is_ok(), "validate: {:?}", t.validate());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The live regions tessellate the space after any legal history.
    #[test]
    fn tessellation_stays_complete(
        ops in prop::collection::vec((any::<u8>(), 0.0..=64.0, 0.0..=64.0), 1..32),
        samples in prop::collection::vec((0.0..=64.0, 0.0..=64.0), 24),
    ) {
        let t = build_audited(&ops);
        let regions: Vec<_> = t.regions().collect();

        // Areas sum to the space's area.
        let sum: f64 = regions.iter().map(|(_, e)| e.region().area()).sum();
        prop_assert!(
            (sum - space().bounds().area()).abs() < 1e-6,
            "area sum {sum} != space area {}",
            space().bounds().area()
        );

        // No pairwise positive-area overlap.
        for (i, (ra, ea)) in regions.iter().enumerate() {
            for (rb, eb) in regions.iter().skip(i + 1) {
                prop_assert!(
                    !ea.region().intersects(&eb.region()),
                    "{ra} and {rb} overlap: {:?} vs {:?}",
                    ea.region(),
                    eb.region()
                );
            }
        }

        // Every sampled point is covered by exactly one region (the
        // half-open rule plus boundary closure make this exact, not
        // "at least one").
        for &(x, y) in &samples {
            let p = probe(x, y);
            let covering: Vec<RegionId> = regions
                .iter()
                .filter(|(_, e)| e.covers(p, t.space()))
                .map(|(rid, _)| *rid)
                .collect();
            prop_assert!(
                covering.len() == 1,
                "{p:?} covered by {covering:?} (want exactly one)"
            );
            prop_assert_eq!(covering[0], t.locate(p).expect("in space"));
        }

        // Neighbor links are symmetric edge-adjacencies between live regions.
        for (rid, e) in &regions {
            for &n in e.neighbors() {
                let ne = t.region(n);
                prop_assert!(ne.is_some(), "{rid} lists dead neighbor {n}");
                let ne = ne.unwrap();
                prop_assert!(
                    e.region().touches_edge(&ne.region()),
                    "{rid} and {n} linked but not edge-adjacent"
                );
                prop_assert!(
                    ne.neighbors().contains(rid),
                    "link {rid} -> {n} not mirrored"
                );
            }
        }
    }
}
