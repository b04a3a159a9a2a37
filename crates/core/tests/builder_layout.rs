//! Pins the layouts [`NetworkBuilder`] produces.
//!
//! A seeded build is a fixed sequence of joins, and every figure CSV, the
//! routing hop table and the benchmark's `model_route` topology are
//! computed on such builds. Each test folds one 4,096-node build into a
//! 64-bit FNV-1a digest of, per live slot in slot order:
//!
//! * the rectangle's four `f64` bit patterns;
//! * the primary and the secondary (or a marker for none);
//! * the neighbour list, sorted;
//! * the whole `slot_fingers` block, padding included.
//!
//! A wrong finger hint, a changed join target or a shifted RNG stream
//! changes the digest, so it fails here exactly, not only through the
//! audit.

use geogrid_core::builder::{Mode, NetworkBuilder};
use geogrid_core::Topology;
use geogrid_geometry::Space;

const NODES: usize = 4_096;
const SEED: u64 = 7;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn layout_digest(t: &Topology) -> u64 {
    let mut h = Fnv::new();
    h.word(t.slot_count() as u64);
    for (rid, e) in t.regions() {
        h.word(u64::from(rid.as_u32()));
        let r = e.region();
        for v in [r.x(), r.y(), r.width(), r.height()] {
            h.word(v.to_bits());
        }
        h.word(e.primary().as_u64());
        h.word(e.secondary().map_or(u64::MAX, |s| s.as_u64()));
        let mut neighbors: Vec<u32> = e.neighbors().iter().map(|n| n.as_u32()).collect();
        neighbors.sort_unstable();
        h.word(neighbors.len() as u64);
        for n in neighbors {
            h.word(u64::from(n));
        }
        for &f in t.slot_fingers(rid.index()).ids() {
            h.word(u64::from(f));
        }
    }
    h.0
}

fn build(mode: Mode) -> Topology {
    NetworkBuilder::new(Space::paper_evaluation(), SEED)
        .mode(mode)
        .build(NODES)
        .into_topology()
}

#[test]
fn basic_layout_is_pinned() {
    let t = build(Mode::Basic);
    assert_eq!(t.region_count(), NODES);
    assert_eq!(
        layout_digest(&t),
        4_427_500_350_348_512_604,
        "Basic layout at seed {SEED}"
    );
    t.validate().expect("Basic build audits clean");
}

#[test]
fn dual_peer_layout_is_pinned() {
    let t = build(Mode::DualPeer);
    assert_eq!(
        layout_digest(&t),
        16_447_598_097_399_751_786,
        "DualPeer layout at seed {SEED}"
    );
    t.validate().expect("DualPeer build audits clean");
}
