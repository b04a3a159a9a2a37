//! Engine joins build the model's overlay. One stream of coordinates and
//! capacities joins nodes one at a time on a [`SimHarness`] (250 ms
//! apart) and with [`join::join_basic`]/[`join::join_dual`] on a
//! [`Topology`], under one [`Mode`] value. After every join both sides
//! must hold the same seats (region bits, primary, secondary); at the end
//! every primary's neighbour table must list the model's adjacency, and
//! the model must audit clean.

use std::collections::{BTreeMap, BTreeSet};

use geogrid::core::builder::Mode;
use geogrid::core::engine::sim::SimHarness;
use geogrid::core::engine::EngineConfig;
use geogrid::core::join;
use geogrid::core::topology::Role;
use geogrid::core::Topology;
use geogrid::geometry::{Point, Region, Space};

const NODES: usize = 200;
const CAPACITIES: [f64; 7] = [1.0, 10.0, 10.0, 100.0, 10.0, 1000.0, 3.0];

type Bits = [u64; 4];
/// Primary id → (region, secondary id, neighbour (region, primary id)s).
type Layout = BTreeMap<u64, (Bits, Option<u64>, BTreeSet<(Bits, u64)>)>;

fn bits(r: &Region) -> Bits {
    [r.x(), r.y(), r.width(), r.height()].map(f64::to_bits)
}

/// SplitMix64, as a uniform draw in `[0, 1)`.
fn unit(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) as f64 / 2f64.powi(64)
}

fn engine_layout(h: &SimHarness) -> Layout {
    let views = h.owner_views();
    let primaries = views.iter().filter(|(_, v)| v.role == Role::Primary);
    primaries
        .map(|(id, v)| {
            let table = v.neighbors.iter();
            let table = table.map(|n| (bits(&n.region), n.primary.id().as_u64()));
            let peer = v.peer.map(|p| p.id().as_u64());
            (id.as_u64(), (bits(&v.region), peer, table.collect()))
        })
        .collect()
}

fn model_layout(topo: &Topology) -> Layout {
    topo.regions()
        .map(|(_, e)| {
            let table = e.neighbors().iter().filter_map(|&n| topo.region(n));
            let table = table.map(|n| (bits(&n.region()), n.primary().as_u64()));
            let secondary = e.secondary().map(|s| s.as_u64());
            (
                e.primary().as_u64(),
                (bits(&e.region()), secondary, table.collect()),
            )
        })
        .collect()
}

/// The entries of `layout` without their neighbour tables.
fn seats(layout: &Layout) -> BTreeSet<(Bits, u64, Option<u64>)> {
    layout.iter().map(|(&p, &(r, s, _))| (r, p, s)).collect()
}

fn assert_parity(mode: Mode, seed: u64) {
    let space = Space::paper_evaluation();
    let config = EngineConfig {
        mode,
        ..EngineConfig::default()
    };
    let mut engine = SimHarness::new(space, config, seed);
    let mut model = Topology::new(space);
    let mut rng = seed;
    for i in 0..NODES {
        let coord = Point::new(unit(&mut rng) * 64.0, unit(&mut rng) * 64.0);
        let capacity = CAPACITIES[i % CAPACITIES.len()];
        let outcome = if i == 0 {
            engine.bootstrap(coord, capacity);
            let first = model.register_node(coord, capacity);
            model.bootstrap(first).expect("bootstrap an empty topology");
            None
        } else {
            engine.join(coord, capacity);
            let joined = match mode {
                Mode::Basic => join::join_basic(&mut model, coord, capacity),
                Mode::DualPeer => join::join_dual(&mut model, coord, capacity),
            };
            Some(joined.expect("model join").1)
        };
        engine.run_for(250);
        let (got, want) = (seats(&engine_layout(&engine)), seats(&model_layout(&model)));
        assert!(
            got == want,
            "{mode:?} seed {seed}: join {i} diverges (model: {outcome:?})\n\
             engine only: {:?}\nmodel only: {:?}\n{} of {} seats match",
            got.difference(&want).collect::<Vec<_>>(),
            want.difference(&got).collect::<Vec<_>>(),
            got.intersection(&want).count(),
            want.len(),
        );
    }
    let (got, want) = (engine_layout(&engine), model_layout(&model));
    for (primary, entry) in &want {
        assert_eq!(
            got.get(primary),
            Some(entry),
            "{mode:?} seed {seed}: {primary}'s table"
        );
    }
    assert_eq!(model.audit(), Vec::new(), "{mode:?} seed {seed}");
}

#[test]
fn basic_engine_joins_build_the_model_layout() {
    for seed in 1..=4 {
        assert_parity(Mode::Basic, seed);
    }
}

#[test]
#[ignore = "dual-peer engine joins diverge from the model (ROADMAP item 33)"]
fn dual_peer_engine_joins_build_the_model_layout() {
    for seed in 1..=4 {
        assert_parity(Mode::DualPeer, seed);
    }
}
