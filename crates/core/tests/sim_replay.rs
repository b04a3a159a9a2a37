//! Pins one seeded message-level trajectory per engine mode.
//!
//! Every `SimHarness` test, `repro failover` and the simulator workloads
//! run on `geogrid-simnet`. Its event order — by time, ties by insertion
//! sequence — decides every seeded result, so a change to the simulator's
//! queue or process table must leave it bit-identical. Each test here
//! builds a network by ~120 sequential joins with virtual time between
//! them, injects a few client operations, crashes a few nodes and runs a
//! few more virtual seconds, then checks:
//!
//! * every [`SimStats`] counter, exactly;
//! * a 64-bit FNV-1a digest of [`SimHarness::owner_views`]: per live owner
//!   in id order, its id, the region's four `f64` bit patterns, its role,
//!   its peer (or a marker for none), its record count and its neighbour
//!   entries (primary and secondary ids), sorted.
//!
//! Neither run adapts, so a third test pins the engine's §2.4 decisions:
//! `engine_balance.rs`'s 150-node dual-peer load scenario on two seeds,
//! with the same checks plus the count of executed adaptations per
//! mechanism.

use geogrid_core::engine::sim::SimHarness;
use geogrid_core::engine::{ClientEvent, EngineConfig, EngineMode, Input};
use geogrid_core::service::{LocationQuery, LocationRecord};
use geogrid_core::topology::Role;
use geogrid_core::NodeId;
use geogrid_geometry::{Point, Region, Space};
use geogrid_simnet::SimStats;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const JOINS: u64 = 120;
const SEED: u64 = 0x51A1;

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

/// SplitMix64: the coordinates and capacities, independent of the
/// simulator's own RNG.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A coordinate inside the 64 × 64 evaluation space.
    fn point(&mut self) -> Point {
        let mut unit = || (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        Point::new(unit() * 63.0 + 0.5, unit() * 63.0 + 0.5)
    }
}

fn run(mode: EngineMode) -> (SimStats, u64) {
    let space = Space::paper_evaluation();
    let config = EngineConfig {
        mode,
        ..EngineConfig::default()
    };
    let mut h = SimHarness::new(space, config, SEED);
    let mut draw = Draw(SEED);
    h.bootstrap(draw.point(), 10.0);
    for i in 0..JOINS {
        let capacity = [1.0, 10.0, 100.0][(draw.next() % 3) as usize];
        h.join(draw.point(), capacity);
        h.run_for(150);
        if i % 20 == 19 {
            // Client traffic through the harness's injection path.
            let at = NodeId::new(draw.next() % (i + 2));
            let spot = draw.point();
            h.inject(
                at,
                Input::UserPublish {
                    record: LocationRecord::new(i, "car", spot, b"v".to_vec()),
                },
            );
            h.inject(
                at,
                Input::UserQuery {
                    query: LocationQuery::new(
                        Region::new(spot.x - 1.0, spot.y - 1.0, 2.0, 2.0),
                        at,
                    ),
                },
            );
        }
    }
    h.settle();
    // Crash up to three primaries (ids 3 mod 7), so dual-peer failover runs.
    let mut victims: Vec<NodeId> = h
        .owner_views()
        .into_iter()
        .filter(|(_, v)| v.role == Role::Primary)
        .map(|(id, _)| id)
        .collect();
    victims.retain(|id| id.as_u64() % 7 == 3);
    for id in victims.into_iter().take(3) {
        h.crash(id);
        h.run_for(500);
    }
    h.run_for(3_000);

    (h.stats(), digest(&h))
}

/// The FNV-1a digest of `h`'s owner views described in the module docs.
fn digest(h: &SimHarness) -> u64 {
    let mut d = Fnv::new();
    let views = h.owner_views();
    d.word(views.len() as u64);
    for (id, v) in views {
        d.word(id.as_u64());
        for x in [
            v.region.x(),
            v.region.y(),
            v.region.width(),
            v.region.height(),
        ] {
            d.word(x.to_bits());
        }
        d.word(match v.role {
            Role::Primary => 1,
            Role::Secondary => 2,
        });
        d.word(v.peer.map_or(u64::MAX, |p| p.id().as_u64()));
        d.word(v.records as u64);
        let mut neighbors: Vec<(u64, u64)> = v
            .neighbors
            .iter()
            .map(|n| {
                (
                    n.primary.id().as_u64(),
                    n.secondary.map_or(u64::MAX, |s| s.id().as_u64()),
                )
            })
            .collect();
        neighbors.sort_unstable();
        d.word(neighbors.len() as u64);
        for (p, s) in neighbors {
            d.word(p);
            d.word(s);
        }
    }
    d.0
}

#[test]
fn basic_trajectory_is_pinned() {
    let (stats, digest) = run(EngineMode::Basic);
    assert_eq!(
        stats,
        SimStats {
            sent: 73_413,
            delivered: 73_033,
            lost: 0,
            undeliverable: 144,
            timers_fired: 17_575,
            events: 90_876,
        }
    );
    assert_eq!(digest, 0xe83a_7584_4208_2689, "owner views moved");
}

#[test]
fn dual_peer_trajectory_is_pinned() {
    let (stats, digest) = run(EngineMode::DualPeer);
    assert_eq!(
        stats,
        SimStats {
            sent: 58_258,
            delivered: 57_878,
            lost: 0,
            undeliverable: 156,
            timers_fired: 17_575,
            events: 75_733,
        }
    );
    assert_eq!(digest, 0xfe5e_7b0b_d62e_170f, "owner views moved");
}

/// `engine_balance.rs`'s "large" scenario: 150 dual-peer nodes on a mixed
/// capacity cycle, 100 one-mile queries from node 0 at seeded points, then
/// two quiet seconds. Returns the stats, the owner-view digest and the
/// executed adaptations as `(mechanism, count)` in letter order.
fn run_balance(seed: u64) -> (SimStats, u64, Vec<(char, usize)>) {
    const NODES: usize = 150;
    const CAPS: [f64; 10] = [1.0, 10.0, 10.0, 100.0, 10.0, 1.0, 10.0, 100.0, 1000.0, 10.0];
    let config = EngineConfig {
        mode: EngineMode::DualPeer,
        ..EngineConfig::default()
    };
    let mut h = SimHarness::new(Space::paper_evaluation(), config, seed);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coord = || Point::new(rng.random_range(0.2..63.8), rng.random_range(0.2..63.8));
    h.bootstrap(coord(), 10.0);
    for i in 1..NODES {
        h.join(coord(), CAPS[i % CAPS.len()]);
        h.run_for(250);
    }
    h.settle();
    let asker = NodeId::new(0);
    for _ in 0..100 {
        let p = coord();
        h.inject(
            asker,
            Input::UserQuery {
                query: LocationQuery::new(Region::new(p.x - 0.5, p.y - 0.5, 1.0, 1.0), asker),
            },
        );
        h.run_for(60);
    }
    h.run_for(2_000);

    let mut executed = std::collections::BTreeMap::new();
    for id in 0..NODES as u64 {
        for e in h.events_of(NodeId::new(id)) {
            if let ClientEvent::AdaptationExecuted { mechanism } = e {
                *executed.entry(*mechanism).or_insert(0) += 1;
            }
        }
    }
    (h.stats(), digest(&h), executed.into_iter().collect())
}

#[test]
fn balance_trajectory_is_pinned() {
    let pins = [
        (
            4002,
            SimStats {
                sent: 150_654,
                delivered: 150_422,
                lost: 0,
                undeliverable: 0,
                timers_fired: 41_772,
                events: 192_344,
            },
            0x94d7_558a_6665_d3a2,
            vec![('e', 3)],
        ),
        (
            1,
            SimStats {
                sent: 157_746,
                delivered: 157_492,
                lost: 0,
                undeliverable: 0,
                timers_fired: 41_772,
                events: 199_414,
            },
            0x8657_40e8_8950_21d9,
            vec![('a', 1)],
        ),
    ];
    let mut letters = Vec::new();
    for (seed, pinned_stats, pinned_digest, pinned_executed) in pins {
        let (stats, digest, executed) = run_balance(seed);
        assert_eq!(stats, pinned_stats, "seed {seed}");
        assert_eq!(digest, pinned_digest, "seed {seed}: owner views moved");
        assert_eq!(executed, pinned_executed, "seed {seed}: adaptations moved");
        letters.extend(executed.into_iter().map(|(m, _)| m));
    }
    // Both engine mechanisms, (a) half-full and (e) full, are exercised.
    assert!(letters.contains(&'a') && letters.contains(&'e'));
}
