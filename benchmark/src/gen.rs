//! Seeded input generation: the moving-objects stream of `store_bench`
//! (GPS re-publishes with a hot commuter set, hot-spot range queries,
//! short-lived subscriptions) and the oracle it keeps while generating.
//!
//! The program under test receives only what this module generates; the
//! same seed gives the same stream.

use std::collections::HashMap;

use geogrid_core::service::LocationRecord;
use geogrid_geometry::{Point, Region};

/// Side of the square service area (the paper's 64 × 64 miles).
pub const SPACE_SIDE: f64 = 64.0;

/// South-west corner and side of the hot square attention concentrates on.
pub const HOT_ORIGIN: f64 = 46.0;
/// Side of the hot square.
pub const HOT_SIDE: f64 = 2.0;
/// Fixed hot places inside the hot square.
pub const HOT_POINTS: usize = 64;

/// Seed of every overlay's and topology's *shape*: node coordinates,
/// capacities and join order. The shape is part of a workload's
/// definition, like its node count, and is the same on every run;
/// `--seed` draws the objects and the operations. (Throughput follows the
/// shape — a dual-peer overlay is twice as fast on one layout as on
/// another, because the largest region sets the replication cost — and
/// the dual-peer join protocol leaves some layouts with neighbour tables
/// that route in circles, so run-to-run comparison needs it fixed.)
pub const LAYOUT_SEED: u64 = 2007;

/// Records outlive every run (one virtual hour, in engine milliseconds):
/// the expiry wheel schedules each one but none fires mid-measurement.
pub const RECORD_TTL_MS: u64 = 3_600_000;

/// SplitMix64: small, seedable, and good enough to draw workloads from.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform point over the whole service area.
    pub fn point(&mut self) -> Point {
        Point::new(self.unit() * SPACE_SIDE, self.unit() * SPACE_SIDE)
    }

    /// True with probability `pct`%.
    pub fn percent(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// The benchmark's own id → last-position map: what every object last
/// published, kept while generating and used as the oracle afterwards.
#[derive(Debug, Clone)]
pub struct Objects {
    pos: Vec<Point>,
    seq: Vec<u32>,
}

/// One record as a query returned it: `(id, sequence, position)`.
pub type Returned = (u64, u32, Point);

impl Objects {
    /// `n` objects spread uniformly, none published yet (sequence 0 is
    /// the preload).
    pub fn uniform(rng: &mut SplitMix64, n: usize) -> Self {
        Self {
            pos: (0..n).map(|_| rng.point()).collect(),
            seq: vec![0; n],
        }
    }

    pub fn len(&self) -> usize {
        self.pos.len()
    }

    pub fn position(&self, id: u64) -> Point {
        self.pos[id as usize]
    }

    /// Moves `id` to `pos` and returns the record to publish for it.
    pub fn publish(&mut self, id: u64, pos: Point, now_ms: u64) -> LocationRecord {
        self.pos[id as usize] = pos;
        self.seq[id as usize] += 1;
        self.record(id, now_ms)
    }

    /// The record carrying `id`'s current position and sequence.
    pub fn record(&self, id: u64, now_ms: u64) -> LocationRecord {
        let seq = self.seq[id as usize];
        LocationRecord::new(id, "loc", self.pos[id as usize], seq.to_le_bytes().to_vec())
            .with_expiry(now_ms + RECORD_TTL_MS)
    }

    /// Checks one range query's union of returned records against the map.
    ///
    /// Complete: every object whose last position lies in `area` was
    /// returned *with its latest sequence*. Sound: every returned record
    /// lies in `area` and carries a sequence this object really
    /// published. An older copy of an object may also be returned — a
    /// region keeps the last record it was sent until its TTL, so an
    /// object that drove into the next region leaves one behind — and is
    /// accepted as long as it is sound.
    pub fn check(&self, area: &Region, returned: &[Returned]) -> Result<(), String> {
        for &(id, seq, pos) in returned {
            let Some(&last) = self.seq.get(id as usize) else {
                return Err(format!("unknown object {id} returned"));
            };
            if seq > last {
                return Err(format!("object {id} returned with sequence {seq} > {last}"));
            }
            if !area.contains_closed(pos) {
                return Err(format!("object {id} returned from outside the area"));
            }
            if seq == last && pos != self.pos[id as usize] {
                return Err(format!(
                    "object {id} returned at a position never published"
                ));
            }
        }
        for (id, pos) in self.pos.iter().enumerate() {
            if area.contains_closed(*pos) {
                let latest = (id as u64, self.seq[id]);
                if !returned.iter().any(|&(i, s, _)| (i, s) == latest) {
                    return Err(format!(
                        "object {id} (sequence {}) is inside the area but was not returned",
                        self.seq[id]
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Probe range queries issued after the measured phase.
pub const PROBES: usize = 200;

/// The probe queries of one run — who asked what — and every partial
/// result gathered for them, keyed by `(issuer, query id)`.
#[derive(Debug, Default)]
pub struct Probes {
    asked: HashMap<(u64, u64), Region>,
    results: HashMap<(u64, u64), Vec<Returned>>,
}

impl Probes {
    pub fn ask(&mut self, query: (u64, u64), area: Region) {
        self.asked.insert(query, area);
    }

    /// Adds one `QueryResults` event's records to its query's union.
    pub fn gather(&mut self, query: (u64, u64), records: &[LocationRecord]) {
        self.results
            .entry(query)
            .or_default()
            .extend(records.iter().map(returned));
    }

    /// Checks each probe's union against the oracle: how many failed,
    /// and the first failure's description.
    pub fn verdict(&self, objects: &Objects) -> (u64, Option<String>) {
        let mut failures = 0;
        let mut first = None;
        for (query, area) in &self.asked {
            let verdict = match self.results.get(query) {
                None => Err("no result arrived".to_string()),
                Some(records) => objects.check(area, records),
            };
            if let Err(why) = verdict {
                failures += 1;
                first.get_or_insert(format!("probe query {query:?} over {area}: {why}"));
            }
        }
        (failures, first)
    }
}

/// Decodes what [`Objects::record`] encoded.
pub fn returned(record: &LocationRecord) -> Returned {
    let seq = record
        .payload()
        .try_into()
        .map(u32::from_le_bytes)
        .unwrap_or(u32::MAX);
    (record.id(), seq, record.position())
}

/// Shares of the three operations and the query extent range.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub publish_pct: u64,
    pub query_pct: u64,
    /// Range-query side length is uniform in this interval.
    pub extent: (f64, f64),
}

/// One generated operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// GPS re-publish of object `id` at `pos`.
    Publish { id: u64, pos: Point },
    /// Range query over `area`.
    Query { area: Region },
    /// Short-lived subscription over `area`.
    Subscribe { area: Region },
}

/// Subscription areas are small squares around a hot-spot focus.
const SUB_SIDE: f64 = 0.5;

/// Half the largest GPS step per axis.
const GPS_STEP: f64 = 0.125;

/// A publish of an object still in flight must not be overtaken by the
/// next one (the owner keeps the last *arrival*): re-publishes of one
/// object are at least this far apart, longer than any route takes.
const MIN_REPUBLISH_GAP_MS: u64 = 1_000;

/// The moving-objects stream.
#[derive(Debug, Clone)]
pub struct Generator {
    rng: SplitMix64,
    pub objects: Objects,
    hot: Vec<Point>,
    /// Size of the commuter id set 80% of re-publishes move.
    commuters: u64,
    /// Earliest virtual time each object may publish again.
    next_publish_ms: Vec<u64>,
    mix: Mix,
}

/// A square of side `extent` centred on `c`, kept inside the space.
pub fn square_around(c: Point, extent: f64) -> Region {
    let lo = |v: f64| (v - extent / 2.0).clamp(0.0, SPACE_SIDE - extent);
    Region::new(lo(c.x), lo(c.y), extent, extent)
}

impl Generator {
    pub fn new(seed: u64, objects: usize, mix: Mix) -> Self {
        let mut rng = SplitMix64::new(seed);
        let objects_map = Objects::uniform(&mut rng, objects);
        let hot = (0..HOT_POINTS)
            .map(|_| {
                Point::new(
                    HOT_ORIGIN + HOT_SIDE * rng.unit(),
                    HOT_ORIGIN + HOT_SIDE * rng.unit(),
                )
            })
            .collect();
        Self {
            rng,
            objects: objects_map,
            hot,
            commuters: (objects as u64 / 16).max(1),
            next_publish_ms: vec![0; objects],
            mix,
        }
    }

    pub fn rng(&mut self) -> &mut SplitMix64 {
        &mut self.rng
    }

    /// Where attention goes: 80% one of the fixed hot places, 20% uniform.
    pub fn focus(&mut self) -> Point {
        if self.rng.percent(80) {
            self.hot[self.rng.below(HOT_POINTS as u64) as usize]
        } else {
            self.rng.point()
        }
    }

    /// A hot-spot range query with an extent drawn from the mix.
    pub fn query_area(&mut self) -> Region {
        let c = self.focus();
        let (lo, hi) = self.mix.extent;
        square_around(c, lo + (hi - lo) * self.rng.unit())
    }

    /// The `i`-th probe: hot-spot ranges from the mix alternate with
    /// 0.05-mile squares around objects drawn at random.
    pub fn probe_area(&mut self, i: usize) -> Region {
        if i.is_multiple_of(2) {
            self.query_area()
        } else {
            let id = self.rng.below(self.objects.len() as u64);
            square_around(self.objects.position(id), 0.05)
        }
    }

    /// The next re-publish: 80% move a commuter, 20% any object; the
    /// object takes one small GPS step. An object published less than
    /// [`MIN_REPUBLISH_GAP_MS`] ago passes its turn to the next id.
    ///
    /// # Panics
    ///
    /// If every object was published within the gap: the workload's rate
    /// is too high for its object count.
    pub fn publish(&mut self, now_ms: u64) -> (u64, Point) {
        let n = self.objects.len() as u64;
        let pool = if self.rng.percent(80) {
            self.commuters
        } else {
            n
        };
        let first = self.rng.below(pool);
        let id = (0..n)
            .map(|k| (first + k) % n)
            .find(|&id| now_ms >= self.next_publish_ms[id as usize])
            .expect("invariant: a workload has more objects than it re-publishes in one gap");
        self.next_publish_ms[id as usize] = now_ms + MIN_REPUBLISH_GAP_MS;
        let space = Region::new(0.0, 0.0, SPACE_SIDE, SPACE_SIDE);
        (id, self.gps_step(self.objects.position(id), &space))
    }

    /// One small GPS step from `p`, kept strictly inside `bounds`.
    pub fn gps_step(&mut self, p: Point, bounds: &Region) -> Point {
        let mut axis = |v: f64, lo: f64, hi: f64| {
            (v + 2.0 * GPS_STEP * (self.rng.unit() - 0.5)).clamp(lo + 1e-3, hi - 1e-3)
        };
        Point::new(
            axis(p.x, bounds.x(), bounds.east()),
            axis(p.y, bounds.y(), bounds.north()),
        )
    }

    /// The `i`-th fixed hot place.
    pub fn hot_place(&self, i: u64) -> Point {
        self.hot[i as usize % HOT_POINTS]
    }

    /// The next operation of the mix at virtual time `now_ms`.
    pub fn next_op(&mut self, now_ms: u64) -> Op {
        let draw = self.rng.below(100);
        if draw < self.mix.publish_pct {
            let (id, pos) = self.publish(now_ms);
            Op::Publish { id, pos }
        } else if draw < self.mix.publish_pct + self.mix.query_pct {
            Op::Query {
                area: self.query_area(),
            }
        } else {
            Op::Subscribe {
                area: square_around(self.focus(), SUB_SIDE),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        publish_pct: 70,
        query_pct: 25,
        extent: (0.25, 2.0),
    };

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let stream = |seed| {
            let mut g = Generator::new(seed, 1_000, MIX);
            (0..500).map(|i| g.next_op(i * 10)).collect::<Vec<_>>()
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }

    #[test]
    fn mix_shares_and_bounds_hold() {
        let mut g = Generator::new(3, 1_000, MIX);
        let (mut p, mut q, mut s) = (0, 0, 0);
        for i in 0..20_000u64 {
            match g.next_op(i) {
                Op::Publish { pos, .. } => {
                    assert!(
                        (0.0..SPACE_SIDE).contains(&pos.x) && (0.0..SPACE_SIDE).contains(&pos.y)
                    );
                    p += 1;
                }
                Op::Query { area } => {
                    assert!(area.x() >= 0.0 && area.east() <= SPACE_SIDE);
                    assert!((0.25..=2.0).contains(&area.width()));
                    q += 1;
                }
                Op::Subscribe { .. } => s += 1,
            }
        }
        assert!((13_500..14_500).contains(&p), "publishes {p}");
        assert!((4_600..5_400).contains(&q), "queries {q}");
        assert!((800..1_200).contains(&s), "subscribes {s}");
    }

    #[test]
    fn republishes_of_one_object_keep_their_gap() {
        let mut g = Generator::new(5, 1_024, MIX);
        let mut last = vec![None::<u64>; 1_024];
        for now in (1..4_000u64).step_by(7) {
            let (id, _) = g.publish(now);
            if let Some(prev) = last[id as usize] {
                assert!(
                    now >= prev + MIN_REPUBLISH_GAP_MS,
                    "object {id}: {prev} then {now}"
                );
            }
            last[id as usize] = Some(now);
        }
    }

    #[test]
    fn oracle_accepts_exact_and_stale_but_not_missing_or_foreign() {
        let mut rng = SplitMix64::new(1);
        let mut objects = Objects::uniform(&mut rng, 3);
        let inside = Point::new(10.0, 10.0);
        let outside = Point::new(30.0, 30.0);
        objects.publish(0, inside, 0);
        objects.publish(1, inside, 0);
        objects.publish(1, outside, 0); // object 1 drove away: (1, seq 1) is now stale
        objects.publish(2, outside, 0);
        let area = Region::new(9.0, 9.0, 2.0, 2.0);

        assert!(objects.check(&area, &[(0, 1, inside)]).is_ok());
        assert!(objects
            .check(&area, &[(0, 1, inside), (1, 1, inside)])
            .is_ok());
        assert!(objects.check(&area, &[]).is_err(), "object 0 is missing");
        assert!(
            objects.check(&area, &[(0, 0, inside)]).is_err(),
            "only an old copy of 0"
        );
        assert!(objects
            .check(&area, &[(0, 1, inside), (2, 1, outside)])
            .is_err());
        assert!(objects
            .check(&area, &[(0, 1, inside), (1, 9, inside)])
            .is_err());
        assert!(objects
            .check(&area, &[(0, 1, inside), (7, 1, inside)])
            .is_err());
    }

    #[test]
    fn record_round_trips_through_returned() {
        let mut rng = SplitMix64::new(1);
        let mut objects = Objects::uniform(&mut rng, 2);
        let rec = objects.publish(1, Point::new(4.0, 5.0), 100);
        assert_eq!(returned(&rec), (1, 1, Point::new(4.0, 5.0)));
        assert_eq!(rec.expires_at(), Some(100 + RECORD_TTL_MS));
    }
}
