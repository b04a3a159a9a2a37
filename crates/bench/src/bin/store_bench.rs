//! Machine-readable location-store baseline: load/update throughput,
//! range-query latency percentiles, and subscription fan-out cost for a
//! single sharded-slab `RegionStore`, written to `BENCH_store.json`.
//!
//! Regenerate with exactly one command (from the repo root):
//!
//! ```text
//! cargo run --release -p geogrid-bench --bin store_bench
//! ```
//!
//! Object count comes from `GEOGRID_STORE_OBJECTS` or a numeric CLI
//! argument (default 1,048,576); `GEOGRID_STORE_UPDATES`,
//! `GEOGRID_STORE_QUERIES` and `GEOGRID_STORE_SUBS` override the other
//! phase sizes. A non-numeric argument names the output file.
//!
//! The workload is the paper's moving-objects stream: objects spread
//! over the whole 64×64 service area and drift by small GPS deltas,
//! while *attention* is hot-spot skewed — 80% of re-publishes move one
//! of a small commuter id set, and 80% of query centers and
//! subscription areas target one of 64 fixed hot places in a 2-mile
//! square (the same Weyl hot stream as `routing_bench`). Four timed
//! phases against one store:
//!
//! 1. **load** — publish every object once at its initial position;
//! 2. **update** — re-publish with a small position delta, the GPS hot
//!    path (slab overwrite + incremental grid re-file; the later
//!    deadline files no wheel entry; no per-op allocation);
//! 3. **query** — range queries with hot-spot-biased centers and mixed
//!    extents through the recycled-buffer `query_ids_into` path,
//!    per-query latency recorded for percentiles;
//! 4. **fan-out** — standing small-area subscriptions, then another
//!    update stream measuring notification cost per publish.
//!
//! Every record carries a TTL so the expiry wheel takes real scheduling
//! traffic; the store's amortized-expiry work counter is reported.

use std::time::Instant;

use geogrid_core::service::{LocationQuery, LocationRecord, RegionStore, Subscription};
use geogrid_core::NodeId;
use geogrid_geometry::{Point, Region};

/// Default live objects.
const DEFAULT_OBJECTS: usize = 1_048_576;

/// Default re-publish count (phase 2).
const DEFAULT_UPDATES: usize = 2_000_000;

/// Default range queries (phase 3).
const DEFAULT_QUERIES: usize = 20_000;

/// Default standing subscriptions (phase 4).
const DEFAULT_SUBS: usize = 10_000;

/// Fixed hot places in the hot-spot square.
const HOT_POINTS: u64 = 64;

/// Records outlive the whole run unless overwritten: TTL in ticks,
/// relative to the publish tick (the wheel holds one entry per record).
const TTL_TICKS: u64 = 4 * DEFAULT_UPDATES as u64;

const M1: u64 = 0x9E37_79B9_7F4A_7C15;
const M2: u64 = 0xD1B5_4A32_D192_ED03;
const M3: u64 = 0xA24B_AED4_963E_E407;
const M4: u64 = 0x2545_F491_4F6C_DD1D;

fn unit(i: u64, m: u64) -> f64 {
    (i.wrapping_mul(m) >> 11) as f64 / (1u64 << 53) as f64
}

/// Hot-spot focus stream (paper §4), identical to `routing_bench`: 80%
/// of draws are one of [`HOT_POINTS`] fixed places inside a 2-mile
/// square, the rest uniform over the 64×64 plane. Drives query centers
/// and subscription areas — where attention goes, not where objects are.
fn hotspot_focus(i: u64) -> Point {
    if i.is_multiple_of(5) {
        let u = unit(i, M1);
        let v = unit(i, M2);
        Point::new(u * 64.0, v * 64.0)
    } else {
        let k = i.wrapping_mul(M2) % HOT_POINTS + 1;
        let u = unit(k, M1);
        let v = unit(k, M2);
        Point::new(46.0 + 2.0 * u, 46.0 + 2.0 * v)
    }
}

struct Config {
    objects: usize,
    updates: usize,
    queries: usize,
    subs: usize,
    out: String,
}

fn parse_config() -> Config {
    let env_num = |key: &str, default: usize| {
        std::env::var(key)
            .ok()
            .and_then(|s| s.trim().replace('_', "").parse().ok())
            .unwrap_or(default)
    };
    let mut objects = env_num("GEOGRID_STORE_OBJECTS", DEFAULT_OBJECTS);
    let mut out = "BENCH_store.json".to_string();
    for arg in std::env::args().skip(1) {
        match arg.replace('_', "").parse::<usize>() {
            Ok(n) => objects = n,
            Err(_) => out = arg,
        }
    }
    Config {
        objects,
        updates: env_num("GEOGRID_STORE_UPDATES", DEFAULT_UPDATES),
        queries: env_num("GEOGRID_STORE_QUERIES", DEFAULT_QUERIES),
        subs: env_num("GEOGRID_STORE_SUBS", DEFAULT_SUBS),
        out,
    }
}

fn percentile(sorted_ns: &[u64], pct: usize) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    sorted_ns[(sorted_ns.len() * pct / 100).min(sorted_ns.len() - 1)]
}

/// The moving-objects driver: per-object positions, hot-skewed id draws,
/// small-delta GPS steps.
struct Drivers {
    positions: Vec<Point>,
    /// Size of the "commuter" id set 80% of updates move.
    hot_ids: u64,
}

impl Drivers {
    fn new(objects: usize) -> Self {
        let positions = (0..objects as u64)
            .map(|id| Point::new(64.0 * unit(id + 1, M1), 64.0 * unit(id + 1, M2)))
            .collect();
        Self {
            positions,
            hot_ids: (objects as u64 / 16).max(1),
        }
    }

    /// 80% of updates move a commuter object, 20% any object.
    fn update_id(&self, i: u64) -> u64 {
        if i.is_multiple_of(5) {
            i.wrapping_mul(M4) % self.positions.len() as u64
        } else {
            i.wrapping_mul(M4) % self.hot_ids
        }
    }

    /// Steps object `id` by a small GPS delta (±0.125 per axis, clamped
    /// to the service area) and returns its new position.
    fn step(&mut self, id: u64, i: u64) -> Point {
        let p = &mut self.positions[id as usize];
        p.x = (p.x + 0.25 * (unit(i + 1, M3) - 0.5)).clamp(0.0, 63.999);
        p.y = (p.y + 0.25 * (unit(i + 2, M4) - 0.5)).clamp(0.0, 63.999);
        *p
    }
}

fn record_at(id: u64, pos: Point, now: u64) -> LocationRecord {
    LocationRecord::new(id, "loc", pos, vec![id as u8]).with_expiry(now + TTL_TICKS)
}

fn main() {
    let cfg = parse_config();
    let mut drivers = Drivers::new(cfg.objects);
    let mut store = RegionStore::new();
    store.set_node(1);
    let mut now = 0u64;
    let mut notified = Vec::new();

    // Phase 1: load.
    eprintln!("store_bench: loading {} objects...", cfg.objects);
    let start = Instant::now();
    for id in 0..cfg.objects as u64 {
        now += 1;
        store.publish_into(
            record_at(id, drivers.positions[id as usize], now),
            now,
            &mut notified,
        );
    }
    let load_secs = start.elapsed().as_secs_f64();
    assert_eq!(store.record_count(), cfg.objects, "every object loaded");

    // Phase 2: updates — GPS re-publishes of existing objects.
    eprintln!("store_bench: {} re-publishes...", cfg.updates);
    let start = Instant::now();
    for i in 0..cfg.updates as u64 {
        now += 1;
        let id = drivers.update_id(i);
        let pos = drivers.step(id, i);
        store.publish_into(record_at(id, pos, now), now, &mut notified);
    }
    let update_secs = start.elapsed().as_secs_f64();
    let updates_per_sec = cfg.updates as f64 / update_secs;
    assert_eq!(
        store.record_count(),
        cfg.objects,
        "updates overwrite, never grow"
    );

    // Phase 3: range queries through the recycled-buffer path.
    eprintln!("store_bench: {} range queries...", cfg.queries);
    let issuer = NodeId::new(2);
    let mut ids = Vec::new();
    let mut latencies = Vec::with_capacity(cfg.queries);
    let mut matches_total = 0usize;
    for i in 0..cfg.queries as u64 {
        let c = hotspot_focus(i.wrapping_add(7));
        let extent = 0.25 + 3.75 * unit(i + 1, M3);
        let area = Region::new(
            (c.x - extent / 2.0).clamp(0.0, 63.0),
            (c.y - extent / 2.0).clamp(0.0, 63.0),
            extent.min(64.0),
            extent.min(64.0),
        );
        let query = LocationQuery::new(area, issuer);
        let t = Instant::now();
        store.query_ids_into(&query, now, &mut ids);
        latencies.push(t.elapsed().as_nanos() as u64);
        matches_total += ids.len();
    }
    latencies.sort_unstable();
    let query_p50 = percentile(&latencies, 50);
    let query_p99 = percentile(&latencies, 99);
    let matches_mean = matches_total as f64 / cfg.queries.max(1) as f64;

    // Phase 4: subscription fan-out.
    eprintln!(
        "store_bench: {} subscriptions + fan-out stream...",
        cfg.subs
    );
    for s in 0..cfg.subs as u64 {
        now += 1;
        let c = hotspot_focus(s.wrapping_add(3));
        let area = Region::new(
            (c.x - 0.25).clamp(0.0, 63.0),
            (c.y - 0.25).clamp(0.0, 63.0),
            0.5,
            0.5,
        );
        let sub = Subscription::new(s, area, NodeId::new(100 + s % 256), now + TTL_TICKS);
        store.subscribe(sub, now);
    }
    let fanout_publishes = (cfg.updates / 4).max(1);
    let mut notifications = 0usize;
    let start = Instant::now();
    for i in 0..fanout_publishes as u64 {
        now += 1;
        let id = drivers.update_id(i);
        let pos = drivers.step(id, i.wrapping_add(11));
        store.publish_into(record_at(id, pos, now), now, &mut notified);
        notifications += notified.len();
    }
    let fanout_secs = start.elapsed().as_secs_f64();
    let fanout_ns = fanout_secs * 1e9 / fanout_publishes as f64;

    println!(
        "{:>10} {:>12} {:>13} {:>12} {:>12} {:>12} {:>14} {:>12}",
        "objects",
        "load_per_s",
        "updates_per_s",
        "query_p50ns",
        "query_p99ns",
        "matches",
        "fanout_ns/pub",
        "notifs"
    );
    println!(
        "{:>10} {:>12.0} {:>13.0} {:>12} {:>12} {:>12.1} {:>14.0} {:>12}",
        cfg.objects,
        cfg.objects as f64 / load_secs,
        updates_per_sec,
        query_p50,
        query_p99,
        matches_mean,
        fanout_ns,
        notifications
    );
    println!(
        "expiry wheel work counter: {} (over {} publishes and subscriptions)",
        store.expiry_work(),
        cfg.objects + cfg.updates + cfg.subs + fanout_publishes
    );

    let json = format!(
        "{{\n  \"bench\": \"store\",\n  \"command\": \"cargo run --release -p geogrid-bench --bin store_bench\",\n  \"workload\": \"moving-objects stream over the 64x64 space: objects drift by small GPS deltas; 80% of updates move a commuter id set (1/16 of objects), 80% of query centers and subscription areas target one of 64 fixed hot places in a 2-mile square, extents 0.25-4.0; every record carries a TTL so the expiry wheel takes real traffic\",\n  \"objects\": {},\n  \"load_per_sec\": {:.0},\n  \"updates\": {},\n  \"updates_per_sec\": {:.0},\n  \"update_ns_mean\": {:.1},\n  \"queries\": {},\n  \"query_ns_p50\": {},\n  \"query_ns_p99\": {},\n  \"query_matches_mean\": {:.1},\n  \"subscriptions\": {},\n  \"fanout_publishes\": {},\n  \"fanout_ns_per_publish\": {:.1},\n  \"notifications_total\": {},\n  \"expiry_work\": {}\n}}\n",
        cfg.objects,
        cfg.objects as f64 / load_secs,
        cfg.updates,
        updates_per_sec,
        update_secs * 1e9 / cfg.updates.max(1) as f64,
        cfg.queries,
        query_p50,
        query_p99,
        matches_mean,
        cfg.subs,
        fanout_publishes,
        fanout_ns,
        notifications,
        store.expiry_work()
    );
    std::fs::write(&cfg.out, json).expect("write BENCH_store.json");
    println!("-> wrote {}", cfg.out);
}
