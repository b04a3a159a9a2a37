//! The benchmark's contract with `BENCHMARK.json`: workload names and the
//! metric names a run prints, in the order it prints them.

use crate::trace::engine_kinds;

pub const WORKLOADS: [&str; 4] = ["tcp_mix", "sim_mix", "sim_dual", "model_route"];

/// End-to-end metrics, printed by every untraced run: name, unit, and
/// the share of the baseline median by which it may worsen.
pub const END_TO_END: [(&str, &str, f64); 6] = [
    ("setup_s", "s", 0.25),
    ("ops_per_s", "ops/s", 0.25),
    ("op_p50_us", "us", 0.25),
    ("op_p95_us", "us", 0.25),
    ("hops_per_op", "count", 0.02),
    ("peak_rss_mb", "MB", 0.25),
];

/// The five representative envelopes `transport.wire.*` is measured on.
pub const WIRE_SHAPES: [&str; 5] = [
    "publish",
    "query",
    "query_reply32",
    "heartbeat",
    "sync_state1k",
];

/// Per-layer metrics, printed by every traced run: name and unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    for (family, unit) in [("encode_ns", "ns"), ("decode_ns", "ns"), ("bytes", "count")] {
        for shape in WIRE_SHAPES {
            m.push((format!("transport.wire.{family}.{shape}"), unit));
        }
    }
    let fixed: [(&str, &str); 46] = [
        ("transport.frame.roundtrip_us.reused", "us"),
        ("transport.frame.connect_send_us", "us"),
        ("transport.runtime.local_query_us", "us"),
        ("transport.runtime.one_hop_query_us", "us"),
        ("transport.runtime.one_hop_notify_us", "us"),
        ("transport.runtime.join_ms", "ms"),
        ("transport.runtime.threads", "count"),
        ("transport.runtime.idle_cpu_share", "ratio"),
        ("core.engine.calls_per_op", "count"),
        ("core.engine.effects_per_call", "count"),
        ("core.engine.busy_share", "ratio"),
        ("core.engine.sync_per_publish", "count"),
        ("simnet.events_per_op", "count"),
        ("simnet.timers_per_op", "count"),
        ("simnet.msgs_per_op", "count"),
        ("simnet.self_ns_per_event", "ns"),
        ("core.service.store.publish_ns.at1k", "ns"),
        ("core.service.store.publish_ns.at64k", "ns"),
        ("core.service.store.query_ns_p50.at1k", "ns"),
        ("core.service.store.query_ns_p50.at64k", "ns"),
        ("core.service.store.query_matches.at64k", "count"),
        ("core.service.store.clone_ns.empty", "ns"),
        ("core.service.store.clone_ns.at1k", "ns"),
        ("core.service.store.clone_ns.at64k", "ns"),
        ("core.service.store.fanout_ns_per_publish", "ns"),
        ("core.service.store.split_for_ns.at64k", "ns"),
        ("core.service.store.absorb_ns.at64k", "ns"),
        ("core.service.store.expire_ns_per_due", "ns"),
        ("core.service.store.expiry_work_per_due", "count"),
        ("core.routing.route_ns.warm", "ns"),
        ("core.routing.route_ns.after_flush", "ns"),
        ("core.routing.uncached_ns", "ns"),
        ("core.routing.hit_rate", "ratio"),
        ("core.routing.express_prefix", "count"),
        ("core.routing.cached_entries", "count"),
        ("core.topology.build_s", "s"),
        ("core.topology.split_ms", "ms"),
        ("core.topology.merge_ms", "ms"),
        ("core.topology.locate_ns", "ns"),
        ("core.snapshot.load_ns", "ns"),
        ("core.snapshot.reader_epochs_seen", "count"),
        ("geometry.distance_to_point_ns", "ns"),
        ("geometry.intersects_ns", "ns"),
        ("bench.trace_overhead_share", "ratio"),
        ("bench.generator_ns_per_op", "ns"),
        ("bench.unattributed_share", "ratio"),
    ];
    for kind in engine_kinds() {
        m.push((format!("core.engine.handle_ns.{}", kind.name()), "ns"));
    }
    m.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The `"name"` strings of the array stored under `key`.
    fn names_under(key: &str) -> Vec<String> {
        let at = BENCHMARK_JSON
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let rest = &BENCHMARK_JSON[at..];
        let array = &rest[rest.find('[').unwrap()..];
        let mut depth = 0usize;
        let mut end = 0;
        for (i, c) in array.char_indices() {
            match c {
                '[' => depth += 1,
                ']' => {
                    depth -= 1;
                    if depth == 0 {
                        end = i;
                        break;
                    }
                }
                _ => {}
            }
        }
        array[..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| {
                let s = &s[s.find('"').unwrap() + 1..];
                s[..s.find('"').unwrap()].to_string()
            })
            .collect()
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_names() {
        let ours: Vec<String> = WORKLOADS.iter().map(|s| s.to_string()).collect();
        assert_eq!(names_under("workloads"), ours);
        let ours: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(names_under("end_to_end"), ours);
        let ours: Vec<String> = per_layer().into_iter().map(|m| m.0).collect();
        assert_eq!(names_under("per_layer"), ours);
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut all: Vec<String> = WORKLOADS.iter().map(|s| s.to_string()).collect();
        all.extend(END_TO_END.iter().map(|m| m.0.to_string()));
        all.extend(per_layer().into_iter().map(|m| m.0));
        for name in &all {
            assert!(well_formed(name), "{name}");
        }
        let count = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), count, "a name is used twice");
        assert!(per_layer().len() <= 128);
    }
}
