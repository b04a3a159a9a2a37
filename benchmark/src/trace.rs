//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Every span is aggregated (count and total time per kind); spans that
//! belong to a sampled operation are also kept whole — `{name, start_ns,
//! end_ns, parent, op}` — and written to `benchmark/out/` when the run
//! ends. The parent of a span is the previous span of the same operation
//! (the hop that caused it); spans of one operation share `op`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// What a span timed. The engine kinds classify one `NodeEngine::handle`
/// call by its input and by whether its effects forward or execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    PublishForward,
    PublishExecute,
    QueryForward,
    QueryExecute,
    QueryFanout,
    QueryReply,
    Subscribe,
    Notify,
    Heartbeat,
    Tick,
    SyncState,
    /// Join and maintenance traffic (set-up only on these workloads).
    EngineOther,
    /// The benchmark drawing the next operation.
    Generate,
    /// `RuntimeHandle::query` → first `QueryResults`.
    RuntimeQuery,
    /// `RuntimeHandle::publish` → `Notified` at the subscriber.
    RuntimeNotify,
    /// `Router::route`.
    Route,
    /// `Topology::split_region`, snapshot publication included.
    Split,
    /// `Topology::merge_regions`, snapshot publication included.
    Merge,
}

/// The engine kinds reported as `core.engine.handle_ns.<name>`.
pub fn engine_kinds() -> impl Iterator<Item = Kind> {
    ALL.into_iter()
        .filter(|k| k.is_engine() && *k != Kind::EngineOther)
}

const KINDS: usize = Kind::Merge as usize + 1;

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::PublishForward => "publish_forward",
            Kind::PublishExecute => "publish_execute",
            Kind::QueryForward => "query_forward",
            Kind::QueryExecute => "query_execute",
            Kind::QueryFanout => "query_fanout",
            Kind::QueryReply => "query_reply",
            Kind::Subscribe => "subscribe",
            Kind::Notify => "notify",
            Kind::Heartbeat => "heartbeat",
            Kind::Tick => "tick",
            Kind::SyncState => "sync_state",
            Kind::EngineOther => "engine_other",
            Kind::Generate => "bench.generate",
            Kind::RuntimeQuery => "transport.runtime.query",
            Kind::RuntimeNotify => "transport.runtime.publish_notify",
            Kind::Route => "core.routing.route",
            Kind::Split => "core.topology.split",
            Kind::Merge => "core.topology.merge",
        }
    }

    fn is_engine(self) -> bool {
        (self as usize) <= Kind::EngineOther as usize
    }
}

/// Identifies one operation: `(issuer, query id)` for a query, `(record
/// id, sequence)` for a publish, `(subscriber, subscription id)` for a
/// subscribe.
pub type OpKey = (u64, u64);

#[derive(Debug, Clone)]
struct Span {
    kind: Kind,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    op: OpKey,
}

/// Whole spans are kept for one operation in this many …
const SAMPLE_ONE_IN: u64 = 16;
/// … and for at most this many spans, so the trace file stays small.
const SPAN_CAP: usize = 100_000;
/// Where calls come a million a second ([`Tracer::wants`]), every call of
/// a sampled operation is timed and one in this many of the others: a
/// clock read costs about 33 ns here, and timing all of them took 16% off
/// `sim_mix`. Every call is still counted.
const TIME_ONE_IN: u64 = 4;

fn sampled(op: OpKey) -> bool {
    (op.0 ^ op.1.wrapping_mul(0x9E37_79B9_7F4A_7C15)).is_multiple_of(SAMPLE_ONE_IN)
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Calls seen, timed or not.
    calls: [u64; KINDS],
    /// Calls timed, and their total.
    timed: [u64; KINDS],
    timed_ns: [u64; KINDS],
    spans: Vec<Span>,
    last_of_op: HashMap<OpKey, u32>,
    tick: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            calls: [0; KINDS],
            timed: [0; KINDS],
            timed_ns: [0; KINDS],
            spans: Vec::new(),
            last_of_op: HashMap::new(),
            tick: 0,
        }
    }

    /// Whether the next call, belonging to `op`, is to be timed; if not,
    /// report it with [`Self::skip`].
    pub fn wants(&mut self, op: Option<OpKey>) -> bool {
        self.tick += 1;
        self.tick.is_multiple_of(TIME_ONE_IN) || op.is_some_and(sampled)
    }

    /// Counts a call that was not timed.
    pub fn skip(&mut self, kind: Kind) {
        self.calls[kind as usize] += 1;
    }

    /// Records one finished span.
    pub fn record(&mut self, kind: Kind, start: Instant, end: Instant, op: Option<OpKey>) {
        let ns = (end - start).as_nanos() as u64;
        self.calls[kind as usize] += 1;
        self.timed[kind as usize] += 1;
        self.timed_ns[kind as usize] += ns;
        let Some(op) = op else { return };
        if self.spans.len() >= SPAN_CAP || !sampled(op) {
            return;
        }
        let index = self.spans.len() as u32;
        let start_ns = (start - self.origin).as_nanos() as u64;
        self.spans.push(Span {
            kind,
            start_ns,
            end_ns: start_ns + ns,
            parent: self.last_of_op.insert(op, index),
            op,
        });
    }

    /// Calls of this kind, timed or not.
    pub fn calls(&self, kind: Kind) -> u64 {
        self.calls[kind as usize]
    }

    /// Mean span length in nanoseconds (0 without samples).
    pub fn mean_ns(&self, kind: Kind) -> f64 {
        match self.timed[kind as usize] {
            0 => 0.0,
            n => self.timed_ns[kind as usize] as f64 / n as f64,
        }
    }

    /// Time spent in calls of this kind: the timed mean over all calls.
    pub fn total_ns(&self, kind: Kind) -> f64 {
        self.mean_ns(kind) * self.calls(kind) as f64
    }

    /// Total time inside `NodeEngine::handle`, every kind.
    pub fn engine_ns(&self) -> f64 {
        ALL.iter()
            .filter(|k| k.is_engine())
            .map(|&k| self.total_ns(k))
            .sum()
    }

    /// Writes the kept spans and the per-kind aggregates as JSON.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"sampled_one_op_in\":{SAMPLE_ONE_IN},\"aggregates\":["
        );
        let mut first = true;
        for (k, &kind) in ALL.iter().enumerate() {
            if self.calls[k] == 0 {
                continue;
            }
            let name = full_name(kind);
            let sep = if first { "" } else { "," };
            first = false;
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{name}\",\"calls\":{},\"timed\":{},\"timed_ns\":{}}}",
                self.calls[k], self.timed[k], self.timed_ns[k]
            );
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":[{},{}]}}",
                full_name(s.kind),
                s.start_ns,
                s.end_ns,
                s.op.0,
                s.op.1
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

const ALL: [Kind; KINDS] = [
    Kind::PublishForward,
    Kind::PublishExecute,
    Kind::QueryForward,
    Kind::QueryExecute,
    Kind::QueryFanout,
    Kind::QueryReply,
    Kind::Subscribe,
    Kind::Notify,
    Kind::Heartbeat,
    Kind::Tick,
    Kind::SyncState,
    Kind::EngineOther,
    Kind::Generate,
    Kind::RuntimeQuery,
    Kind::RuntimeNotify,
    Kind::Route,
    Kind::Split,
    Kind::Merge,
];

/// Span name as written to the trace file: engine kinds are prefixed with
/// the call they time.
fn full_name(kind: Kind) -> String {
    if kind.is_engine() {
        format!("core.engine.handle.{}", kind.name())
    } else {
        kind.name().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn kind_table_is_in_discriminant_order() {
        for (i, k) in ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
    }

    #[test]
    fn aggregates_all_and_chains_sampled_ops() {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_nanos(500);
        // Find one sampled and one unsampled op key.
        let kept = (0..).map(|i| (1u64, i)).find(|&op| sampled(op)).unwrap();
        let dropped = (0..).map(|i| (1u64, i)).find(|&op| !sampled(op)).unwrap();
        t.record(Kind::QueryForward, t0, t1, Some(kept));
        t.record(Kind::QueryForward, t0, t1, Some(dropped));
        t.skip(Kind::QueryForward);
        t.record(Kind::QueryExecute, t0, t1, Some(kept));
        t.record(Kind::Tick, t0, t1, None);
        assert_eq!(t.calls(Kind::QueryForward), 3);
        assert_eq!(t.mean_ns(Kind::QueryForward), 500.0);
        assert_eq!(
            t.total_ns(Kind::QueryForward),
            1_500.0,
            "the untimed call counts at the mean"
        );
        assert_eq!(t.engine_ns(), 2_500.0);
        assert!(
            t.wants(Some(kept)) && (1..TIME_ONE_IN).filter(|_| t.wants(Some(dropped))).count() == 1
        );
        assert_eq!(t.mean_ns(Kind::Route), 0.0);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0), "second hop points at the first");
    }
}
