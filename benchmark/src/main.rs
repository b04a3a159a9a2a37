//! The GeoGrid repo benchmark. See `benchmark/README.md`.
//!
//! One process runs one workload once (`--workload`), so that peak memory
//! is the workload's own; `--all` and `--repeat` re-run this executable
//! per workload and summarise.

#![forbid(unsafe_code)]

mod gen;
mod host;
mod model;
mod probes;
mod simload;
mod spec;
mod stats;
mod tcpload;
mod trace;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::Duration;

use trace::Tracer;

const USAGE: &str =
    "usage: geogrid-benchmark (--workload <name> | --all) [--seed N] [--seconds S] \
[--trace [0|1]] [--repeat N] [--smoke]
  workloads: tcp_mix sim_mix sim_dual model_route
  --seconds  measured wall-clock phase per run (default 30; 3 with --smoke)
  --trace    record spans around every call into a layer and print the per-layer metrics
  --repeat   run each workload N times with seeds seed..seed+N-1; print min/median/max and spread
  --smoke    reduced sizes and 3 s phases, for a quick check of all four";

/// How one run of one workload is to be made.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// How many times an untraced run sets up; `setup_s` is their median.
    pub setups: usize,
}

impl RunArgs {
    /// The discarded warm-up before the measured phase.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64(if self.smoke { 0.5 } else { 2.0 })
    }

    pub fn measure(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What one run of one workload found.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    /// Operations with no completion or a wrong one.
    pub failed: u64,
    /// Wall seconds of each set-up this run made.
    pub setup_times: Vec<f64>,
    e2e: Vec<(&'static str, f64)>,
    samples: Vec<(&'static str, usize)>,
    /// Context printed with the result: sizes, settings, extra figures.
    notes: Vec<(String, String)>,
    /// `core.engine.*` / `simnet.*` when the workload itself drives engines.
    pub engine_layer: Option<Vec<(String, f64)>>,
    /// Traced runs: 1 − traced ÷ untraced completion rate.
    pub trace_overhead_share: f64,
    /// Traced runs: time the benchmark spent drawing each operation.
    pub generator_ns_per_op: f64,
    /// Traced `tcp_mix` runs: what the stacked estimate is compared with.
    pub query_path: Option<tcpload::QueryPath>,
    /// Traced `model_route` runs: share of the reader's time outside
    /// `Router::route`.
    pub unattributed_share: f64,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            attempted: 0,
            failed: 0,
            setup_times: Vec::new(),
            e2e: Vec::new(),
            samples: Vec::new(),
            notes: Vec::new(),
            engine_layer: None,
            trace_overhead_share: 0.0,
            generator_ns_per_op: 0.0,
            query_path: None,
            unattributed_share: 0.0,
            tracer: None,
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.push((name, value));
    }

    /// The three figures every workload takes from its third-best window.
    pub fn window_summary(&mut self, s: stats::WindowSummary) {
        self.e2e("ops_per_s", s.rate);
        self.e2e("op_p50_us", s.p50);
        self.e2e("op_p95_us", s.tail);
        self.sample_count("op_p50_us", s.samples);
    }

    pub fn sample_count(&mut self, name: &'static str, samples: usize) {
        self.samples.push((name, samples));
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}

fn parse_args() -> Result<(RunArgs, bool, usize), String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        smoke: false,
        setups: 3,
    };
    let (mut all, mut repeat) = (false, 1usize);
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => run.workload = value("a name")?,
            "--seed" => {
                run.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                run.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--repeat" => {
                repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
            }
            "--trace" => {
                run.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            "--all" => all = true,
            "--smoke" => run.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if all != run.workload.is_empty() {
        return Err("give exactly one of --workload and --all".to_string());
    }
    if !all && !spec::WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!("unknown workload {}", run.workload));
    }
    if run.seconds == 0.0 {
        run.seconds = if run.smoke { 3.0 } else { 30.0 };
    }
    if !(run.seconds >= 1.0 && run.seconds <= 600.0) || repeat == 0 {
        return Err("--seconds must be 1..600 and --repeat at least 1".to_string());
    }
    if run.smoke || run.trace {
        run.setups = 1;
    }
    Ok((run, all, repeat))
}

/// The value listed under `name`, if any.
pub fn value_of<N: AsRef<str>>(list: &[(N, f64)], name: &str) -> Option<f64> {
    list.iter()
        .find(|(n, _)| n.as_ref() == name)
        .map(|(_, v)| *v)
}

/// A JSON number with all its digits; non-finite values (no samples)
/// read 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn provenance(args: &RunArgs) -> Vec<(&'static str, String)> {
    vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("smoke", args.smoke.to_string()),
        (
            "command_line",
            std::env::args().collect::<Vec<_>>().join(" "),
        ),
        ("host_cores", host::host_cores().to_string()),
        ("runtime_kind", host::runtime_kind()),
        (
            "network",
            "loopback and simulated links only; no real link".to_string(),
        ),
        ("rustc", host::rustc_version()),
        ("git_commit", host::git_commit()),
        (
            "engine_settings",
            "balance_enabled=false heartbeat_interval=100ms record_ttl=1h(virtual)".to_string(),
        ),
    ]
}

/// Runs one workload in this process and prints its report; the last
/// line of standard output is the result object.
fn run_one(args: &RunArgs) -> Result<(), String> {
    for (key, value) in provenance(args) {
        println!("# {key}: {value}");
    }
    let mut outcome = match args.workload.as_str() {
        "tcp_mix" => tcpload::run(args)?,
        "sim_mix" | "sim_dual" => {
            let spec = if args.workload == "sim_mix" {
                simload::SIM_MIX
            } else {
                simload::SIM_DUAL
            };
            simload::run(if args.smoke { spec.smoke() } else { spec }, args)?
        }
        "model_route" => model::run(args)?,
        other => unreachable!("parse_args admitted {other}"),
    };
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let layers = probes::per_layer(args, &mut outcome)?;
        for (name, unit) in spec::per_layer() {
            let value = value_of(&layers, &name)
                .ok_or(format!("per-layer metric {name} was not measured"))?;
            metrics.push((name, value, unit));
        }
        if let Some(tracer) = &outcome.tracer {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("trace-{}.json", outcome.workload));
            tracer
                .write_json(&path, outcome.workload)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("# trace: {}", path.display());
        }
    } else {
        outcome.e2e("setup_s", stats::median(&outcome.setup_times));
        outcome.sample_count("setup_s", outcome.setup_times.len());
        outcome.e2e("peak_rss_mb", host::peak_rss_mb());
        for (name, unit, _) in spec::END_TO_END {
            let value = value_of(&outcome.e2e, name)
                .ok_or(format!("end-to-end metric {name} was not measured"))?;
            metrics.push((name.to_string(), value, unit));
        }
    }

    for (key, value) in &outcome.notes {
        println!("# {key}: {value}");
    }
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "# attempted: {}  failed: {}  failed_share: {failed_share}",
        outcome.attempted, outcome.failed
    );
    let mut object = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let samples = outcome
            .samples
            .iter()
            .find(|(n, _)| n == name)
            .map_or(String::new(), |(_, c)| format!("  ({c} samples)"));
        println!("{name:<46} {:>16} {unit}{samples}", number(*value));
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            object,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(*value)
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{object}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    Ok(())
}

/// One child run's parsed result line.
struct ChildResult {
    failed: u64,
    attempted: u64,
    metrics: Vec<(String, f64)>,
}

/// Pulls `"name": {"value": v` pairs out of the result line this program
/// printed.
fn parse_result(line: &str) -> Option<ChildResult> {
    let field = |key: &str| -> Option<u64> {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        rest[..rest.find([',', '}'])?].trim().parse().ok()
    };
    // Each metric reads `"name": {"value": v, "unit": "u"}`.
    let marker = "\": {\"value\": ";
    let mut metrics = Vec::new();
    let mut rest = &line[line.find("\"metrics\": {")?..];
    while let Some(at) = rest.find(marker) {
        let name = &rest[rest[..at].rfind('"')? + 1..at];
        let after = &rest[at + marker.len()..];
        metrics.push((name.to_string(), after[..after.find(',')?].parse().ok()?));
        rest = after;
    }
    Some(ChildResult {
        failed: field("failed")?,
        attempted: field("attempted")?,
        metrics,
    })
}

/// Runs `--workload` in a child process, echoing its report.
fn run_child(args: &RunArgs) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("spawning {}: {e}", args.workload))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("{} exited with {}", args.workload, output.status));
    }
    stdout
        .lines()
        .last()
        .and_then(parse_result)
        .ok_or(format!("{} printed no result line", args.workload))
}

/// `--all` / `--repeat`: every workload, `repeat` seeds each, untraced and
/// (with `--trace`) traced; then min/median/max and spread per metric.
fn run_many(base: &RunArgs, all: bool, repeat: usize) -> Result<(), String> {
    let workloads: Vec<&str> = if all {
        spec::WORKLOADS.to_vec()
    } else {
        vec![base.workload.as_str()]
    };
    let mut failures = 0;
    let mut summary = String::new();
    for workload in workloads {
        for trace in [false, true] {
            if trace && !base.trace {
                continue;
            }
            let mut runs = Vec::new();
            for i in 0..repeat {
                let args = RunArgs {
                    workload: workload.to_string(),
                    seed: base.seed + i as u64,
                    trace,
                    ..base.clone()
                };
                println!(
                    "\n== {workload} seed={} trace={} ==",
                    args.seed,
                    u8::from(trace)
                );
                let result = run_child(&args)?;
                failures += result.failed;
                runs.push(result);
            }
            if repeat < 2 {
                continue;
            }
            let _ = writeln!(
                summary,
                "\n== {workload} trace={}: {repeat} runs, seeds {}..{} ==\n{:<46} {:>14} {:>14} {:>14} {:>8} {:>6}",
                u8::from(trace),
                base.seed,
                base.seed + repeat as u64 - 1,
                "metric",
                "min",
                "median",
                "max",
                "spread",
                "bound"
            );
            for (m, (name, _)) in runs[0].metrics.iter().enumerate() {
                let values: Vec<f64> = runs.iter().map(|r| r.metrics[m].1).collect();
                let mut sorted = values.clone();
                stats::sort(&mut sorted);
                let bound = spec::END_TO_END
                    .iter()
                    .find(|e| e.0 == name)
                    .map_or(String::new(), |e| format!("{:.2}", e.2));
                let _ = writeln!(
                    summary,
                    "{name:<46} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {bound:>6}",
                    sorted[0],
                    stats::median(&values),
                    sorted[sorted.len() - 1],
                    stats::spread(&values),
                );
            }
            let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
            let failed: u64 = runs.iter().map(|r| r.failed).sum();
            let _ = writeln!(summary, "failed_share {}", failed as f64 / attempted as f64);
        }
    }
    print!("{summary}");
    if failures > 0 {
        return Err(format!("{failures} operations failed"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let (args, all, repeat) = match parse_args() {
        Ok(parsed) => parsed,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if all || repeat > 1 {
        run_many(&args, all, repeat)
    } else {
        run_one(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("geogrid-benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = "{\"correct\": true, \"attempted\": 1200, \"failed\": 3, \"metrics\": {\
\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
\"ops_per_s\": {\"value\": 40123.5, \"unit\": \"ops/s\"}}}";
        let parsed = parse_result(line).expect("parses");
        assert_eq!((parsed.attempted, parsed.failed), (1200, 3));
        assert_eq!(
            parsed.metrics,
            vec![
                ("setup_s".to_string(), 0.8127),
                ("ops_per_s".to_string(), 40123.5)
            ]
        );
    }

    #[test]
    fn numbers_keep_their_digits_and_never_read_nan() {
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(f64::NAN), "0");
    }
}
