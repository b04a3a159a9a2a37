//! Host facts every result depends on, and the process counters read from
//! `/proc/self`.

use std::process::Command;

/// The lock file the benchmark was built with: names the async runtime.
const LOCK: &str = include_str!("../Cargo.lock");

/// Version of the `tokio` package in `benchmark/Cargo.lock`.
pub fn tokio_version() -> &'static str {
    let mut lines = LOCK.lines();
    while let Some(line) = lines.next() {
        if line.trim() == "name = \"tokio\"" {
            if let Some(v) = lines
                .next()
                .and_then(|l| l.trim().strip_prefix("version = "))
            {
                return v.trim_matches('"');
            }
        }
    }
    "unknown"
}

/// `1.99.x` is the vendored stand-in; anything else is the real crate.
pub fn runtime_kind() -> String {
    let v = tokio_version();
    if v.starts_with("1.99.") {
        format!("vendored tokio shim {v}: one thread per task, 1 ms re-poll")
    } else {
        format!("tokio {v}")
    }
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc_version() -> String {
    first_line("rustc", &["--version"])
}

/// The checked-out commit, or `unknown` outside a git work tree.
pub fn git_commit() -> String {
    first_line("git", &["rev-parse", "--short=12", "HEAD"])
}

fn status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Threads of this process right now.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

/// User plus system CPU seconds this process has used.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the
    // parenthesised command name, in clock ticks of 1/100 s.
    const TICKS_PER_SECOND: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(fields.next()) + ticks(fields.next())) / TICKS_PER_SECOND
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_file_names_the_runtime() {
        assert_ne!(tokio_version(), "unknown");
        assert!(runtime_kind().contains(tokio_version()));
    }

    #[test]
    fn proc_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        assert!(threads() >= 1);
        assert!(cpu_seconds().is_finite() && cpu_seconds() >= 0.0);
    }
}
