//! `geogrid-audit` binary: lints the workspace's own sources and exits
//! non-zero when any project rule is violated. Wired up as the
//! `cargo lint-all` alias (see `.cargo/config.toml`) and run by the CI
//! `lint` job alongside clippy.
//!
//! The exit code is the gate for CI and scripting:
//!
//! | code | meaning                                   |
//! |------|-------------------------------------------|
//! | 0    | scan completed, no findings               |
//! | 1    | scan completed, one or more findings      |
//! | 2    | scanner error (bad flags, unreadable root)|

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use geogrid_audit::{analyze_workspace, find_workspace_root, Finding, RULES};

const USAGE: &str = "\
geogrid-audit: offline static-analysis pass over the GeoGrid workspace

USAGE:
    cargo lint-all [-- OPTIONS]

OPTIONS:
    --root <dir>    lint the workspace rooted at <dir> instead of
                    discovering it from the current directory
    --list-rules    print the rule catalog (ids, summaries, fix-it hints)
    -q, --quiet     print findings only, no summary line
    -h, --help      this text
";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("error: --root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                for r in RULES {
                    println!("{}  {}\n       fix: {}", r.id, r.summary, r.hint);
                }
                return ExitCode::SUCCESS;
            }
            "-q" | "--quiet" => quiet = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "error: no workspace Cargo.toml found above {}",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    let findings = match analyze_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!(
                "error: failed to read sources under {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };

    render_text(&findings, quiet);
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn render_text(findings: &[Finding], quiet: bool) {
    for f in findings {
        println!("{f}\n");
    }
    if quiet {
        return;
    }
    if findings.is_empty() {
        println!("geogrid-audit: clean ({} rules, 0 findings)", RULES.len());
    } else {
        println!("geogrid-audit: {} finding(s)", findings.len());
    }
}
