//! Regression gate: the workspace's own sources must stay lint-clean.
//!
//! Every rule's positive/negative behavior is covered by the unit
//! self-tests in `src/lib.rs`; this test pins the other half of the
//! contract — `cargo lint-all` exits 0 on the real tree — so a change
//! that re-introduces debt (an unmarked geometry-rewrite site, a stray
//! or misspelt `// audit:` marker) fails `cargo test-all` even before
//! CI runs the binary.

#![forbid(unsafe_code)]

use std::path::Path;

use geogrid_audit::{analyze_workspace, find_workspace_root};

fn workspace_root() -> std::path::PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    find_workspace_root(manifest).expect("crates/audit lives inside the workspace")
}

#[test]
fn workspace_tree_is_lint_clean() {
    let root = workspace_root();
    let findings = analyze_workspace(&root).expect("workspace sources are readable");
    assert!(
        findings.is_empty(),
        "cargo lint-all must be clean, got {} finding(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_root_discovery_finds_the_real_root() {
    let root = workspace_root();
    assert!(root.join("Cargo.toml").is_file());
    // The discovered root is the workspace manifest, not a member's.
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
    assert!(manifest.contains("[workspace]"));
}
