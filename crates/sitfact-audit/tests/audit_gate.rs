//! The auditor's acceptance gate: the seeded fixture tree fires every rule
//! family, the real workspace stays clean, and the `audit` binary's exit
//! codes agree with both.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/violations")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn fixture_tree_fires_every_rule_family() {
    let outcome = sitfact_audit::run_audit(&fixture_root()).expect("fixture tree walks");
    let rules: Vec<&str> = outcome.violations.iter().map(|v| v.rule).collect();
    for expected in [
        "no-unsafe",
        "forbid-unsafe-header",
        "no-panic",
        "no-thread-spawn",
        "no-wallclock",
        "stale-allow",
        "allow-syntax",
        "grammar-drift",
        "doc-link-drift",
        "vendor-drift",
    ] {
        assert!(
            rules.contains(&expected),
            "fixture tree must fire {expected}, got: {:#?}",
            outcome.violations
        );
    }

    let demo = "crates/demo/src/lib.rs";
    let at = |rule: &str, line: usize| {
        outcome
            .violations
            .iter()
            .any(|v| v.rule == rule && v.path == demo && v.line == line)
    };
    // The decoy string on the line above must not count; the unsafe block,
    // and the unwrap under the reasonless marker, must.
    assert!(at("no-unsafe", 10), "{:#?}", outcome.violations);
    assert!(at("no-panic", 35), "{:#?}", outcome.violations);

    // Drift findings point in both directions.
    let drift: Vec<&str> = outcome
        .violations
        .iter()
        .filter(|v| v.rule == "grammar-drift")
        .map(|v| v.message.as_str())
        .collect();
    assert!(drift.iter().any(|m| m.contains("\"TOPK\"")), "{drift:?}");
    assert!(drift.iter().any(|m| m.contains("\"QUERY\"")), "{drift:?}");

    // One dangling doc link; resolved names, globs, URLs and plain comments
    // do not count.
    let links: Vec<(&str, usize, &str)> = outcome
        .violations
        .iter()
        .filter(|v| v.rule == "doc-link-drift")
        .map(|v| (v.path.as_str(), v.line, v.message.as_str()))
        .collect();
    assert_eq!(links.len(), 1, "{links:?}");
    assert_eq!(links[0].0, "crates/demo/src/links.rs");
    assert_eq!(links[0].1, 5);
    assert!(links[0].2.contains("DESIGN.md"), "{links:?}");

    // The drifted vendor directory: a crate nothing depends on, a crate
    // without a README row, and a row without a crate; the crate in order
    // stays quiet.
    let mut vendor: Vec<(&str, usize)> = outcome
        .violations
        .iter()
        .filter(|v| v.rule == "vendor-drift")
        .map(|v| (v.path.as_str(), v.line))
        .collect();
    vendor.sort();
    assert_eq!(
        vendor,
        vec![
            ("vendor/README.md", 11),
            ("vendor/orphan", 0),
            ("vendor/unlisted", 0)
        ],
        "{:#?}",
        outcome.violations
    );
}

#[test]
fn real_workspace_is_clean() {
    let outcome = sitfact_audit::run_audit(&workspace_root()).expect("workspace walks");
    assert!(
        outcome.violations.is_empty(),
        "the real tree must audit clean:\n{}",
        outcome
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        outcome.files_checked > 50,
        "suspiciously few files checked ({}) — walker broke?",
        outcome.files_checked
    );
}

#[test]
fn binary_exit_codes_match() {
    let audit = env!("CARGO_BIN_EXE_audit");
    let bad = Command::new(audit)
        .args(["--root", fixture_root().to_string_lossy().as_ref()])
        .output()
        .expect("audit binary runs");
    assert_eq!(bad.status.code(), Some(1), "fixtures must exit 1");
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(stdout.contains("violation(s)"), "{stdout}");

    let report = std::env::temp_dir().join("sitfact_audit_gate_report.txt");
    let good = Command::new(audit)
        .args(["--root", workspace_root().to_string_lossy().as_ref()])
        .args(["--report", report.to_string_lossy().as_ref()])
        .output()
        .expect("audit binary runs");
    assert_eq!(good.status.code(), Some(0), "real tree must exit 0");
    let written = std::fs::read_to_string(&report).expect("report file written");
    assert!(written.contains("audit: clean"), "{written}");
}
