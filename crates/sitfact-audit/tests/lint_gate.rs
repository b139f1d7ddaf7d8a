//! The workspace lint table, tested on itself: a throwaway crate under the
//! test's scratch directory gets the root manifest's `[workspace.lints.*]`
//! tables (copied when the test runs) and the root `clippy.toml`, and
//! `cargo clippy` must fail on every planted violation of
//! `fixtures/lint_gate/lib.rs` with the expected lint, on the expected line,
//! at level `error` — and report nothing else. Deleting or weakening any
//! entry of the table therefore fails this test, and so does adding one that
//! no planted line exercises. The planted source also holds a module that
//! opens with the codec modules' header (`sitfact_audit::drift::CODEC_HEADER`),
//! whose two lints are planted there. Needs clippy, which
//! `rust-toolchain.toml` installs.

use sitfact_audit::drift::CODEC_HEADER;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// The root manifest's `[workspace.lints.<tool>]` tables, renamed to the
/// `[lints.<tool>]` tables of a package, and the lint names they set.
fn lint_tables(manifest: &str) -> (String, BTreeSet<String>) {
    let mut tables = String::new();
    let mut names = BTreeSet::new();
    let mut tool = None;
    for line in manifest.lines() {
        if line.starts_with('[') {
            tool = line
                .strip_prefix("[workspace.lints.")
                .and_then(|rest| rest.strip_suffix(']'));
            if let Some(tool) = tool {
                tables.push_str(&format!("\n[lints.{tool}]\n"));
            }
        } else if let Some(tool) = tool.filter(|_| !line.starts_with('#')) {
            tables.push_str(line);
            tables.push('\n');
            if let Some((key, _)) = line.split_once('=') {
                let prefix = if tool == "rust" { "" } else { "clippy::" };
                names.insert(format!("{prefix}{}", key.trim()));
            }
        }
    }
    (tables, names)
}

/// The lints [`CODEC_HEADER`] denies.
fn header_lints() -> BTreeSet<String> {
    let lints = CODEC_HEADER.trim_start_matches("#![deny(");
    let lints = lints.trim_end_matches(")]").split(',');
    lints.map(|lint| lint.trim().to_string()).collect()
}

/// `(line, lint)` of every `// expect: <lint>…` comment in the planted source.
fn planted(source: &str) -> BTreeSet<(usize, String)> {
    let mut expected = BTreeSet::new();
    for (i, line) in source.lines().enumerate() {
        if let Some((_, lints)) = line.split_once("// expect: ") {
            for lint in lints.split_whitespace() {
                expected.insert((i + 1, lint.to_string()));
            }
        }
    }
    expected
}

/// The text of the first JSON string field `"<key>":"…"` in `json` up to
/// its first quote, escaped or not: enough for a lint code, and for the
/// `path:line:column: level:` head of a rendered message.
fn field<'a>(json: &'a str, key: &str) -> &'a str {
    let rest = json
        .split_once(&format!("\"{key}\":\""))
        .map_or("", |(_, rest)| rest);
    rest.split('"').next().unwrap_or_default()
}

/// `(line, lint, level)` of every diagnostic that names a lint, from cargo's
/// `json-diagnostic-short` messages: the lint is the message's first `"code"`
/// (its children come after it), and its line and level lead the one-line
/// `"rendered"` text (`src/lib.rs:12:5: error: …`).
fn findings(stdout: &str) -> BTreeSet<(usize, String, String)> {
    let mut found = BTreeSet::new();
    for message in stdout.lines() {
        let Some((_, code)) = message.split_once("\"code\":{") else {
            continue;
        };
        let mut head = field(message, "rendered").split(':').skip(1);
        let line = head.next().and_then(|l| l.parse().ok()).unwrap_or(0);
        let level = head.nth(1).unwrap_or_default().trim();
        found.insert((line, field(code, "code").to_string(), level.to_string()));
    }
    found
}

#[test]
fn every_planted_violation_fails_with_its_lint_on_its_line() {
    let root = workspace_root();
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let (tables, mut table_lints) = lint_tables(&manifest);
    let source = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/lint_gate/lib.rs"),
    )
    .expect("planted source");
    assert!(
        source.lines().any(|line| line.trim() == CODEC_HEADER),
        "the planted source needs a module that opens with {CODEC_HEADER}"
    );
    table_lints.extend(header_lints());
    let expected = planted(&source);
    let planted_lints: BTreeSet<String> = expected.iter().map(|(_, lint)| lint.clone()).collect();
    assert_eq!(
        planted_lints, table_lints,
        "every lint of [workspace.lints] and of the codec header needs a planted violation, \
         and only those"
    );

    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_gate");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("src")).expect("scratch crate directory");
    let package = "[workspace]\n\n[package]\nname = \"lint-gate\"\nversion = \"0.0.0\"\n\
                   edition = \"2021\"\npublish = false\n";
    std::fs::write(dir.join("Cargo.toml"), format!("{package}{tables}")).expect("manifest");
    std::fs::copy(root.join("clippy.toml"), dir.join("clippy.toml")).expect("clippy.toml");
    std::fs::write(dir.join("src/lib.rs"), &source).expect("planted lib.rs");

    // `--all-targets` compiles the `#[cfg(test)]` module too, whose unwrap
    // must stay quiet.
    let output = Command::new(env!("CARGO"))
        .current_dir(&dir)
        .env_remove("CLIPPY_CONF_DIR")
        .args(["clippy", "--offline", "--all-targets", "--quiet"])
        .args(["--message-format=json-diagnostic-short", "--target-dir"])
        .arg(dir.join("target"))
        .output()
        .expect("cargo clippy runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        !output.status.success(),
        "clippy passed the planted violations:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let wanted: BTreeSet<(usize, String, String)> = expected
        .into_iter()
        .map(|(line, lint)| (line, lint, "error".to_string()))
        .collect();
    assert_eq!(
        findings(&stdout),
        wanted,
        "clippy's findings differ from the planted ones:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}
