#![warn(missing_docs)]

//! `sitfact-audit` — the workspace's cross-file checks.
//!
//! The line rules (no `unsafe`, no panics in library code, `sitfact_core::pool`
//! as the one thread spawner, no clock reads outside bench and serve, a
//! reason on every suppression) are rustc and clippy lints: the root
//! manifest's `[workspace.lints]` table and the `clippy.toml` files, checked
//! by `cargo clippy --workspace --all-targets -- -D warnings`. What no
//! compiler sees is left here ([`drift`]), prose and manifests checked
//! against code:
//!
//! * `grammar-drift` — the ROADMAP wire-grammar block against the verb
//!   constants in `sitfact-serve::protocol`;
//! * `doc-link-drift` — every `*.md` file a doc comment or crate README
//!   names against the files that exist;
//! * `vendor-drift` — every crate under `vendor/` against the member
//!   manifests that depend on it and the rows of `vendor/README.md`;
//! * `lints-drift` — every member manifest against the workspace lint table
//!   (it inherits the table, or forbids `unsafe_code` in its own), and every
//!   `src/` file against a crate-level `allow` of a lint the table denies;
//! * `compat-drift` — every `pub` item of a crate's `compat` module against
//!   the frozen end-to-end benchmark that is its one reader.
//!
//! Run it with `cargo run -p sitfact-audit` (the `analyze` CI step does).

pub mod drift;

use std::io;
use std::path::{Path, PathBuf};

/// One finding of the auditor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violated rule, e.g. `"doc-link-drift"`.
    pub rule: &'static str,
    /// Path of the offending file, relative to the audited root.
    pub path: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.line {
            0 => write!(f, "{}: [{}] {}", self.path, self.rule, self.message),
            line => write!(f, "{}:{line}: [{}] {}", self.path, self.rule, self.message),
        }
    }
}

/// Directories never descended into: build output, VCS metadata, and the
/// auditor's own deliberately-violating test fixtures.
const SKIP_DIRS: [&str; 3] = ["target", "fixtures", "node_modules"];

fn should_skip(name: &str) -> bool {
    name.starts_with('.') || SKIP_DIRS.contains(&name)
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if !should_skip(&name) {
                walk(&path, files)?;
            }
        } else if name.ends_with(".rs") || name == "README.md" {
            files.push(path);
        }
    }
    Ok(())
}

fn is_crate_readme(path: &Path) -> bool {
    path.ends_with("README.md") && path.with_file_name("Cargo.toml").is_file()
}

/// `path` relative to `root`, with forward slashes regardless of platform.
fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// The outcome of one audit run.
#[derive(Debug)]
pub struct AuditReport {
    /// Number of `.rs` files inspected (crate READMEs are read for
    /// `doc-link-drift` on top).
    pub files_checked: usize,
    /// Every violation found, in path/line order.
    pub violations: Vec<Violation>,
}

/// Audits the workspace rooted at `root`: every `.rs` file under it (minus
/// `target/`, dot-directories and fixture trees) and every crate README
/// (the `README` next to a `Cargo.toml`), plus the cross-file drift checks.
/// I/O failures on the root walk are errors; unreadable individual files are
/// reported as `audit-io` violations so one bad file cannot hide the rest of
/// the report.
pub fn run_audit(root: &Path) -> io::Result<AuditReport> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.retain(|path| path.extension().is_some_and(|ext| ext == "rs") || is_crate_readme(path));
    files.sort();

    let (mut violations, denied) = drift::check_lint_tables(root);
    let mut sources = Vec::new();
    for path in &files {
        let rel = relative(root, path);
        match std::fs::read_to_string(path) {
            Ok(source) => {
                violations.extend(drift::check_doc_links(root, &rel, &source));
                if rel.ends_with(".rs") {
                    violations.extend(drift::check_crate_allows(&rel, &source, &denied));
                    sources.push((rel, source));
                }
            }
            Err(err) => violations.push(Violation {
                rule: "audit-io",
                path: rel,
                line: 0,
                message: format!("cannot read: {err}"),
            }),
        }
    }
    violations.extend(drift::check_grammar(root));
    violations.extend(drift::check_vendor(root));
    violations.extend(drift::check_compat(&sources));
    violations.sort_by(|a, b| {
        a.path
            .cmp(&b.path)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(b.rule))
    });

    Ok(AuditReport {
        files_checked: files.iter().filter(|p| !is_crate_readme(p)).count(),
        violations,
    })
}
