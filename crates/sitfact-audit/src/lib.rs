#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `sitfact-audit` — repo-specific static analysis for the workspace.
//!
//! The auditor walks every `.rs` file under a root, lexes it with a small
//! hand-rolled lexer ([`lexer`]) so that strings, char literals, comments
//! and doc-comment code fences never produce matches, and enforces the
//! workspace's coding contracts ([`rules`]):
//!
//! * `no-unsafe` — no `unsafe` anywhere, plus `#![forbid(unsafe_code)]` in
//!   every crate root (`forbid-unsafe-header`);
//! * `no-panic` — no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in
//!   non-test library code;
//! * `no-thread-spawn` — `sitfact_core::pool` is the only thread spawner;
//! * `no-wallclock` — `SystemTime::now`/`Instant::now` stay in bench/serve.
//!
//! A site can opt out with `// audit: allow(<rule>): <reason>`; reasonless
//! or unused markers are themselves violations (`allow-syntax`,
//! `stale-allow`).
//!
//! On top of the per-file rules, [`drift`] cross-checks prose against code:
//! the ROADMAP wire-grammar block against the verb constants in
//! `sitfact-serve::protocol` (`grammar-drift`), every `*.md` file a doc
//! comment or crate README names against the files that exist
//! (`doc-link-drift`), and every crate under `vendor/` against the member
//! manifests that depend on it and the rows of `vendor/README.md`
//! (`vendor-drift`).
//!
//! Run it with `cargo run -p sitfact-audit` (the `analyze` CI step does).

pub mod drift;
pub mod lexer;
pub mod rules;

pub use rules::Violation;

use std::io;
use std::path::{Path, PathBuf};

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

    let mut violations = Vec::new();
    for path in &files {
        let rel = relative(root, path);
        match std::fs::read_to_string(path) {
            Ok(source) => {
                if rel.ends_with(".rs") {
                    violations.extend(rules::check_file(&rel, &source));
                }
                violations.extend(drift::check_doc_links(root, &rel, &source));
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
