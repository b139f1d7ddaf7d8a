//! Cross-file doc/code drift checks, in the spirit of `ci_steps.sh parity`:
//! prose that documents a machine-checkable contract must match the code
//! that implements it.
//!
//! * **Wire grammar**: the fenced ```text grammar block in ROADMAP.md must
//!   use exactly the verbs `sitfact-serve::protocol` declares in its
//!   `REQUEST_VERBS` / `RESPONSE_VERBS` constants.
//! * **Doc links**: every `*.md` file named in a doc comment (`///`, `//!`)
//!   or a crate README must exist — at the repository root, at the crate
//!   root, or relative to the naming file.
//! * **Vendored crates**: every crate under `vendor/` must be a dependency
//!   of some member manifest (the root `Cargo.toml`, or one directly under
//!   `crates/` or `vendor/`), so a stand-in goes with its last user; and
//!   `vendor/README.md` must have a row for exactly the crates that exist.
//! * **Lint table**: every member manifest must inherit the root's
//!   `[workspace.lints]` table (whose entries `tests/lint_gate.rs` pins), or
//!   forbid `unsafe_code` in its own `[lints.rust]`; and no `src/` file of the root package or
//!   of a member crate may carry a crate-level `#![allow(...)]` of a lint
//!   the table denies; and every codec module ([`CODECS`]) opens with
//!   [`CODEC_HEADER`] on a line of its own.
//! * **Compat modules**: every `pub` item of a `src/compat.rs` must be named
//!   by the frozen end-to-end benchmark's sources, and by no other source
//!   outside compat modules and `#[cfg(test)]` items — so those modules only
//!   ever shrink.
//!
//! None of them lexes Rust: doc comments are the lines that start with
//! `///` or `//!`, the protocol constants are the quoted strings between a
//! `const`'s `= [` and the next `]`, and a source names an item when an
//! identifier token of its code (`//` comments dropped) equals the name.

use crate::Violation;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const ROADMAP: &str = "ROADMAP.md";
const ROOT_MANIFEST: &str = "Cargo.toml";
const PROTOCOL: &str = "crates/sitfact-serve/src/protocol.rs";
const VENDOR: &str = "vendor";
const VENDOR_README: &str = "vendor/README.md";
/// The frozen benchmark's sources, the one reader of the compat modules.
const BENCH_E2E: &str = "crates/sitfact-bench/src/bin/bench_e2e/";

fn read(root: &Path, rel: &str) -> Result<String, Violation> {
    std::fs::read_to_string(root.join(rel)).map_err(|err| Violation {
        rule: "drift-io",
        path: rel.to_string(),
        line: 0,
        message: format!("cannot read: {err}"),
    })
}

/// Quoted ALL-CAPS tokens (≥ 2 chars of `A-Z_`) in a grammar block — the
/// verbs, skipping the one-letter record tags (`"R"`, `"F"`).
fn quoted_verbs(block: &str) -> BTreeSet<String> {
    let mut verbs = BTreeSet::new();
    let mut rest = block;
    while let Some(open) = rest.find('"') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('"') else { break };
        let token = &after[..close];
        if token.len() >= 2 && token.bytes().all(|b| b.is_ascii_uppercase() || b == b'_') {
            verbs.insert(token.to_string());
        }
        rest = &after[close + 1..];
    }
    verbs
}

/// The fenced ```text block of ROADMAP.md that contains the wire grammar.
fn grammar_block(roadmap: &str) -> Option<String> {
    let mut in_text_fence = false;
    let mut block = String::new();
    for line in roadmap.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("```") {
            if in_text_fence {
                if block.contains("request") && block.contains(":=") {
                    return Some(block);
                }
                block.clear();
                in_text_fence = false;
            } else if trimmed == "```text" {
                in_text_fence = true;
            }
            continue;
        }
        if in_text_fence {
            block.push_str(line);
            block.push('\n');
        }
    }
    None
}

/// The quoted strings of the array literal of `const <name>`: between the
/// first `[` after the `=` (past the `: [&str; N]` annotation) and the
/// next `]`.
fn const_array_strings(source: &str, name: &str) -> Option<BTreeSet<String>> {
    let at = source.find(&format!("const {name}"))?;
    let eq = at + source[at..].find('=')?;
    let open = eq + source[eq..].find('[')?;
    let close = open + source[open..].find(']')?;
    let items = source[open + 1..close].split('"').skip(1).step_by(2);
    Some(items.map(str::to_string).collect())
}

/// Checks the ROADMAP wire-grammar block against the protocol constants.
pub fn check_grammar(root: &Path) -> Vec<Violation> {
    let (roadmap, protocol) = match (read(root, ROADMAP), read(root, PROTOCOL)) {
        (Ok(r), Ok(p)) => (r, p),
        (r, p) => return r.err().into_iter().chain(p.err()).collect(),
    };
    let Some(block) = grammar_block(&roadmap) else {
        return vec![Violation {
            rule: "grammar-drift",
            path: ROADMAP.to_string(),
            line: 0,
            message: "no fenced ```text block containing the wire grammar (`request :=`)".into(),
        }];
    };
    let mut code_verbs = BTreeSet::new();
    for name in ["REQUEST_VERBS", "RESPONSE_VERBS"] {
        match const_array_strings(&protocol, name) {
            Some(verbs) => code_verbs.extend(verbs),
            None => {
                return vec![Violation {
                    rule: "grammar-drift",
                    path: PROTOCOL.to_string(),
                    line: 0,
                    message: format!("protocol module does not declare `{name}`"),
                }]
            }
        }
    }
    let doc_verbs = quoted_verbs(&block);
    let mut violations = Vec::new();
    for missing in code_verbs.difference(&doc_verbs) {
        violations.push(Violation {
            rule: "grammar-drift",
            path: ROADMAP.to_string(),
            line: 0,
            message: format!(
                "the wire-grammar block does not mention verb \"{missing}\" declared in \
                 {PROTOCOL}"
            ),
        });
    }
    for extra in doc_verbs.difference(&code_verbs) {
        violations.push(Violation {
            rule: "grammar-drift",
            path: ROADMAP.to_string(),
            line: 0,
            message: format!(
                "the wire-grammar block mentions verb \"{extra}\", which {PROTOCOL} does \
                 not declare"
            ),
        });
    }
    violations
}

/// The `*.md` names in `text`: a run of path characters ending in `.md`
/// with a non-empty stem. Globs (`*.md`), absolute paths and URLs are not
/// names.
fn md_names(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let path_char = |b: u8| b.is_ascii_alphanumeric() || b"_-./".contains(&b);
    let mut names = Vec::new();
    for (at, _) in text.match_indices(".md") {
        let end = at + ".md".len();
        if bytes
            .get(end)
            .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
        {
            continue;
        }
        let start = bytes[..at]
            .iter()
            .rposition(|&b| !path_char(b))
            .map_or(0, |p| p + 1);
        let glob = start > 0 && bytes[start - 1] == b'*';
        if start < at && !glob && bytes[start] != b'/' && bytes[at - 1] != b'/' {
            names.push(&text[start..end]);
        }
    }
    names
}

/// The nearest directory from `dir` up to `root` that holds a `Cargo.toml`,
/// or `root` when none does.
fn crate_root(root: &Path, dir: &Path) -> PathBuf {
    dir.ancestors()
        .take_while(|d| d.starts_with(root))
        .find(|d| d.join("Cargo.toml").is_file())
        .unwrap_or(root)
        .to_path_buf()
}

/// Checks the `*.md` names of one file — the doc comments of a `.rs`
/// file, all of a crate README — against the files that exist at the
/// repository root, at the file's crate root, or next to the file.
pub fn check_doc_links(root: &Path, rel: &str, source: &str) -> Vec<Violation> {
    let doc = |text: &str| {
        let text = text.trim_start();
        text.starts_with("///") || text.starts_with("//!")
    };
    let rust = rel.ends_with(".rs");
    let lines = source
        .lines()
        .enumerate()
        .filter(|(_, text)| !rust || doc(text));
    let file_dir = root.join(rel).parent().unwrap_or(root).to_path_buf();
    let bases = [root.to_path_buf(), crate_root(root, &file_dir), file_dir];
    let mut violations = Vec::new();
    for (line, text) in lines {
        for name in md_names(text) {
            if !bases.iter().any(|base| base.join(name).is_file()) {
                violations.push(Violation {
                    rule: "doc-link-drift",
                    path: rel.to_string(),
                    line: line + 1,
                    message: format!(
                        "names {name}, which exists neither at the repository root, at the \
                         crate root, nor next to this file"
                    ),
                });
            }
        }
    }
    violations
}

/// The `key = value` entries of a manifest, each with the table it sits
/// in, its key and its value (comments and blank lines dropped).
fn manifest_entries(manifest: &str) -> Vec<(String, String, String)> {
    let mut table = String::new();
    let mut entries = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            table = line.trim_matches(['[', ']']).trim().to_string();
        } else if let Some((key, value)) = line.split_once('=').filter(|_| !line.starts_with('#')) {
            entries.push((
                table.clone(),
                key.trim().to_string(),
                value.trim().to_string(),
            ));
        }
    }
    entries
}

/// The dependencies a manifest declares, `[workspace.dependencies]` aside:
/// the key of every entry of a `[…dependencies]` table (`rand = …`,
/// `rand.workspace = true`).
fn manifest_dependencies(manifest: &str) -> BTreeSet<String> {
    manifest_entries(manifest)
        .into_iter()
        .filter(|(table, _, _)| {
            table.ends_with("dependencies") && table != "workspace.dependencies"
        })
        .map(|(_, key, _)| {
            let name = key.split('.').next().unwrap_or(&key);
            name.trim().trim_matches('"').to_string()
        })
        .collect()
}

/// The subdirectories of `root/dir` that hold a `Cargo.toml`, by name.
fn crate_dirs(root: &Path, dir: &str) -> BTreeSet<String> {
    let Ok(entries) = std::fs::read_dir(root.join(dir)) else {
        return BTreeSet::new();
    };
    entries
        .flatten()
        .filter(|entry| entry.path().join("Cargo.toml").is_file())
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .collect()
}

/// The crate names of `vendor/README.md`'s table, with their 1-based lines:
/// the rows whose first cell is one backticked name.
fn readme_rows(readme: &str) -> Vec<(usize, String)> {
    readme
        .lines()
        .enumerate()
        .filter_map(|(line, text)| {
            let cell = text.trim().strip_prefix('|')?.split('|').next()?.trim();
            let name = cell.strip_prefix('`')?.strip_suffix('`')?;
            Some((line + 1, name.to_string()))
        })
        .collect()
}

/// The member manifests, by root-relative path: the root `Cargo.toml` and
/// the one of every crate directly under `crates/` or `vendor/`.
fn member_manifests(root: &Path) -> Vec<String> {
    let mut manifests = vec![ROOT_MANIFEST.to_string()];
    for dir in ["crates", VENDOR] {
        manifests.extend(
            crate_dirs(root, dir)
                .iter()
                .map(|name| format!("{dir}/{name}/Cargo.toml")),
        );
    }
    manifests
}

/// Checks every vendored crate against the member manifests and against
/// the rows of `vendor/README.md` (nothing to check without `vendor/`).
pub fn check_vendor(root: &Path) -> Vec<Violation> {
    let vendored = crate_dirs(root, VENDOR);
    if vendored.is_empty() {
        return Vec::new();
    }
    let mut violations = Vec::new();
    let mut used = BTreeSet::new();
    for manifest in member_manifests(root) {
        match read(root, &manifest) {
            Ok(text) => used.extend(manifest_dependencies(&text)),
            Err(err) => violations.push(err),
        }
    }
    let rows = match read(root, VENDOR_README) {
        Ok(readme) => readme_rows(&readme),
        Err(err) => {
            violations.push(err);
            Vec::new()
        }
    };
    let mut drift = |path: String, line: usize, message: String| {
        violations.push(Violation {
            rule: "vendor-drift",
            path,
            line,
            message,
        })
    };
    for name in &vendored {
        if !used.contains(name) {
            let message = format!("no member manifest depends on the vendored crate `{name}`");
            drift(format!("{VENDOR}/{name}"), 0, message);
        }
        if !rows.iter().any(|(_, row)| row == name) {
            let message = format!("{VENDOR_README} has no row for the vendored crate `{name}`");
            drift(format!("{VENDOR}/{name}"), 0, message);
        }
    }
    for (line, name) in rows.iter().filter(|(_, name)| !vendored.contains(name)) {
        let message = format!("lists `{name}`, but {VENDOR}/{name} holds no crate");
        drift(VENDOR_README.to_string(), *line, message);
    }
    violations
}

/// Checks every member manifest against the root's lint table, and returns
/// the lints that table denies or forbids (`clippy::unwrap_used`, or bare
/// for rustc's own, like `unsafe_code`) for [`check_crate_allows`].
pub fn check_lint_tables(root: &Path) -> (Vec<Violation>, BTreeSet<String>) {
    let mut violations = Vec::new();
    let mut denied = BTreeSet::new();
    for manifest in member_manifests(root) {
        let entries = match read(root, &manifest) {
            Ok(text) => manifest_entries(&text),
            Err(err) => {
                violations.push(err);
                continue;
            }
        };
        let mut inherits = false;
        let mut forbids_unsafe = false;
        for (table, key, value) in entries {
            let level = value.trim_matches('"');
            if let Some(tool) = table.strip_prefix("workspace.lints.") {
                if ["deny", "forbid"].contains(&level) {
                    denied.insert(match tool {
                        "rust" => key.clone(),
                        _ => format!("{tool}::{key}"),
                    });
                }
            }
            inherits |= table == "lints" && key == "workspace" && value == "true";
            forbids_unsafe |= table == "lints.rust" && key == "unsafe_code" && level == "forbid";
        }
        if !inherits && !forbids_unsafe {
            violations.push(Violation {
                rule: "lints-drift",
                path: manifest,
                line: 0,
                message: "neither inherits the workspace lint table (`[lints] workspace = true`) \
                          nor forbids `unsafe_code` in its own `[lints.rust]`"
                    .into(),
            });
        }
    }
    (violations, denied)
}

/// Checks one `.rs` file for a crate-level `#![allow(...)]` of a `denied`
/// lint, when it lies under the `src/` of the root package or of a member
/// crate (`crates/<name>/src/`, `vendor/<name>/src/`). Tests, benches and
/// examples may allow what they need.
pub fn check_crate_allows(rel: &str, source: &str, denied: &BTreeSet<String>) -> Vec<Violation> {
    let parts: Vec<&str> = rel.split('/').collect();
    let in_src = parts.first() == Some(&"src")
        || (["crates", VENDOR].contains(&parts[0]) && parts.get(2) == Some(&"src"));
    if !in_src {
        return Vec::new();
    }
    let mut violations = Vec::new();
    for (at, _) in source.match_indices("#![allow(") {
        let line_start = source[..at].rfind('\n').map_or(0, |p| p + 1);
        if !source[line_start..at].trim().is_empty() {
            continue;
        }
        let args = &source[at + "#![allow(".len()..];
        let args = &args[..args.find(")]").unwrap_or(args.len())];
        for lint in args
            .split(',')
            .map(str::trim)
            .filter(|l| denied.contains(*l))
        {
            violations.push(Violation {
                rule: "lints-drift",
                path: rel.to_string(),
                line: source[..at].matches('\n').count() + 1,
                message: format!(
                    "allows `{lint}`, which the workspace lint table denies, for the whole \
                     crate — put a reasoned `#[expect]` on the one site instead"
                ),
            });
        }
    }
    violations
}

/// The code of one source line: everything before a `//` comment.
fn code(line: &str) -> &str {
    line.find("//").map_or(line, |at| &line[..at])
}

/// The identifier tokens of `text`.
fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|token| token.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// The `(line, name)` of every `pub` item a compat module declares: the
/// identifier after `pub fn`, `pub struct`, `pub enum`, `pub trait`,
/// `pub type`, `pub const`, `pub static` or `pub mod`.
fn pub_items(source: &str) -> Vec<(usize, String)> {
    const KINDS: [&str; 8] = [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
    ];
    let mut items = Vec::new();
    for (n, line) in source.lines().enumerate() {
        let mut tokens = code(line).split_whitespace();
        while let Some(token) = tokens.next() {
            if token != "pub" {
                continue;
            }
            let (Some(kind), Some(name)) = (tokens.next(), tokens.next()) else {
                break;
            };
            if KINDS.contains(&kind) {
                let name = identifiers(name).next().unwrap_or_default();
                items.push((n + 1, name.to_string()));
            }
        }
    }
    items
}

/// The `(line, code)` pairs of `source` outside `#[cfg(test)]` items: an
/// attribute line `#[cfg(test)]` drops the item after it, up to where its
/// braces close (or its `;`, for an item without a body).
fn non_test_code(source: &str) -> Vec<(usize, &str)> {
    let mut kept = Vec::new();
    let mut skipping = false;
    let mut depth = 0usize;
    let mut opened = false;
    for (n, line) in source.lines().enumerate() {
        let code = code(line);
        if !skipping && code.trim() == "#[cfg(test)]" {
            (skipping, depth, opened) = (true, 0, false);
            continue;
        }
        if !skipping {
            kept.push((n + 1, code));
            continue;
        }
        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        let trimmed = code.trim_end();
        if depth == 0 && (opened || trimmed.ends_with(';')) && !trimmed.starts_with("#[") {
            skipping = false;
        }
    }
    kept
}

/// The inner attribute every codec module opens with: indexing and
/// truncating casts are errors where persisted or wire bytes are read and
/// written (`#[cfg(test)]` code may index, per `clippy.toml`).
pub const CODEC_HEADER: &str =
    "#![deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]";

/// The codec modules: the readers and writers of persisted and wire bytes.
pub const CODECS: [&str; 4] = [
    "crates/sitfact-prominence/src/durable.rs",
    "crates/sitfact-serve/src/protocol.rs",
    "crates/sitfact-storage/src/file_store.rs",
    "crates/sitfact-storage/src/wal.rs",
];

/// Checks that every codec module is among `sources` and carries
/// [`CODEC_HEADER`] on a line of its own.
pub fn check_codec_headers(sources: &[(String, String)]) -> Vec<Violation> {
    CODECS
        .iter()
        .filter(|&&codec| {
            !sources.iter().any(|(rel, source)| {
                rel == codec && source.lines().any(|line| line.trim() == CODEC_HEADER)
            })
        })
        .map(|&codec| Violation {
            rule: "lints-drift",
            path: codec.to_string(),
            line: 0,
            message: format!("codec module is missing, or does not open with `{CODEC_HEADER}`"),
        })
        .collect()
}

/// Checks the compat modules (`src/compat.rs` of any crate) against their
/// readers among `sources` (`(path, source)` of every `.rs` file): each `pub`
/// item must be named under `bench_e2e/`, and nowhere else outside compat
/// modules and `#[cfg(test)]` items.
pub fn check_compat(sources: &[(String, String)]) -> Vec<Violation> {
    let is_compat = |rel: &str| rel.ends_with("/src/compat.rs");
    let mut items = Vec::new();
    for (rel, source) in sources.iter().filter(|(rel, _)| is_compat(rel)) {
        for (line, name) in pub_items(source) {
            items.push((rel.as_str(), line, name));
        }
    }
    let mut violations = Vec::new();
    if items.is_empty() {
        return violations;
    }
    let mut bench_names = BTreeSet::new();
    for (_, source) in sources.iter().filter(|(rel, _)| rel.starts_with(BENCH_E2E)) {
        for line in source.lines() {
            bench_names.extend(identifiers(code(line)));
        }
    }
    for (rel, line, name) in &items {
        if !bench_names.contains(name.as_str()) {
            violations.push(Violation {
                rule: "compat-drift",
                path: rel.to_string(),
                line: *line,
                message: format!("`{name}` is named by nothing under {BENCH_E2E}: delete it"),
            });
        }
    }
    let names: BTreeSet<&str> = items.iter().map(|(_, _, name)| name.as_str()).collect();
    for (rel, source) in sources {
        if is_compat(rel) || rel.starts_with(BENCH_E2E) {
            continue;
        }
        for (line, code) in non_test_code(source) {
            for name in identifiers(code).filter(|token| names.contains(token)) {
                violations.push(Violation {
                    rule: "compat-drift",
                    path: rel.clone(),
                    line,
                    message: format!(
                        "names `{name}`, which a compat module keeps only for {BENCH_E2E}; \
                         use the product type instead"
                    ),
                });
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compat_items_are_matched_by_token_outside_comments_and_tests() {
        let sources = vec![
            (
                "crates/a/src/compat.rs".to_string(),
                "/// pub fn commented() {}\npub fn kept() {}\npub(crate) fn private() {}\n\
                 pub type Gone = u8;\n"
                    .to_string(),
            ),
            (
                format!("{BENCH_E2E}main.rs"),
                "fn main() { a::kept(); }\n".to_string(),
            ),
            (
                "crates/a/src/lib.rs".to_string(),
                "// kept() in a comment\nfn keeper() {}\n#[cfg(test)]\nmod tests {\n    \
                 fn t() { kept(); }\n}\nfn late() { kept(); }\n"
                    .to_string(),
            ),
        ];
        let found: Vec<(String, usize)> = check_compat(&sources)
            .into_iter()
            .map(|v| (v.path, v.line))
            .collect();
        assert_eq!(
            found,
            vec![
                ("crates/a/src/compat.rs".to_string(), 4),
                ("crates/a/src/lib.rs".to_string(), 7),
            ]
        );
    }

    #[test]
    fn md_names_skip_globs_urls_and_longer_extensions() {
        let text = "see `ROADMAP.md`, ../a/B.md's table, *.md, <https://x.org/C.md>, D.mdx";
        assert_eq!(md_names(text), vec!["ROADMAP.md", "../a/B.md"]);
    }

    #[test]
    fn manifest_dependencies_skip_workspace_tables_and_comments() {
        let manifest = "[workspace.dependencies]\nbytes = { path = \"vendor/bytes\" }\n\
                        [dependencies]\n# serde = \"1\"\nrand.workspace = true\n\
                        [dev-dependencies]\nproptest = { path = \"../proptest\" }\n\
                        [[bin]]\nname = \"tool\"\n";
        assert_eq!(
            manifest_dependencies(manifest)
                .into_iter()
                .collect::<Vec<_>>(),
            vec!["proptest", "rand"]
        );
    }

    #[test]
    fn readme_rows_are_the_backticked_first_cells() {
        let readme =
            "| Crate | Notes |\n|---|---|\n| `rand` | x |\nprose `bytes`\n| `criterion` |\n";
        assert_eq!(
            readme_rows(readme),
            vec![(3, "rand".to_string()), (5, "criterion".to_string())]
        );
    }

    #[test]
    fn verbs_are_extracted_from_grammar_blocks() {
        let block = "request := \"PING\" | \"TOPK\" TAB k\nreport := \"R\" TAB id\n";
        let verbs = quoted_verbs(block);
        assert!(verbs.contains("PING"));
        assert!(verbs.contains("TOPK"));
        assert!(!verbs.contains("R"), "one-letter record tags are not verbs");
    }

    #[test]
    fn const_arrays_are_read_between_the_brackets() {
        let source = "/// Unlike `REQUEST_VERBS = [\"THIS\"]`:\n\
                      pub const REQUEST_VERBS: [&str; 2] = [\"PING\", \"STATS\"];\n";
        let verbs = const_array_strings(source, "REQUEST_VERBS").expect("array found");
        assert_eq!(
            verbs.into_iter().collect::<Vec<_>>(),
            vec!["PING".to_string(), "STATS".to_string()]
        );
    }

    #[test]
    fn crate_allows_of_denied_lints_in_src_are_flagged() {
        let denied = BTreeSet::from(["clippy::unwrap_used".to_string()]);
        let source = "//! Doc.\n#![allow(\n    clippy::unwrap_used,\n    reason = \"x\"\n)]\n\
                      #![allow(clippy::needless_return)]\n\
                      #[allow(clippy::unwrap_used)]\n\
                      const S: &str = \"#![allow(clippy::unwrap_used)]\";\n";
        let lines = |rel| {
            check_crate_allows(rel, source, &denied)
                .iter()
                .map(|v| v.line)
                .collect::<Vec<_>>()
        };
        assert_eq!(lines("crates/x/src/lib.rs"), vec![2]);
        assert_eq!(lines("src/lib.rs"), vec![2]);
        assert_eq!(lines("vendor/x/src/lib.rs"), vec![2]);
        assert!(lines("crates/x/tests/t.rs").is_empty());
        assert!(lines("examples/e.rs").is_empty());
    }
}
