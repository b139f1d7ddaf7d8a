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

use crate::lexer::lex;
use crate::rules::Violation;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const ROADMAP: &str = "ROADMAP.md";
const PROTOCOL: &str = "crates/sitfact-serve/src/protocol.rs";
const VENDOR: &str = "vendor";
const VENDOR_README: &str = "vendor/README.md";

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

/// String literals of a bracketed const array, located by the constant's
/// name in the masked source.
fn const_array_strings(source: &str, name: &str) -> Option<BTreeSet<String>> {
    let lexed = lex(source);
    let at = lexed.masked.find(name)?;
    // Skip the type annotation (`: [&str; N]`) — the array literal is the
    // first bracket after the `=`.
    let eq = at + lexed.masked[at..].find('=')?;
    let open = eq + lexed.masked[eq..].find('[')?;
    let close = open + lexed.masked[open..].find(']')?;
    Some(
        lexed
            .strings
            .iter()
            .filter(|s| s.offset > open && s.offset < close)
            .map(|s| s.content.clone())
            .collect(),
    )
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
    let lexed;
    let lines: Vec<(usize, &str)> = if rel.ends_with(".rs") {
        lexed = lex(source);
        lexed
            .comments
            .iter()
            .filter(|c| c.text.starts_with(['/', '!']))
            .map(|c| (c.line, c.text.as_str()))
            .collect()
    } else {
        source.lines().enumerate().collect()
    };
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

/// The dependencies a manifest declares, `[workspace.dependencies]` aside:
/// the key of every entry of a `[…dependencies]` table (`rand = …`,
/// `rand.workspace = true`).
fn manifest_dependencies(manifest: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let mut in_table = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            let table = line.trim_matches(['[', ']']).trim();
            in_table = table.ends_with("dependencies") && table != "workspace.dependencies";
        } else if in_table && !line.starts_with('#') {
            if let Some((key, _)) = line.split_once('=') {
                let name = key.split('.').next().unwrap_or(key);
                names.insert(name.trim().trim_matches('"').to_string());
            }
        }
    }
    names
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

/// Checks every vendored crate against the member manifests and against
/// the rows of `vendor/README.md` (nothing to check without `vendor/`).
pub fn check_vendor(root: &Path) -> Vec<Violation> {
    let vendored = crate_dirs(root, VENDOR);
    if vendored.is_empty() {
        return Vec::new();
    }
    let mut manifests = vec!["Cargo.toml".to_string()];
    for dir in ["crates", VENDOR] {
        manifests.extend(
            crate_dirs(root, dir)
                .iter()
                .map(|name| format!("{dir}/{name}/Cargo.toml")),
        );
    }
    let mut violations = Vec::new();
    let mut used = BTreeSet::new();
    for manifest in manifests {
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn const_arrays_are_read_through_the_lexer() {
        let source =
            "// not [\"THIS\"]\npub const REQUEST_VERBS: [&str; 2] = [\"PING\", \"STATS\"];\n";
        let verbs = const_array_strings(source, "REQUEST_VERBS").expect("array found");
        assert_eq!(
            verbs.into_iter().collect::<Vec<_>>(),
            vec!["PING".to_string(), "STATS".to_string()]
        );
    }
}
