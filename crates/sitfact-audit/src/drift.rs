//! Cross-file doc/code drift checks, in the spirit of `ci_steps.sh parity`:
//! prose that documents a machine-checkable contract must match the code
//! that implements it.
//!
//! * **Wire grammar**: the fenced ```text grammar block in ROADMAP.md must
//!   use exactly the verbs `sitfact-serve::protocol` declares in its
//!   `REQUEST_VERBS` / `RESPONSE_VERBS` constants.
//! * **Bench schemas**: every `BENCH_*.json` schema documented in
//!   `crates/sitfact-bench/README.md` must list exactly the keys the
//!   corresponding fig binary emits.
//! * **Doc links**: every `*.md` file named in a doc comment (`///`, `//!`)
//!   or a crate README must exist — at the repository root, at the crate
//!   root, or relative to the naming file.

use crate::lexer::lex;
use crate::rules::Violation;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const ROADMAP: &str = "ROADMAP.md";
const PROTOCOL: &str = "crates/sitfact-serve/src/protocol.rs";
const BENCH_README: &str = "crates/sitfact-bench/README.md";

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

/// A key a fig binary emits. Keys interpolated at runtime
/// (`speedup_at_{n}_shards`) become prefix/suffix wildcards.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct EmittedKey {
    prefix: String,
    /// `None` for literal keys; `Some(suffix)` for interpolated ones.
    suffix: Option<String>,
}

impl EmittedKey {
    fn matches(&self, documented: &str) -> bool {
        match &self.suffix {
            None => self.prefix == documented,
            Some(suffix) => {
                documented.len() >= self.prefix.len() + suffix.len()
                    && documented.starts_with(&self.prefix)
                    && documented.ends_with(suffix.as_str())
            }
        }
    }
}

impl std::fmt::Display for EmittedKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.suffix {
            None => write!(f, "{}", self.prefix),
            Some(suffix) => write!(f, "{}{{…}}{}", self.prefix, suffix),
        }
    }
}

/// JSON keys a fig binary emits: occurrences of `\"<key>\":` inside its
/// format strings (the quotes are escaped in the Rust source).
fn emitted_keys(source: &str) -> BTreeSet<EmittedKey> {
    let mut keys = BTreeSet::new();
    let bytes = source.as_bytes();
    let mut i = 0usize;
    while i + 1 < bytes.len() {
        if bytes[i] != b'\\' || bytes[i + 1] != b'"' {
            i += 1;
            continue;
        }
        let start = i + 2;
        let mut j = start;
        while j + 1 < bytes.len() && !(bytes[j] == b'\\' && bytes[j + 1] == b'"') {
            j += 1;
        }
        if j + 2 < bytes.len() && bytes[j + 2] == b':' {
            let raw = &source[start..j];
            if !raw.is_empty()
                && raw
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_{}".contains(&b))
            {
                let key = match (raw.find('{'), raw.rfind('}')) {
                    (Some(open), Some(close)) if close > open => EmittedKey {
                        prefix: raw[..open].to_string(),
                        suffix: Some(raw[close + 1..].to_string()),
                    },
                    _ => EmittedKey {
                        prefix: raw.to_string(),
                        suffix: None,
                    },
                };
                keys.insert(key);
            }
        }
        i = j + 2;
    }
    keys
}

/// JSON keys documented in a fenced ```json schema block: `"key":`.
fn documented_keys(block: &str) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    let bytes = block.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'"' {
            i += 1;
            continue;
        }
        let start = i + 1;
        let mut j = start;
        while j < bytes.len() && bytes[j] != b'"' {
            j += 1;
        }
        if j + 1 < bytes.len() && bytes[j + 1] == b':' {
            let key = &block[start..j];
            if !key.is_empty() && key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_') {
                keys.insert(key.to_string());
            }
        }
        i = j + 1;
    }
    keys
}

/// The `(fig binary, schema block)` pairs the bench README documents:
/// sections headed ``## `<bin>` and `<BENCH_…>.json` `` followed by a fenced
/// ```json block.
fn readme_schemas(readme: &str) -> Vec<(String, String)> {
    let mut sections = Vec::new();
    let mut current_bin: Option<String> = None;
    let mut in_json = false;
    let mut block = String::new();
    for line in readme.lines() {
        let trimmed = line.trim();
        if let Some(heading) = trimmed.strip_prefix("## `") {
            // `fig_x` and `BENCH_x.json`
            if let Some((bin, rest)) = heading.split_once('`') {
                current_bin = rest.contains(".json").then(|| bin.to_string());
            }
            continue;
        }
        if trimmed == "```json" && current_bin.is_some() {
            in_json = true;
            block.clear();
            continue;
        }
        if in_json {
            if trimmed.starts_with("```") {
                in_json = false;
                if let Some(bin) = current_bin.take() {
                    sections.push((bin, std::mem::take(&mut block)));
                }
            } else {
                block.push_str(line);
                block.push('\n');
            }
        }
    }
    sections
}

/// Checks every documented `BENCH_*.json` schema against the keys its fig
/// binary actually emits.
pub fn check_bench_schemas(root: &Path) -> Vec<Violation> {
    let readme = match read(root, BENCH_README) {
        Ok(readme) => readme,
        Err(violation) => return vec![violation],
    };
    let sections = readme_schemas(&readme);
    if sections.is_empty() {
        return vec![Violation {
            rule: "bench-schema-drift",
            path: BENCH_README.to_string(),
            line: 0,
            message: "no `## \\`fig_…\\` and \\`BENCH_….json\\`` section with a ```json \
                      schema block found"
                .into(),
        }];
    }
    let mut violations = Vec::new();
    for (bin, block) in sections {
        let bin_rel = format!("crates/sitfact-bench/src/bin/{bin}.rs");
        let source = match read(root, &bin_rel) {
            Ok(source) => source,
            Err(violation) => {
                violations.push(violation);
                continue;
            }
        };
        let emitted = emitted_keys(&source);
        let documented = documented_keys(&block);
        for key in &documented {
            if !emitted.iter().any(|e| e.matches(key)) {
                violations.push(Violation {
                    rule: "bench-schema-drift",
                    path: BENCH_README.to_string(),
                    line: 0,
                    message: format!(
                        "schema for `{bin}` documents key \"{key}\", which {bin_rel} never \
                         emits"
                    ),
                });
            }
        }
        for key in &emitted {
            if !documented.iter().any(|d| key.matches(d)) {
                violations.push(Violation {
                    rule: "bench-schema-drift",
                    path: bin_rel.clone(),
                    line: 0,
                    message: format!(
                        "emits key \"{key}\", which the `{bin}` schema in {BENCH_README} \
                         does not document"
                    ),
                });
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn md_names_skip_globs_urls_and_longer_extensions() {
        let text = "see `ROADMAP.md`, ../a/B.md's table, *.md, <https://x.org/C.md>, D.mdx";
        assert_eq!(md_names(text), vec!["ROADMAP.md", "../a/B.md"]);
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

    #[test]
    fn emitted_keys_handle_interpolation() {
        let source = r#"format!("{{\"bench\": 1, \"speedup_at_{n}_shards\": {{}}}}")"#;
        let keys = emitted_keys(source);
        assert!(keys.iter().any(|k| k.matches("bench")));
        assert!(keys.iter().any(|k| k.matches("speedup_at_4_shards")));
        assert!(!keys.iter().any(|k| k.matches("speedup_elsewhere")));
    }

    #[test]
    fn documented_keys_skip_values_and_comments() {
        let block = "{\n  \"bench\": \"ingest\",   // the experiment\n  \"n\": 5\n}\n";
        let keys = documented_keys(block);
        assert_eq!(keys.len(), 2);
        assert!(keys.contains("bench") && keys.contains("n"));
        assert!(!keys.contains("ingest"));
    }
}
