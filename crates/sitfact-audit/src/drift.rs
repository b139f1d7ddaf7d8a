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

use crate::lexer::lex;
use crate::rules::Violation;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const ROADMAP: &str = "ROADMAP.md";
const PROTOCOL: &str = "crates/sitfact-serve/src/protocol.rs";

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
}
