//! Fixture for the `doc-link-drift` rule.
//!
//! Resolved: `ROADMAP.md` at the root, `../../../ROADMAP.md` from here.
//! Not names: `*.md`, <https://example.org/GUIDE.md>.
//! Dangling: the design is in DESIGN.md.

// A plain comment naming NOWHERE.md is not documentation.
pub fn linked() {}
