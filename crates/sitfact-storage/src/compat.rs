//! Names the end-to-end benchmark under `crates/sitfact-bench/src/bin/bench_e2e/`
//! still imports or calls, kept so its frozen sources compile. Nothing else may name
//! them, and the `compat-drift` rule of `sitfact-audit` fails any entry the
//! benchmark no longer names.

use crate::table::Table;

/// The old name of the logged row: one raw arrival, [`RawRow`](sitfact_core::RawRow).
pub type LoggedRow = sitfact_core::RawRow;

impl Table {
    /// Does nothing: posting lists are plain sorted id vectors, with no
    /// tails to seal.
    pub fn compact_postings(&mut self) {}
}
