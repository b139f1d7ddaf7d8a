//! Names the end-to-end benchmark under `crates/sitfact-bench/src/bin/bench_e2e/`
//! still imports, kept so its frozen sources compile. Nothing else may name
//! them, and the `compat-drift` rule of `sitfact-audit` fails any entry the
//! benchmark no longer names.

use crate::server::ServerOptions;

/// Leftover of the engine selector: there is one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// The shared-nothing engine — the only one.
    Owned,
}

impl ServerOptions {
    /// Does nothing: there is one engine.
    pub fn with_mode(self, _mode: ServeMode) -> Self {
        self
    }
}
