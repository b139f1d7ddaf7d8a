//! Fixture protocol module: the verb constants mirror the real crate's, so
//! every `grammar-drift` finding against this tree comes from the drifted
//! fixture ROADMAP, not from here.

/// Request verbs, as in the real `sitfact-serve::protocol`.
pub const REQUEST_VERBS: [&str; 6] =
    ["PING", "STATS", "SHUTDOWN", "TOPK", "INGEST", "INGEST_BATCH"];

/// Response verbs, as in the real `sitfact-serve::protocol`.
pub const RESPONSE_VERBS: [&str; 6] = ["PONG", "BYE", "STATS", "REPORT", "REPORTS", "ERR"];
