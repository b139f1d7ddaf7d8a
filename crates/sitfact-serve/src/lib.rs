//! # sitfact-serve
//!
//! A TCP service front-end for the fact monitors — the paper's deployment
//! story (a news organisation continuously feeds box scores / forecasts /
//! ticks into the monitor and receives ranked situational facts per arrival)
//! as an actual network service.
//!
//! * [`FactServer`] hosts named **tenants** — independent
//!   `Box<dyn StreamMonitor + Send>` monitors clients create over the wire
//!   (`OPEN`) and select per connection (`USE`), plus the default tenant the
//!   server was bound with. Sharded vs unsharded is a construction-time flag
//!   of whoever builds a monitor, never a code path in here. Connections are
//!   framed on the vendored [`ThreadPool`](sitfact_core::pool::ThreadPool)
//!   (no async runtime exists in this offline workspace); past the parser,
//!   one shared-nothing engine gives every monitor to exactly one worker of
//!   an [`ActorPool`](sitfact_core::ActorPool) — ingests travel through the
//!   owner's mailbox, `STATS`/`TOPK` reads come from the snapshot the owner
//!   last published in a [`SnapshotCell`](sitfact_core::SnapshotCell) and
//!   never touch the owning worker.
//! * [`Client`] is the matching blocking client; reports it returns are
//!   byte-identical to what the server-side monitor produced.
//! * [`protocol`] defines the wire format: length-prefixed frames around a
//!   small TAB/LF text grammar (`PING` / `STATS` / `TOPK` / `INGEST` /
//!   `INGEST_BATCH` / `OPEN` / `USE` / `CLOSE` / `SHUTDOWN`) — see the
//!   module docs for the full grammar, also reproduced in the repository's
//!   ROADMAP.
//! * Durability is opt-in via
//!   [`ServerOptions::with_data_dir`](server::ServerOptions::with_data_dir):
//!   every tenant's [`ArrivalPipeline`](sitfact_prominence::ArrivalPipeline)
//!   is then logged — each accepted window is appended to a checksummed
//!   write-ahead log *before* it is acknowledged, binding recovers the
//!   default tenant, and `OPEN` of a tenant whose directory already exists
//!   replays it back to life. The `STATS` verb reports the per-tenant WAL
//!   counters.
//!
//! The crate ships two demo binaries: `sitfact_serve` (stand up a server
//! over a synthetic-NBA monitor) and `sitfact_client` (stream rows into it
//! and print a summary) — together they form the CI smoke test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod client;
pub mod error;
pub mod protocol;
pub mod server;
mod tenant;

pub use client::Client;
pub use error::ServeError;
pub use protocol::{RawRow, Request, Response, ServerStats, TenantSpec};
#[doc(hidden)]
pub use server::ServeMode;
pub use server::{FactServer, ServerHandle, ServerOptions};
// The durability knobs [`ServerOptions::wal`] is made of, re-exported so
// server embedders configure the WAL without naming another crate.
pub use sitfact_prominence::{SyncPolicy, WalOptions};
