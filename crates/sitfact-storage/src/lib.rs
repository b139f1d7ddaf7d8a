//! # sitfact-storage
//!
//! Storage substrates for incremental situational-fact discovery:
//!
//! * [`Table`] — the append-only relation `R` holding the historical tuples,
//!   column-wise, with a per-dimension index of sorted id lists derived from
//!   its columns (rebuilt, not serialized, when a snapshot is restored);
//! * [`ContextCounter`] — incremental maintenance of the context cardinalities
//!   `|σ_C(R)|` needed by the prominence measure;
//! * [`SkylineStore`] — the `µ_{C,M}` abstraction of the paper (one cell of
//!   skyline tuple ids per constraint–measure pair; the measures stay in the
//!   [`Table`]) with an in-memory backend
//!   ([`MemorySkylineStore`]) and a file-backed backend ([`FileSkylineStore`],
//!   Section VI-C of the paper);
//! * [`KdTree`] — the k-d tree used by the `BaselineIdx` algorithm for
//!   one-sided ("who dominates me") range queries over the measure space;
//! * [`WorkStats`] / [`StoreStats`] — the counters behind the paper's
//!   work/memory experiments (Figs. 10–11);
//! * [`wal`] — the write-ahead arrival log and the snapshot state codecs
//!   behind the durability layer (checksummed frames, segmented log files,
//!   torn-tail truncation, native table/store serialization).

#![warn(missing_docs)]

#[doc(hidden)]
pub mod compat;
pub mod context;
pub mod file_store;
mod heap;
pub mod kdtree;
pub mod memory_store;
pub mod stats;
pub mod store;
pub mod table;
pub mod wal;

pub use context::ContextCounter;
pub use file_store::FileSkylineStore;
pub use kdtree::KdTree;
pub use memory_store::MemorySkylineStore;
pub use stats::{StoreStats, WorkStats};
pub use store::{RowId, SkylineStore, StoreCell};
pub use table::{PostingIndexStats, Table};
pub use wal::{ArrivalLog, LoggedRow, ScannedLog, SyncPolicy, WalStats, WindowRecord};
