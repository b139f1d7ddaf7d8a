//! # situational-facts
//!
//! A Rust implementation of **incremental discovery of prominent situational
//! facts** (Sultana, Hassan, Li, Yang, Yu — ICDE 2014): watch an append-only
//! table and, for every arriving tuple, find the contexts and measure
//! combinations in which it stands out against all of history, ranked by how
//! rare such a standing is.
//!
//! This facade crate re-exports the whole public API of the workspace:
//!
//! * [`core`] — schemas, tuples, constraints, measure subspaces, dominance;
//! * [`storage`] — the append-only table, skyline stores and k-d tree;
//! * [`algos`] — the discovery algorithms (`BottomUp`, `TopDown`, shared and
//!   file-backed variants, plus the paper's baselines);
//! * [`prominence`] — prominence ranking, thresholds and narration: the
//!   [`FactMonitor`](prominence::FactMonitor), its sharded form, the
//!   [`Served`](prominence::Served) type a server runs (either of the two
//!   over `STopDown`), and [`ArrivalPipeline`](prominence::ArrivalPipeline),
//!   which runs a served monitor's arrivals through a sliding window and a
//!   write-ahead log for snapshot-bounded crash recovery;
//! * [`serve`] — the framed-TCP, multi-tenant service front-end (server +
//!   client) over `Served` monitors, durable when bound with a data
//!   directory;
//! * [`datagen`] — synthetic NBA / weather / stock workloads and CSV IO.
//!
//! ## Quickstart
//!
//! A raw row is validated, then interned
//! ([`Schema::encode_rows`](core::Schema::encode_rows)). A monitor is fed
//! `encode_raw` then `ingest` for one row (`ingest_raw` does both) and
//! `ingest_batch_slice` for amortised windows — identically on a
//! `FactMonitor` and a [`ShardedMonitor`](prominence::ShardedMonitor); a
//! [`Served`](prominence::Served) monitor encodes with `encode_rows`, and an
//! `ArrivalPipeline` takes the raw rows (`ingest_rows`) and logs them as
//! received. On the wire, one
//! [`FactServer`](serve::FactServer) multiplexes many such monitors: a client `OPEN`s a named *tenant* (its own
//! schema, threshold and discovery caps — see [`TenantSpec`](serve::TenantSpec))
//! and `USE`s it, each tenant owned by a server worker and read through the
//! snapshots it publishes, so independent streams never share state.
//!
//! ```
//! use situational_facts::prelude::*;
//!
//! // A table of basketball box scores: who did what, against whom.
//! let schema = SchemaBuilder::new("gamelog")
//!     .dimension("player")
//!     .dimension("team")
//!     .dimension("opp_team")
//!     .measure("points", Direction::HigherIsBetter)
//!     .measure("assists", Direction::HigherIsBetter)
//!     .measure("rebounds", Direction::HigherIsBetter)
//!     .build()
//!     .unwrap();
//!
//! // STopDown is the paper's most scalable algorithm; the monitor ranks the
//! // discovered facts by prominence.
//! let algo = STopDown::new(&schema, DiscoveryConfig::unrestricted());
//! let mut monitor = FactMonitor::new(schema, algo, MonitorConfig::default().with_tau(2.0));
//!
//! monitor.ingest_raw(&["Bogues", "Hornets", "Hawks"], vec![4.0, 12.0, 5.0]).unwrap();
//! monitor.ingest_raw(&["Seikaly", "Heat", "Hawks"], vec![24.0, 5.0, 15.0]).unwrap();
//! let report = monitor
//!     .ingest_raw(&["Wesley", "Celtics", "Nets"], vec![12.0, 13.0, 5.0])
//!     .unwrap();
//! assert!(!report.facts.is_empty());
//! for fact in report.top_k(3) {
//!     println!("{}", fact.display(monitor.table().schema()));
//! }
//!
//! // High-throughput feeds ingest whole windows at once: the batch is
//! // appended in one amortised pass, yet every arrival is discovered and
//! // ranked against exactly the rows that preceded it — the reports are
//! // identical to a sequential `ingest` loop, just faster.
//! let window = vec![
//!     monitor.encode_raw(&["Bogues", "Hornets", "Magic"], vec![8.0, 14.0, 4.0]).unwrap(),
//!     monitor.encode_raw(&["Wesley", "Celtics", "Hawks"], vec![14.0, 11.0, 6.0]).unwrap(),
//! ];
//! let reports = monitor.ingest_batch_slice(&window).unwrap();
//! assert_eq!(reports.len(), 2);
//! ```

#![warn(missing_docs)]

pub use sitfact_algos as algos;
pub use sitfact_core as core;
pub use sitfact_datagen as datagen;
pub use sitfact_prominence as prominence;
pub use sitfact_serve as serve;
pub use sitfact_storage as storage;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use sitfact_algos::{
        AlgorithmKind, BaselineIdx, BaselineSeq, BottomUp, BruteForce, CCsc, Discovery, FsBottomUp,
        FsTopDown, SBottomUp, STopDown, TopDown,
    };
    pub use sitfact_core::{
        Audit, AuditViolation, BoundMask, Constraint, ConstraintLattice, Dictionary, Direction,
        DiscoveryConfig, RawRow, Schema, SchemaBuilder, SkylinePair, SubspaceMask, Tuple, TupleId,
        TupleRef, TupleView,
    };
    pub use sitfact_datagen::{shuffle_rows, DataGenerator, ShuffledReplay};
    pub use sitfact_prominence::{
        narrate, ArrivalPipeline, ArrivalReport, DistributionStats, FactMonitor, MonitorConfig,
        RankedFact, RecoveryReport, ReplayOutcome, Served, ShardedMonitor, WalOptions,
        WindowPolicy,
    };
    pub use sitfact_serve::{
        Client, FactServer, ServeError, ServerHandle, ServerOptions, TenantSpec,
    };
    pub use sitfact_storage::{
        ContextCounter, FileSkylineStore, KdTree, MemorySkylineStore, SkylineStore, StoreStats,
        SyncPolicy, Table, WalStats, WorkStats,
    };
}
