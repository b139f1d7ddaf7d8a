//! # sitfact-prominence
//!
//! Prominence ranking and reporting of situational facts (Section VII of the
//! paper).
//!
//! A newly arrived tuple may enter the contextual skylines of hundreds of
//! constraint–measure pairs; reporting all of them buries the newsworthy ones.
//! The paper measures the **prominence** of a fact `(C, M)` as
//! `|σ_C(R)| / |λ_M(σ_C(R))|` — how many tuples the context holds per skyline
//! tuple — ranks the facts of each arrival in descending prominence, and calls
//! *prominent* those that attain the maximum and clear a threshold `τ`.
//!
//! [`FactMonitor`] is the central type: it owns the append-only table, a
//! [`ContextCounter`](sitfact_storage::ContextCounter), and any
//! [`Discovery`](sitfact_algos::Discovery) algorithm, and turns a stream of
//! raw tuples into a stream of [`ArrivalReport`]s. [`ShardedMonitor`]
//! partitions that stream by a routing attribute across independent
//! `FactMonitor` shards and fans batched windows out in parallel — provably
//! equivalent to an unsharded monitor over the anchored constraint space (see
//! the [`sharded`] module docs for the soundness argument). A server runs
//! one type, [`Served`]: either of the two over the paper's `STopDown`.
//! [`ArrivalPipeline`] runs a served monitor's arrivals through the stages a
//! deployment adds: a sliding window of recent arrivals, retracted at batch
//! boundaries, and a write-ahead arrival log with snapshot-bounded crash
//! recovery (see the [`pipeline`] and [`durable`] module docs).
//! [`DistributionStats`]
//! accumulates the figures of the paper's case study (Figs. 14–15), and
//! [`narrate()`] renders facts as English sentences in the style of the
//! paper's examples.

#![warn(missing_docs)]

#[doc(hidden)]
pub mod compat;
pub mod distribution;
pub mod durable;
pub mod fact;
pub mod monitor;
pub mod narrate;
pub mod pipeline;
pub mod served;
pub mod sharded;

#[doc(hidden)]
pub use compat::*;
pub use distribution::DistributionStats;
pub use durable::{RecoveryReport, ReplayOutcome, WalOptions};
pub use fact::{ArrivalReport, RankedFact};
pub use monitor::{FactMonitor, MonitorConfig, MonitorStats};
pub use narrate::narrate;
pub use pipeline::{ArrivalPipeline, WindowPolicy};
pub use served::Served;
pub use sharded::ShardedMonitor;
// The WAL types that cross the serve boundary (`STATS` counters, sync
// policy), re-exported so the serving layer needs no direct storage
// dependency.
pub use sitfact_storage::{SyncPolicy, WalStats};
