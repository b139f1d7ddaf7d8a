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
//! The central abstraction is the [`StreamMonitor`] trait — the one,
//! object-safe ingest surface every monitor implements, and the type
//! (`Box<dyn StreamMonitor>`) a generic driver such as the `sitfact-serve`
//! TCP front-end holds. [`FactMonitor`] is its canonical implementation: it
//! owns the append-only table, a
//! [`ContextCounter`](sitfact_storage::ContextCounter), and any
//! [`Discovery`](sitfact_algos::Discovery) algorithm, and turns a stream of
//! raw tuples into a stream of [`ArrivalReport`]s. [`ShardedMonitor`]
//! partitions that stream by a routing attribute across independent
//! `FactMonitor` shards and fans batched windows out in parallel — provably
//! equivalent to an unsharded monitor over the anchored constraint space (see
//! the [`sharded`] module docs for the soundness argument).
//! [`ArrivalPipeline`] runs any monitor's arrivals through the stages a
//! deployment adds: a sliding window of recent arrivals, retracted at batch
//! boundaries, and a write-ahead arrival log with snapshot-bounded crash
//! recovery (see the [`pipeline`] and [`durable`] module docs).
//! [`DistributionStats`]
//! accumulates the figures of the paper's case study (Figs. 14–15), and
//! [`narrate()`] renders facts as English sentences in the style of the
//! paper's examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distribution;
pub mod durable;
pub mod fact;
pub mod monitor;
pub mod narrate;
pub mod pipeline;
pub mod sharded;
pub mod stream;

pub use distribution::DistributionStats;
pub use durable::{replay_log, RecoveryReport, ReplayOutcome, WalOptions};
pub use fact::{ArrivalReport, RankedFact};
pub use monitor::{FactMonitor, MonitorConfig};
pub use narrate::narrate;
#[doc(hidden)]
pub use pipeline::WindowedMonitor;
pub use pipeline::{ArrivalPipeline, WindowPolicy};
pub use sharded::ShardedMonitor;
pub use stream::{MonitorStats, StreamMonitor};
// The WAL types that cross the serve boundary (`STATS` counters, sync
// policy), re-exported so the serving layer needs no direct storage
// dependency.
pub use sitfact_storage::{SyncPolicy, WalStats};
