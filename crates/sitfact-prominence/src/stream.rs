//! The [`StreamMonitor`] trait: one ingest surface for every monitor.
//!
//! Anything generic — the network front-end, a bench driver, a property
//! test — holds "some monitor" through this trait. Implementations own a
//! small required core (encode, per-arrival ingest, batched slice ingest,
//! read access to schema / config / size); every convenience form is a
//! *provided* method with one shared definition. The trait is **object-safe**:
//! `Box<dyn StreamMonitor>` is what the `sitfact-serve` front-end serves, so
//! sharded vs unsharded is a construction-time choice, not a code path.
//!
//! # The one wrapper
//!
//! [`ArrivalPipeline`](crate::ArrivalPipeline) is the only wrapper: the
//! window and the write-ahead log are stages of it, not layers. It forwards
//! the five read and encode methods and `export_durable`, runs `ingest` and
//! `ingest_batch_slice` through its stages, and *amends* the inner
//! [`MonitorStats`] with its log counters rather than forwarding counters
//! one by one. It never overrides `is_empty` / `ingest_raw` /
//! `ingest_batch` / `ingest_all`.
//!
//! Three capabilities stay refusing-by-default trait methods rather than
//! traits of their own: `evict_prefix`, `export_durable` and
//! `restore_durable`. A [`FactMonitor`](crate::FactMonitor) can only answer
//! them at run time (its algorithm may refuse retraction or export), and the
//! server holds a `Box<dyn StreamMonitor + Send>`, so a capability trait
//! would add a second object type and still keep the run-time refusal. A
//! default that refuses means a capability nobody implemented is never
//! silently ignored.

use crate::fact::ArrivalReport;
use crate::monitor::MonitorConfig;
use sitfact_core::{Result, Schema, SitFactError, Tuple, TupleId, TupleRef};
use sitfact_storage::{PostingIndexStats, WalStats};

/// A monitor's externally visible counters as plain owned values, assembled
/// by [`StreamMonitor::stats`] — the one record the serving layer publishes
/// into a [`SnapshotCell`](sitfact_core::snapshot::SnapshotCell) after every
/// ingest, so `STATS`-style reads never touch the ingest path.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorStats {
    /// Number of tuples ingested so far.
    pub len: usize,
    /// The schema's relation name.
    pub schema_name: String,
    /// The prominence threshold τ.
    pub tau: f64,
    /// Per-arrival fact-retention cap, if configured.
    pub keep_top: Option<usize>,
    /// Anchored dimension index, if the discovery config carries one.
    pub anchor_dim: Option<usize>,
    /// Posting-index footprint (a sharded monitor sums its shards).
    pub postings: PostingIndexStats,
    /// Write-ahead-log counters (all zero without a logged pipeline).
    pub wal: WalStats,
    /// Tuples still answering queries (`len` minus everything retracted).
    pub live_rows: usize,
    /// Retracted tuples still physically present (awaiting compaction).
    pub tombstones: usize,
    /// Retracted tuples physically dropped by compaction.
    pub evicted: usize,
}

impl MonitorStats {
    /// The record of a monitor with no index, no log and no retraction path:
    /// identity fields filled in, every row live, every counter zero.
    pub fn new(schema: &Schema, config: &MonitorConfig, len: usize) -> Self {
        MonitorStats {
            len,
            schema_name: schema.name().to_string(),
            tau: config.tau,
            keep_top: config.keep_top,
            anchor_dim: config.discovery.anchor_dim,
            postings: PostingIndexStats::default(),
            wal: WalStats::default(),
            live_rows: len,
            tombstones: 0,
            evicted: 0,
        }
    }
}

/// A monitor that turns a stream of tuples into per-arrival fact reports.
///
/// The batched slice form is required rather than the owned form because the
/// columnar tables copy values out of the window anyway — borrowing is the
/// fundamental operation, owning is the convenience.
///
/// The trait is object-safe; generic drivers take `&mut dyn StreamMonitor`:
///
/// ```
/// use sitfact_core::{Direction, DiscoveryConfig, SchemaBuilder};
/// use sitfact_algos::STopDown;
/// use sitfact_prominence::{FactMonitor, MonitorConfig, ShardedMonitor, StreamMonitor};
///
/// fn feed(monitor: &mut dyn StreamMonitor) -> usize {
///     monitor.ingest_raw(&["Wesley", "Celtics"], vec![12.0]).unwrap();
///     monitor.ingest_raw(&["Sherman", "Hawks"], vec![9.0]).unwrap();
///     monitor.len()
/// }
///
/// let schema = SchemaBuilder::new("gamelog")
///     .dimension("player")
///     .dimension("team")
///     .measure("points", Direction::HigherIsBetter)
///     .build()
///     .unwrap();
/// let config = MonitorConfig::default().with_tau(1.0);
/// let mut flat: Box<dyn StreamMonitor> = Box::new(FactMonitor::new(
///     schema.clone(),
///     STopDown::new(&schema, config.discovery),
///     config,
/// ));
/// let mut sharded: Box<dyn StreamMonitor> =
///     Box::new(ShardedMonitor::by_attribute(schema, "team", 2, config, STopDown::new).unwrap());
/// assert_eq!(feed(flat.as_mut()), 2);
/// assert_eq!(feed(sharded.as_mut()), 2);
/// ```
pub trait StreamMonitor {
    /// The schema the monitor ingests against (grows as raw rows intern new
    /// dimension values).
    fn schema(&self) -> &Schema;

    /// The monitor configuration (for a sharded monitor: the effective,
    /// anchored configuration every shard runs).
    fn config(&self) -> &MonitorConfig;

    /// Number of tuples ingested so far.
    fn len(&self) -> usize;

    /// Zero-copy view of a live tuple by its (global) id, if there is one.
    fn tuple(&self, tuple_id: TupleId) -> Option<TupleRef<'_>>;

    /// Interns a raw row against [`StreamMonitor::schema`] and validates it,
    /// without ingesting — the encoding half of [`StreamMonitor::ingest_raw`],
    /// for callers assembling a window for [`StreamMonitor::ingest_batch`].
    fn encode_raw(&mut self, dims: &[&str], measures: Vec<f64>) -> Result<Tuple>;

    /// Ingests one already-encoded tuple and reports its ranked facts.
    fn ingest(&mut self, tuple: Tuple) -> Result<ArrivalReport>;

    /// Ingests a whole window of arrivals through the implementation's
    /// batched fast path, returning exactly the reports a sequential
    /// [`StreamMonitor::ingest`] loop would produce, in the same order.
    ///
    /// The batch is all-or-nothing: if any tuple fails validation, no tuple
    /// of the window is ingested.
    fn ingest_batch_slice(&mut self, tuples: &[Tuple]) -> Result<Vec<ArrivalReport>>;

    /// Whether no tuple was ingested yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Retracts every tuple with id below `up_to` (a *watermark target*, not
    /// a count: retracting to an already-passed watermark is a no-op).
    /// Returns the number of tuples newly retracted.
    ///
    /// The eviction stage of an [`ArrivalPipeline`](crate::ArrivalPipeline)
    /// calls this at window boundaries. The default refuses: a monitor must
    /// opt into retraction by overriding, so a window policy can never be
    /// silently ignored.
    fn evict_prefix(&mut self, up_to: TupleId) -> Result<usize> {
        let _ = up_to;
        Err(SitFactError::InvalidConfig(
            "this monitor does not support retraction (evict_prefix)".to_string(),
        ))
    }

    /// Ingests a tuple given as raw dimension strings plus measures.
    fn ingest_raw(&mut self, dims: &[&str], measures: Vec<f64>) -> Result<ArrivalReport> {
        let tuple = self.encode_raw(dims, measures)?;
        self.ingest(tuple)
    }

    /// Owned-window form of [`StreamMonitor::ingest_batch_slice`] — a thin
    /// wrapper, kept because windows are naturally assembled as `Vec<Tuple>`.
    /// No implementation overrides it.
    fn ingest_batch(&mut self, tuples: Vec<Tuple>) -> Result<Vec<ArrivalReport>> {
        self.ingest_batch_slice(&tuples)
    }

    /// Ingests a batch through the sequential per-arrival path, one report
    /// per tuple. Prefer [`StreamMonitor::ingest_batch`], which produces
    /// identical reports faster; this loop is the ground truth the
    /// batch-equivalence tests compare against.
    fn ingest_all(&mut self, tuples: Vec<Tuple>) -> Result<Vec<ArrivalReport>> {
        tuples.into_iter().map(|t| self.ingest(t)).collect()
    }

    /// The monitor's counters as one owned record. A monitor overrides the
    /// fields it owns over [`MonitorStats::new`]; the pipeline amends its
    /// inner record (`MonitorStats { wal: …, ..self.inner.stats() }`), so a
    /// new counter is a new field here, not a new trait method.
    fn stats(&self) -> MonitorStats {
        MonitorStats::new(self.schema(), self.config(), self.len())
    }

    /// Serializes the monitor's full state (table with dictionaries and
    /// native posting layout, plus the algorithm's skyline-store cells) for
    /// a crash-recovery snapshot, or `None` when this monitor cannot export
    /// full state (the default; a [`ShardedMonitor`](crate::ShardedMonitor)
    /// also returns `None` — its durable form is the raw arrival log, which
    /// replays into any shard count). Recovery falls back to full-log replay
    /// when export is unsupported.
    fn export_durable(&self) -> Option<Vec<u8>> {
        None
    }

    /// Replaces the monitor's state with a snapshot produced by
    /// [`StreamMonitor::export_durable`].
    ///
    /// Returns `Ok(true)` when the state was restored, `Ok(false)` when this
    /// monitor does not support snapshot restore (the monitor is untouched
    /// and the caller falls back to full-log replay), and `Err` when the
    /// snapshot is corrupt or shaped for a different monitor (the monitor is
    /// again untouched — restore is all-or-nothing).
    fn restore_durable(&mut self, snapshot: &[u8]) -> Result<bool> {
        let _ = snapshot;
        Ok(false)
    }
}

/// Forwarding impl so a boxed monitor *is* a monitor — this is what lets an
/// [`ArrivalPipeline`](crate::ArrivalPipeline) run the serve layer's
/// `Box<dyn StreamMonitor + Send>` tenants without knowing the concrete
/// type. Every method forwards, provided ones included.
impl<M: StreamMonitor + ?Sized> StreamMonitor for Box<M> {
    fn schema(&self) -> &Schema {
        (**self).schema()
    }

    fn config(&self) -> &MonitorConfig {
        (**self).config()
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn tuple(&self, tuple_id: TupleId) -> Option<TupleRef<'_>> {
        (**self).tuple(tuple_id)
    }

    fn encode_raw(&mut self, dims: &[&str], measures: Vec<f64>) -> Result<Tuple> {
        (**self).encode_raw(dims, measures)
    }

    fn ingest(&mut self, tuple: Tuple) -> Result<ArrivalReport> {
        (**self).ingest(tuple)
    }

    fn ingest_batch_slice(&mut self, tuples: &[Tuple]) -> Result<Vec<ArrivalReport>> {
        (**self).ingest_batch_slice(tuples)
    }

    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }

    fn evict_prefix(&mut self, up_to: TupleId) -> Result<usize> {
        (**self).evict_prefix(up_to)
    }

    fn ingest_raw(&mut self, dims: &[&str], measures: Vec<f64>) -> Result<ArrivalReport> {
        (**self).ingest_raw(dims, measures)
    }

    fn ingest_batch(&mut self, tuples: Vec<Tuple>) -> Result<Vec<ArrivalReport>> {
        (**self).ingest_batch(tuples)
    }

    fn ingest_all(&mut self, tuples: Vec<Tuple>) -> Result<Vec<ArrivalReport>> {
        (**self).ingest_all(tuples)
    }

    fn stats(&self) -> MonitorStats {
        (**self).stats()
    }

    fn export_durable(&self) -> Option<Vec<u8>> {
        (**self).export_durable()
    }

    fn restore_durable(&mut self, snapshot: &[u8]) -> Result<bool> {
        (**self).restore_durable(snapshot)
    }
}
