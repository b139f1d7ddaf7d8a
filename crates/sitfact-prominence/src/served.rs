//! [`Served`]: the one monitor type a server runs — the paper's `STopDown`
//! (Alg. 6 with subspace sharing) over one table or across shards. The shape
//! is chosen where the monitor is built; the
//! [`ArrivalPipeline`](crate::ArrivalPipeline) and the `sitfact-serve` engine
//! hold a `Served` and never branch on it. Each method is one `match`.

use crate::durable::{self, ReplayOutcome};
use crate::fact::ArrivalReport;
use crate::monitor::{FactMonitor, MonitorStats};
use crate::sharded::ShardedMonitor;
use sitfact_algos::STopDown;
use sitfact_core::{Result, Schema, SitFactError, Tuple, TupleId};
use std::path::Path;

/// A served monitor: an unsharded [`FactMonitor`] or a [`ShardedMonitor`],
/// both running `STopDown`. `tests/stream_monitor.rs` drives both arms.
#[derive(Debug)]
#[expect(
    clippy::large_enum_variant,
    reason = "one value per tenant, moved only when the tenant is installed"
)]
pub enum Served {
    /// One table, one algorithm instance.
    Plain(FactMonitor<STopDown>),
    /// Arrivals partitioned across shards by a routing attribute.
    Sharded(ShardedMonitor<STopDown>),
}

impl From<FactMonitor<STopDown>> for Served {
    fn from(monitor: FactMonitor<STopDown>) -> Self {
        Served::Plain(monitor)
    }
}

impl From<ShardedMonitor<STopDown>> for Served {
    fn from(monitor: ShardedMonitor<STopDown>) -> Self {
        Served::Sharded(monitor)
    }
}

impl Served {
    /// The schema the monitor ingests against.
    pub fn schema(&self) -> &Schema {
        match self {
            Served::Plain(m) => m.schema(),
            Served::Sharded(m) => m.schema(),
        }
    }

    /// Number of tuples ingested so far.
    pub fn len(&self) -> usize {
        match self {
            Served::Plain(m) => m.len(),
            Served::Sharded(m) => m.len(),
        }
    }

    /// Whether no tuple was ingested yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Interns a raw row against the schema and validates it, without
    /// ingesting.
    pub fn encode_raw(&mut self, dims: &[&str], measures: Vec<f64>) -> Result<Tuple> {
        match self {
            Served::Plain(m) => m.encode_raw(dims, measures),
            Served::Sharded(m) => m.encode_raw(dims, measures),
        }
    }

    /// Ingests one encoded tuple and reports its ranked facts.
    pub fn ingest(&mut self, tuple: Tuple) -> Result<ArrivalReport> {
        match self {
            Served::Plain(m) => m.ingest(tuple),
            Served::Sharded(m) => m.ingest(tuple),
        }
    }

    /// Ingests a window through the batched path: the reports a sequential
    /// [`Served::ingest`] loop would produce, all-or-nothing on validation.
    pub fn ingest_batch_slice(&mut self, tuples: &[Tuple]) -> Result<Vec<ArrivalReport>> {
        match self {
            Served::Plain(m) => m.ingest_batch_slice(tuples),
            Served::Sharded(m) => m.ingest_batch_slice(tuples),
        }
    }

    /// Retracts every tuple below the watermark target `up_to`. A sharded
    /// monitor has no retraction path and refuses with a typed
    /// `InvalidConfig`, touching nothing.
    pub fn evict_prefix(&mut self, up_to: TupleId) -> Result<usize> {
        match self {
            Served::Plain(m) => m.evict_prefix(up_to),
            Served::Sharded(_) => Err(SitFactError::InvalidConfig(
                "a sharded monitor does not support retraction (evict_prefix)".to_string(),
            )),
        }
    }

    /// The monitor's counters as one owned record.
    pub fn stats(&self) -> MonitorStats {
        match self {
            Served::Plain(m) => m.stats(),
            Served::Sharded(m) => m.stats(),
        }
    }

    /// Replays the **entire** raw arrival log in `dir`, ignoring snapshots
    /// (they are shaped for the monitor that wrote them). This is the
    /// resharding path: a log written by any monitor over the relation
    /// replays into a monitor of any shape — another shard count included —
    /// and reproduces the reports the original acknowledged. The monitor
    /// must be empty, or hold a prefix of the log that ends at a window edge.
    pub fn replay(&mut self, dir: impl AsRef<Path>) -> Result<ReplayOutcome> {
        durable::replay_windows(dir.as_ref(), self.len(), |window| {
            let tuples = durable::encode_window(self.len(), window, |dims, measures| {
                self.encode_raw(dims, measures)
            })?;
            self.ingest_batch_slice(&tuples)
        })
    }
}

/// The audit of the monitor behind either arm.
#[cfg(any(test, debug_assertions, feature = "deep-audit"))]
impl sitfact_core::Audit for Served {
    fn check(&self) -> std::result::Result<(), sitfact_core::AuditViolation> {
        match self {
            Served::Plain(m) => m.check(),
            Served::Sharded(m) => m.check(),
        }
    }
}
