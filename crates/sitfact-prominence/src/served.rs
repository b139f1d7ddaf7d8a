//! [`Served`]: the one monitor type a server runs — the paper's `STopDown`
//! (Alg. 6 with subspace sharing) over one table or across shards. The shape
//! is chosen where the monitor is built; the
//! [`ArrivalPipeline`](crate::ArrivalPipeline) and the `sitfact-serve` engine
//! hold a `Served` and never branch on it. Each method is one `match`, the
//! snapshot decision included: the sharded arm has no snapshot form.

use crate::fact::ArrivalReport;
use crate::monitor::{FactMonitor, MonitorStats};
use crate::sharded::ShardedMonitor;
use sitfact_algos::STopDown;
use sitfact_core::{RawRow, Result, Schema, SitFactError, Tuple, TupleId};

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

    /// Validates a window of raw rows against the schema, then interns it
    /// ([`Schema::encode_rows`]), without ingesting.
    pub fn encode_rows(&mut self, rows: &[RawRow]) -> Result<Vec<Tuple>> {
        match self {
            Served::Plain(m) => m.schema_mut().encode_rows(rows),
            Served::Sharded(m) => m.schema_mut().encode_rows(rows),
        }
    }

    /// Ingests a window — a single row is a window of one — and reports each
    /// arrival's ranked facts, in order, all-or-nothing on validation.
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

    /// Whether the monitor's state has a snapshot form: the unsharded arm's
    /// does; a sharded monitor's durability is its arrival log alone.
    pub fn can_snapshot(&self) -> bool {
        matches!(self, Served::Plain(_))
    }

    /// The monitor's full state as a snapshot blob
    /// ([`FactMonitor::export_durable`]); `None` for a monitor without a
    /// snapshot form.
    pub fn export_durable(&self) -> Result<Option<Vec<u8>>> {
        match self {
            Served::Plain(m) => m.export_durable(),
            Served::Sharded(_) => Ok(None),
        }
    }

    /// [`FactMonitor::restore_durable`] of a blob [`Served::export_durable`]
    /// wrote; a sharded monitor refuses with a typed `InvalidConfig`.
    pub fn restore_durable(&mut self, blob: &[u8]) -> Result<()> {
        match self {
            Served::Plain(m) => m.restore_durable(blob),
            Served::Sharded(_) => Err(SitFactError::InvalidConfig(
                "a sharded monitor has no snapshot form: its durability is its log".to_string(),
            )),
        }
    }
}

/// The audit of the monitor behind either arm.
impl sitfact_core::Audit for Served {
    fn check(&self) -> std::result::Result<(), sitfact_core::AuditViolation> {
        match self {
            Served::Plain(m) => m.check(),
            Served::Sharded(m) => m.check(),
        }
    }
}
