//! Names the frozen `crates/sitfact-bench/src/bin/bench_e2e/` still imports,
//! forwarding to the product types. `sitfact-audit`'s `compat-drift` rule
//! fails any other user and any entry the benchmark no longer names.

use crate::durable::{self, ReplayOutcome};
use crate::fact::ArrivalReport;
use crate::monitor::FactMonitor;
use crate::pipeline::ArrivalPipeline;
use crate::served::Served;
use sitfact_algos::{Discovery, STopDown};
use sitfact_core::{Result, Tuple};
use std::path::Path;

/// The old object-safe ingest surface, over a monitor or a pipeline.
pub trait StreamMonitor {
    /// The monitor's own `encode_raw`.
    fn encode_raw(&mut self, dims: &[&str], measures: Vec<f64>) -> Result<Tuple>;
    /// The monitor's `ingest_batch_slice` over an owned window.
    fn ingest_batch(&mut self, tuples: Vec<Tuple>) -> Result<Vec<ArrivalReport>>;
    /// One `ingest` per tuple, stopping at the first error.
    fn ingest_all(&mut self, tuples: Vec<Tuple>) -> Result<Vec<ArrivalReport>>;
}

impl<A: Discovery> StreamMonitor for FactMonitor<A> {
    fn encode_raw(&mut self, dims: &[&str], measures: Vec<f64>) -> Result<Tuple> {
        FactMonitor::encode_raw(self, dims, measures)
    }

    fn ingest_batch(&mut self, tuples: Vec<Tuple>) -> Result<Vec<ArrivalReport>> {
        self.ingest_batch_slice(&tuples)
    }

    fn ingest_all(&mut self, tuples: Vec<Tuple>) -> Result<Vec<ArrivalReport>> {
        tuples.into_iter().map(|t| self.ingest(t)).collect()
    }
}

impl StreamMonitor for ArrivalPipeline {
    fn encode_raw(&mut self, dims: &[&str], measures: Vec<f64>) -> Result<Tuple> {
        ArrivalPipeline::encode_raw(self, dims, measures)
    }

    fn ingest_batch(&mut self, tuples: Vec<Tuple>) -> Result<Vec<ArrivalReport>> {
        self.ingest_batch_slice(&tuples)
    }

    fn ingest_all(&mut self, tuples: Vec<Tuple>) -> Result<Vec<ArrivalReport>> {
        tuples.into_iter().map(|t| self.ingest(t)).collect()
    }
}

/// The old name of [`ArrivalPipeline`].
pub type WindowedMonitor = ArrivalPipeline;

/// [`Served::replay`] for a bare unsharded monitor.
pub fn replay_log(
    dir: impl AsRef<Path>,
    monitor: &mut FactMonitor<STopDown>,
) -> Result<ReplayOutcome> {
    durable::replay_windows(dir.as_ref(), monitor.len(), |window| {
        let tuples = durable::encode_window(monitor.len(), window, |dims, measures| {
            monitor.encode_raw(dims, measures)
        })?;
        monitor.ingest_batch_slice(&tuples)
    })
}

/// Lets `bind(addr, Box::new(monitor))` compile.
impl From<Box<FactMonitor<STopDown>>> for Served {
    fn from(monitor: Box<FactMonitor<STopDown>>) -> Self {
        Served::Plain(*monitor)
    }
}
