//! Names the frozen `crates/sitfact-bench/src/bin/bench_e2e/` still imports,
//! forwarding to the product types. `sitfact-audit`'s `compat-drift` rule
//! fails any other user and any entry the benchmark no longer names.

use crate::durable::ReplayOutcome;
use crate::fact::ArrivalReport;
use crate::monitor::{sole, FactMonitor};
use crate::pipeline::{ArrivalPipeline, WindowPolicy};
use crate::served::Served;
use sitfact_algos::{Discovery, STopDown};
use sitfact_core::{RawRow, Result, SitFactError, Tuple};
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

/// A pipeline ingests raw rows, so its tuples are rendered back to the rows
/// they were encoded from.
impl StreamMonitor for ArrivalPipeline {
    fn encode_raw(&mut self, dims: &[&str], measures: Vec<f64>) -> Result<Tuple> {
        let row = RawRow::new(dims, &measures);
        sole(self.inner_mut().encode_rows(&[row])?)
    }

    fn ingest_batch(&mut self, tuples: Vec<Tuple>) -> Result<Vec<ArrivalReport>> {
        let schema = self.inner().schema();
        let rows = tuples.iter().map(|tuple| {
            let dims = tuple.dims().iter().enumerate();
            let dims = dims.map(|(d, &id)| schema.resolve_dim(d, id).map(str::to_string));
            let dims = dims.collect::<Option<_>>().ok_or_else(|| {
                SitFactError::InvalidTuple("a dimension value id is not interned".to_string())
            })?;
            let measures = tuple.measures().to_vec();
            Ok(RawRow { dims, measures })
        });
        let rows = rows.collect::<Result<Vec<RawRow>>>()?;
        self.ingest_rows(&rows)
    }

    fn ingest_all(&mut self, tuples: Vec<Tuple>) -> Result<Vec<ArrivalReport>> {
        (tuples.into_iter())
            .map(|t| self.ingest_batch(vec![t]).and_then(sole))
            .collect()
    }
}

/// The old name of [`ArrivalPipeline`].
pub type WindowedMonitor = ArrivalPipeline;

/// [`ArrivalPipeline::replay`] of an unbounded pipeline for a bare unsharded
/// monitor, which holds the replayed state afterwards.
pub fn replay_log(
    dir: impl AsRef<Path>,
    monitor: &mut FactMonitor<STopDown>,
) -> Result<ReplayOutcome> {
    let (schema, config) = (monitor.schema().clone(), *monitor.config());
    let stand_in = FactMonitor::new(
        schema.clone(),
        STopDown::new(&schema, config.discovery),
        config,
    );
    let mut pipeline = ArrivalPipeline::new(
        std::mem::replace(monitor, stand_in),
        WindowPolicy::Unbounded,
    );
    let outcome = pipeline.replay(dir);
    if let Served::Plain(replayed) = pipeline.into_inner() {
        *monitor = replayed;
    }
    outcome
}

/// Lets `bind(addr, Box::new(monitor))` compile.
impl From<Box<FactMonitor<STopDown>>> for Served {
    fn from(monitor: Box<FactMonitor<STopDown>>) -> Self {
        Served::Plain(*monitor)
    }
}
