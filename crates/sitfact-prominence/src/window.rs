//! Sliding-window wrapper: [`WindowedMonitor`] bounds any
//! [`StreamMonitor`] to its most recent arrivals.
//!
//! The paper's monitors are append-only: every arrival stays in the context
//! of every later one, so a long-lived stream grows without bound. A
//! *sliding-window* deployment instead asks for facts relative to the recent
//! past — "most points among active players this season", not "ever". This
//! module provides that as a composition, not a new monitor: the wrapper
//! ingests through the inner monitor unchanged and, at every batch boundary,
//! retracts whatever fell off the back of the window via
//! [`StreamMonitor::evict_prefix`].
//!
//! # Batch = one logical instant
//!
//! Eviction is enforced only *between* batches, never inside one: every
//! arrival of a window sees the full pre-batch history plus its in-batch
//! predecessors, exactly as the append-only batched protocol defines. A
//! sequential [`StreamMonitor::ingest`] call is a batch of one. Under a
//! bounded policy the report stream is therefore a function of the batch
//! partitioning (a coarser split defers eviction), which is precisely what
//! makes crash recovery deterministic: the durability layer
//! ([`DurableMonitor`](crate::DurableMonitor)) replays the *logged* window
//! boundaries, so a recovered `DurableMonitor<WindowedMonitor<…>>` re-applies
//! the same evictions at the same instants without any eviction records in
//! the log.
//!
//! # Equivalence contract
//!
//! After any batch, the wrapped monitor's observable state — reports for all
//! future arrivals, deep-audit state, snapshot bytes — equals that of a
//! fresh monitor (id space aligned via
//! [`FactMonitor::with_base`](crate::FactMonitor::with_base)) fed only the
//! surviving suffix. The `windowed_monitor_equals_rebuild_from_suffix`
//! property test in `tests/property_tests.rs` checks this over random
//! schemas, window lengths and batch splits.

use crate::fact::ArrivalReport;
use crate::monitor::MonitorConfig;
use crate::stream::{MonitorStats, StreamMonitor};
use sitfact_core::{Result, Schema, SitFactError, Tuple, TupleId, TupleRef};

/// How much history a [`WindowedMonitor`] retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowPolicy {
    /// Keep everything — the wrapper is a transparent pass-through. Useful
    /// so "windowed or not" is a runtime value (the serve layer's `OPEN`
    /// clause), not a type.
    Unbounded,
    /// Keep the most recent `n` arrivals: after each batch, everything older
    /// is retracted. Constructed via [`WindowPolicy::count`], which rejects 0.
    CountWindow(usize),
}

impl WindowPolicy {
    /// A count-bounded window keeping the latest `n` arrivals.
    ///
    /// Rejects `n = 0`: a monitor that evicts every tuple it ingests would
    /// report facts about an always-empty relation, which is never what a
    /// caller meant.
    pub fn count(n: usize) -> Result<WindowPolicy> {
        if n == 0 {
            return Err(SitFactError::InvalidConfig(
                "a count window must keep at least one arrival (got 0)".to_string(),
            ));
        }
        Ok(WindowPolicy::CountWindow(n))
    }

    /// Builds a policy from an optional row limit — the shape the serve
    /// layer's `OPEN` clause carries (`None` ⇒ unbounded).
    pub fn from_limit(limit: Option<u64>) -> Result<WindowPolicy> {
        match limit {
            None => Ok(WindowPolicy::Unbounded),
            Some(n) => WindowPolicy::count(n as usize),
        }
    }

    /// The row limit, `None` for [`WindowPolicy::Unbounded`].
    pub fn limit(&self) -> Option<u64> {
        match self {
            WindowPolicy::Unbounded => None,
            WindowPolicy::CountWindow(n) => Some(*n as u64),
        }
    }
}

/// A [`StreamMonitor`] bounded to its most recent arrivals; see the
/// [module docs](self) for the eviction protocol and equivalence contract.
///
/// ```
/// use sitfact_core::{Direction, SchemaBuilder};
/// use sitfact_algos::STopDown;
/// use sitfact_prominence::{
///     FactMonitor, MonitorConfig, StreamMonitor, WindowPolicy, WindowedMonitor,
/// };
///
/// let schema = SchemaBuilder::new("gamelog")
///     .dimension("player")
///     .measure("points", Direction::HigherIsBetter)
///     .build()
///     .unwrap();
/// let config = MonitorConfig::default().with_tau(1.0);
/// let inner = FactMonitor::new(schema.clone(), STopDown::new(&schema, config.discovery), config);
/// let mut monitor = WindowedMonitor::new(inner, WindowPolicy::count(2).unwrap());
/// for points in [10.0, 12.0, 9.0, 11.0] {
///     monitor.ingest_raw(&["Wesley"], vec![points]).unwrap();
/// }
/// assert_eq!(monitor.len(), 4, "ids keep counting arrivals");
/// assert_eq!(monitor.stats().live_rows, 2, "only the window answers queries");
/// ```
#[derive(Debug)]
pub struct WindowedMonitor<M: StreamMonitor> {
    inner: M,
    policy: WindowPolicy,
}

impl<M: StreamMonitor> WindowedMonitor<M> {
    /// Wraps `inner` under `policy`. The inner monitor must support
    /// [`StreamMonitor::evict_prefix`] for bounded policies — an unsupported
    /// eviction surfaces as an error on the first boundary that needs one.
    pub fn new(inner: M, policy: WindowPolicy) -> Self {
        WindowedMonitor { inner, policy }
    }

    /// The policy this wrapper enforces.
    pub fn policy(&self) -> WindowPolicy {
        self.policy
    }

    /// The wrapped monitor (read access).
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Unwraps into the inner monitor.
    pub fn into_inner(self) -> M {
        self.inner
    }

    /// Batch-boundary enforcement: retract everything older than the most
    /// recent `n` arrivals. Returns the number of newly retracted tuples.
    fn enforce(&mut self) -> Result<usize> {
        if let WindowPolicy::CountWindow(n) = self.policy {
            let total = self.inner.len();
            if total > n {
                return self.inner.evict_prefix((total - n) as TupleId);
            }
        }
        Ok(0)
    }
}

impl<M: StreamMonitor> StreamMonitor for WindowedMonitor<M> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn config(&self) -> &MonitorConfig {
        self.inner.config()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn tuple(&self, tuple_id: TupleId) -> Option<TupleRef<'_>> {
        self.inner.tuple(tuple_id)
    }

    fn encode_raw(&mut self, dims: &[&str], measures: Vec<f64>) -> Result<Tuple> {
        self.inner.encode_raw(dims, measures)
    }

    fn ingest(&mut self, tuple: Tuple) -> Result<ArrivalReport> {
        let report = self.inner.ingest(tuple)?;
        self.enforce()?;
        Ok(report)
    }

    fn ingest_batch_slice(&mut self, tuples: &[Tuple]) -> Result<Vec<ArrivalReport>> {
        let reports = self.inner.ingest_batch_slice(tuples)?;
        if !tuples.is_empty() {
            self.enforce()?;
        }
        Ok(reports)
    }

    fn evict_prefix(&mut self, up_to: TupleId) -> Result<usize> {
        self.inner.evict_prefix(up_to)
    }

    fn stats(&self) -> MonitorStats {
        // Nothing to amend: the window owns no counter of its own.
        self.inner.stats()
    }

    fn export_durable(&self) -> Option<Vec<u8>> {
        // The inner snapshot already carries the retraction bookkeeping
        // (watermark, evicted prefix), and enforcement is a pure function of
        // `len`, so a restored monitor resumes the window where it left off.
        self.inner.export_durable()
    }

    fn restore_durable(&mut self, snapshot: &[u8]) -> Result<bool> {
        self.inner.restore_durable(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::FactMonitor;
    use sitfact_algos::STopDown;
    use sitfact_core::{Direction, SchemaBuilder};

    fn schema() -> Schema {
        SchemaBuilder::new("gamelog")
            .dimension("player")
            .dimension("team")
            .measure("points", Direction::HigherIsBetter)
            .measure("assists", Direction::HigherIsBetter)
            .build()
            .unwrap()
    }

    fn fact_monitor(schema: &Schema) -> FactMonitor<STopDown> {
        let config = MonitorConfig::default().with_tau(2.0);
        FactMonitor::new(
            schema.clone(),
            STopDown::new(schema, config.discovery),
            config,
        )
    }

    fn random_tuples(seed: u64, n: usize) -> Vec<Tuple> {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Tuple::new(
                    vec![rng.gen_range(0..4u32), rng.gen_range(0..3u32)],
                    vec![rng.gen_range(0..6) as f64, rng.gen_range(0..6) as f64],
                )
            })
            .collect()
    }

    #[test]
    fn policy_construction_and_limits() {
        assert!(WindowPolicy::count(0).is_err());
        assert_eq!(
            WindowPolicy::count(5).unwrap(),
            WindowPolicy::CountWindow(5)
        );
        assert_eq!(
            WindowPolicy::from_limit(None).unwrap(),
            WindowPolicy::Unbounded
        );
        assert_eq!(WindowPolicy::from_limit(Some(3)).unwrap().limit(), Some(3));
        assert!(WindowPolicy::from_limit(Some(0)).is_err());
        assert_eq!(WindowPolicy::Unbounded.limit(), None);
    }

    #[test]
    fn count_window_bounds_live_rows_per_arrival() {
        let schema = schema();
        let mut monitor =
            WindowedMonitor::new(fact_monitor(&schema), WindowPolicy::count(10).unwrap());
        for (i, t) in random_tuples(3, 30).into_iter().enumerate() {
            monitor.ingest(t).unwrap();
            assert_eq!(monitor.len(), i + 1);
            assert_eq!(monitor.stats().live_rows, (i + 1).min(10));
        }
        assert_eq!(monitor.stats().evicted + monitor.stats().tombstones, 20);
        monitor.inner().audit().unwrap();
    }

    #[test]
    fn unbounded_policy_is_a_pass_through() {
        let schema = schema();
        let mut monitor = WindowedMonitor::new(fact_monitor(&schema), WindowPolicy::Unbounded);
        let mut reference = fact_monitor(&schema);
        for t in random_tuples(5, 20) {
            let a = monitor.ingest(t.clone()).unwrap();
            let b = reference.ingest(t).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(monitor.stats().live_rows, 20);
        assert_eq!(monitor.stats().tombstones, 0);
    }

    #[test]
    fn eviction_waits_for_the_batch_boundary() {
        let schema = schema();
        let tuples = random_tuples(11, 24);
        // One big batch through a window of 8: every arrival still sees its
        // full in-batch history (reports equal the append-only monitor's),
        // and the eviction lands once, after the batch.
        let mut windowed =
            WindowedMonitor::new(fact_monitor(&schema), WindowPolicy::count(8).unwrap());
        let mut reference = fact_monitor(&schema);
        let a = windowed.ingest_batch_slice(&tuples).unwrap();
        let b = reference.ingest_batch_slice(&tuples).unwrap();
        assert_eq!(a, b);
        assert_eq!(windowed.stats().live_rows, 8);
        assert_eq!(reference.stats().live_rows, 24);
        windowed.inner().audit().unwrap();
    }

    #[test]
    fn windowed_equals_rebuild_from_suffix() {
        let schema = schema();
        let config = MonitorConfig::default().with_tau(2.0);
        let tuples = random_tuples(17, 40);
        let mut windowed =
            WindowedMonitor::new(fact_monitor(&schema), WindowPolicy::count(12).unwrap());
        for window in tuples.chunks(7) {
            windowed.ingest_batch_slice(window).unwrap();
        }
        // A fresh monitor fed only the survivors, id space aligned.
        let base = (windowed.len() - windowed.stats().live_rows) as u32;
        let mut rebuilt = FactMonitor::with_base(
            schema.clone(),
            STopDown::new(&schema, config.discovery),
            config,
            base,
        );
        let survivors: Vec<Tuple> = tuples[base as usize..].to_vec();
        rebuilt.ingest_batch_slice(&survivors).unwrap();
        // Future sequential arrivals report identically (windowed keeps
        // evicting; the rebuilt reference is evicted in lockstep through the
        // same wrapper).
        let mut rebuilt = WindowedMonitor::new(rebuilt, WindowPolicy::count(12).unwrap());
        for t in random_tuples(19, 10) {
            let a = windowed.ingest(t.clone()).unwrap();
            let b = rebuilt.ingest(t).unwrap();
            assert_eq!(a, b);
        }
        windowed.inner().audit().unwrap();
        rebuilt.inner().audit().unwrap();
    }

    #[test]
    fn bounded_policy_on_a_non_retractable_monitor_errors() {
        /// A minimal monitor without a retraction path.
        struct Fixed;
        impl StreamMonitor for Fixed {
            fn schema(&self) -> &Schema {
                unreachable!()
            }
            fn config(&self) -> &MonitorConfig {
                unreachable!()
            }
            fn len(&self) -> usize {
                5
            }
            fn tuple(&self, _: TupleId) -> Option<TupleRef<'_>> {
                None
            }
            fn encode_raw(&mut self, _: &[&str], _: Vec<f64>) -> Result<Tuple> {
                unreachable!()
            }
            fn ingest(&mut self, _: Tuple) -> Result<ArrivalReport> {
                Ok(ArrivalReport {
                    tuple_id: 0,
                    facts: Vec::new(),
                    prominent_count: 0,
                })
            }
            fn ingest_batch_slice(&mut self, _: &[Tuple]) -> Result<Vec<ArrivalReport>> {
                unreachable!()
            }
        }
        let mut monitor = WindowedMonitor::new(Fixed, WindowPolicy::count(2).unwrap());
        let err = monitor.ingest(Tuple::new(vec![0], vec![0.0])).unwrap_err();
        assert!(matches!(err, SitFactError::InvalidConfig(_)));
    }
}
