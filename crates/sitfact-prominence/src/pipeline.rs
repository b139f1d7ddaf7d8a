//! [`ArrivalPipeline`]: the one path every arrival window takes.
//!
//! The paper's relation only grows by appending. A deployment may also keep
//! only a sliding window of recent arrivals ([`WindowPolicy`]) and log every
//! arrival for crash recovery ([`WalOptions`]; on-disk format in
//! [`durable`]). Both are stages of one struct around a [`Served`]
//! monitor, run in this order for every window:
//!
//! 1. validate the window and render it to raw rows (logged only);
//! 2. append it to the log — the acknowledgement barrier (logged only);
//! 3. ingest it into the monitor;
//! 4. evict whatever fell off the back of the window;
//! 5. record the last report;
//! 6. snapshot, if one is due (logged only).
//!
//! Recovery ([`ArrivalPipeline::open_log`]) restores the newest snapshot and
//! feeds the log suffix through the same stages with 2 and 6 off. A sharded
//! monitor has no snapshot form: its durability is the log alone, and
//! `open_log` refuses a snapshot interval for it.
//!
//! Eviction runs only *between* windows: every arrival of a window sees the
//! full pre-window history plus its in-window predecessors, and a
//! [`ArrivalPipeline::ingest`] call is a window of one. The reports of a
//! bounded pipeline are therefore a function of the window partitioning,
//! which replay re-feeds from the log: the same evictions happen at the same
//! instants, with no eviction records in the log. An unlogged pipeline hands
//! a single row to the monitor's own `ingest`; a logged one ingests it as a
//! batch of one, the shape replay re-feeds.
//!
//! After any window, a bounded pipeline's observable state — reports for
//! all future arrivals, deep-audit state, snapshot bytes — equals that of a
//! fresh monitor (id space aligned via
//! [`FactMonitor::with_base`](crate::FactMonitor::with_base)) fed only the
//! surviving suffix; `windowed_monitor_equals_rebuild_from_suffix` in
//! `tests/property_tests.rs` checks this.

use crate::durable::{self, RecoveryReport, WalOptions};
use crate::fact::ArrivalReport;
use crate::monitor::MonitorStats;
use crate::served::Served;
use sitfact_core::{Result, SitFactError, Tuple, TupleId};
use sitfact_storage::ArrivalLog;
use std::path::Path;
use std::sync::Arc;

/// How much history an [`ArrivalPipeline`] retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowPolicy {
    /// Keep everything: the eviction stage does nothing.
    Unbounded,
    /// Keep the most recent `n` arrivals (built by [`WindowPolicy::count`]).
    CountWindow(usize),
}

impl WindowPolicy {
    /// A count-bounded window keeping the latest `n` arrivals. Rejects
    /// `n = 0`, a window that would always be empty.
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

/// A [`Served`] monitor behind the arrival stages: a window policy, an
/// optional write-ahead log with snapshots, and the last report. See the
/// [module docs](self) for the stage order and the equivalence contract.
///
/// ```
/// use sitfact_algos::STopDown;
/// use sitfact_core::{Direction, SchemaBuilder};
/// use sitfact_prominence::{ArrivalPipeline, FactMonitor, MonitorConfig, WalOptions, WindowPolicy};
///
/// let dir = std::env::temp_dir().join(format!("sitfact-pipeline-doc-{}", std::process::id()));
/// let _ = std::fs::remove_dir_all(&dir);
/// let schema = SchemaBuilder::new("gamelog")
///     .dimension("player")
///     .measure("points", Direction::HigherIsBetter)
///     .build()
///     .unwrap();
/// let config = MonitorConfig::default().with_tau(1.0);
/// let fresh = || {
///     let monitor =
///         FactMonitor::new(schema.clone(), STopDown::new(&schema, config.discovery), config);
///     ArrivalPipeline::new(monitor, WindowPolicy::count(2).unwrap())
/// };
///
/// // First life: every window is logged before it is acknowledged.
/// let (mut pipeline, _) = fresh().open_log(&dir, WalOptions::default()).unwrap();
/// for points in [10.0, 12.0, 9.0, 11.0] {
///     let tuple = pipeline.encode_raw(&["Wesley"], vec![points]).unwrap();
///     pipeline.ingest(tuple).unwrap();
/// }
/// assert_eq!(pipeline.stats().len, 4, "ids keep counting arrivals");
/// assert_eq!(pipeline.stats().live_rows, 2, "only the window answers queries");
/// drop(pipeline); // crash or shutdown — no flush step required
///
/// // Second life: replay re-applies the same evictions.
/// let (pipeline, recovery) = fresh().open_log(&dir, WalOptions::default()).unwrap();
/// assert_eq!(recovery.replayed_rows, 4);
/// assert_eq!(pipeline.stats().live_rows, 2);
/// # let _ = std::fs::remove_dir_all(&dir);
/// ```
pub struct ArrivalPipeline {
    inner: Served,
    policy: WindowPolicy,
    log: Option<LogStage>,
    /// Shared with whoever publishes it (a server's read snapshot), so
    /// publishing costs a reference count, not a copy.
    last_report: Option<Arc<ArrivalReport>>,
}

/// The state of the logged stages.
struct LogStage {
    log: ArrivalLog,
    opts: WalOptions,
    rows_since_snapshot: u64,
    /// Set when a logged window was not applied: the log is ahead of the
    /// monitor until a reopen replays it.
    broken: bool,
}

/// The arrivals of one call.
enum Window<'a> {
    /// One [`ArrivalPipeline::ingest`].
    One(Tuple),
    /// One batch.
    Batch(&'a [Tuple]),
}

impl Window<'_> {
    fn tuples(&self) -> &[Tuple] {
        match self {
            Window::One(tuple) => std::slice::from_ref(tuple),
            Window::Batch(tuples) => tuples,
        }
    }
}

impl ArrivalPipeline {
    /// An unlogged pipeline over `inner`. A bounded `policy` needs a monitor
    /// that supports [`Served::evict_prefix`]; a sharded one does not and
    /// fails at the first boundary that has to evict.
    pub fn new(inner: impl Into<Served>, policy: WindowPolicy) -> Self {
        ArrivalPipeline {
            inner: inner.into(),
            policy,
            log: None,
            last_report: None,
        }
    }

    /// Makes the pipeline durable under `dir`, recovering what it holds: the
    /// newest intact snapshot, then the log suffix replayed through the
    /// stages with append and snapshot off. Writes nothing but the
    /// truncation of a torn tail. The monitor must be empty, configured like
    /// the one that wrote `dir`. A sharded monitor cannot write snapshots, so
    /// with `opts.snapshot_every` set it is refused with `InvalidConfig`.
    pub fn open_log(
        mut self,
        dir: impl AsRef<Path>,
        opts: WalOptions,
    ) -> Result<(Self, RecoveryReport)> {
        if !self.inner.is_empty() {
            return Err(SitFactError::InvalidConfig(
                "durable recovery needs an empty monitor to rebuild into".to_string(),
            ));
        }
        if let (Served::Sharded(_), Some(every)) = (&self.inner, opts.snapshot_every) {
            return Err(SitFactError::InvalidConfig(format!(
                "a sharded monitor cannot write snapshots (snapshot every {every} rows): its \
                 durability is log-only, so configure no snapshot interval"
            )));
        }
        let dir = dir.as_ref();
        let (snapshot_rows, last_report) = durable::restore_newest(dir, &mut self.inner)?;
        self.last_report = last_report.map(Arc::new);
        let (log, scanned) = ArrivalLog::open(dir, opts.sync, opts.segment_bytes)?;
        self.log = Some(LogStage {
            log,
            opts,
            rows_since_snapshot: 0,
            broken: false,
        });
        let mut recovery = RecoveryReport {
            snapshot_rows,
            dropped_bytes: scanned.dropped_bytes,
            ..RecoveryReport::default()
        };
        for window in &scanned.windows {
            if window.first_id + window.rows.len() as u64 <= snapshot_rows {
                continue;
            }
            let tuples = durable::encode_window(self.inner.len(), window, |dims, measures| {
                self.inner.encode_raw(dims, measures)
            })?;
            self.run(Window::Batch(&tuples), false)?;
            recovery.replayed_windows += 1;
            recovery.replayed_rows += tuples.len() as u64;
        }
        Ok((self, recovery))
    }

    /// Read access to the monitor behind the stages.
    pub fn inner(&self) -> &Served {
        &self.inner
    }

    /// The report of the most recently acknowledged arrival; on a logged
    /// pipeline it survives recovery (restored from the snapshot or
    /// reproduced by replay).
    pub fn last_report(&self) -> Option<&ArrivalReport> {
        self.last_report.as_deref()
    }

    /// [`ArrivalPipeline::last_report`], shared rather than borrowed.
    pub fn shared_last_report(&self) -> Option<Arc<ArrivalReport>> {
        self.last_report.clone()
    }

    /// Writes a full-state snapshot, bounding recovery replay to the log
    /// suffix behind it, then retires the log segments it covers. A monitor
    /// whose algorithm cannot export its state writes none: recovery replays
    /// the log.
    fn snapshot(&mut self) -> Result<()> {
        // `open_log` refused snapshots for a sharded monitor.
        let (Some(stage), Served::Plain(monitor)) = (&mut self.log, &self.inner) else {
            return Ok(());
        };
        let Some(blob) = monitor.export_durable() else {
            return Ok(());
        };
        let covered = self.inner.len() as u64;
        durable::write_snapshot(stage.log.dir(), covered, self.last_report.as_deref(), &blob)?;
        // Only now, after the rename: a crash before this point still
        // recovers from the previous snapshot plus the intact log.
        stage.log.retire_covered(covered)?;
        stage.rows_since_snapshot = 0;
        Ok(())
    }

    /// The stages, in order, for one window. A `live` window is logged and
    /// may snapshot; a replayed one is already in the log.
    fn run(&mut self, window: Window<'_>, live: bool) -> Result<Vec<ArrivalReport>> {
        let rows = window.tuples().len();
        if let Some(stage) = &mut self.log {
            if stage.broken {
                return Err(SitFactError::Io(
                    "arrival pipeline is failed: a logged window was not applied; reopen to \
                     recover"
                        .to_string(),
                ));
            }
            if live && rows > 0 {
                let record =
                    durable::window_record(self.inner.schema(), self.inner.len(), window.tuples())?;
                stage.log.append(&record)?;
            }
        }
        if rows == 0 {
            return Ok(Vec::new());
        }
        let ingested = match window {
            Window::One(tuple) if self.log.is_none() => self.inner.ingest(tuple).map(|r| vec![r]),
            window => self.inner.ingest_batch_slice(window.tuples()),
        };
        let reports = match ingested.and_then(|reports| self.evict().map(|_| reports)) {
            Ok(reports) => reports,
            Err(err) => {
                // Logged but not (wholly) applied: refuse ingest until a
                // reopen replays the log. Bad rows failed rendering above.
                if let Some(stage) = &mut self.log {
                    stage.broken = true;
                }
                return Err(err);
            }
        };
        if let Some(last) = reports.last() {
            self.last_report = Some(Arc::new(last.clone()));
        }
        let due = self.log.as_mut().is_some_and(|stage| {
            stage.rows_since_snapshot += rows as u64;
            stage
                .opts
                .snapshot_every
                .is_some_and(|every| stage.rows_since_snapshot >= every)
        });
        if live && due {
            // The window is applied and logged, so its reports are the reply
            // either way; a failed snapshot is retried by the next window.
            let _ = self.snapshot();
        }
        Ok(reports)
    }

    /// Retracts everything older than the policy's most recent arrivals.
    fn evict(&mut self) -> Result<usize> {
        match self.policy {
            WindowPolicy::CountWindow(n) if self.inner.len() > n => {
                self.inner.evict_prefix((self.inner.len() - n) as TupleId)
            }
            _ => Ok(0),
        }
    }

    /// Interns a raw row against the monitor's schema, without ingesting.
    pub fn encode_raw(&mut self, dims: &[&str], measures: Vec<f64>) -> Result<Tuple> {
        self.inner.encode_raw(dims, measures)
    }

    /// Runs one arrival through the stages as a window of one.
    pub fn ingest(&mut self, tuple: Tuple) -> Result<ArrivalReport> {
        self.run(Window::One(tuple), true)?
            .pop()
            .ok_or_else(|| SitFactError::Io("ingest of one tuple produced no report".to_string()))
    }

    /// Runs one window through the stages: the reports a sequential
    /// [`ArrivalPipeline::ingest`] loop over an unbounded monitor would
    /// produce, with eviction after the window.
    pub fn ingest_batch_slice(&mut self, tuples: &[Tuple]) -> Result<Vec<ArrivalReport>> {
        self.run(Window::Batch(tuples), true)
    }

    /// The monitor's counters with the log's added.
    pub fn stats(&self) -> MonitorStats {
        let wal = self.log.as_ref().map(|stage| stage.log.stats());
        MonitorStats {
            wal: wal.unwrap_or_default(),
            ..self.inner.stats()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{FactMonitor, MonitorConfig};
    use crate::sharded::ShardedMonitor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sitfact_algos::STopDown;
    use sitfact_core::{Audit, Direction, DiscoveryConfig, Schema, SchemaBuilder};
    use sitfact_storage::{SyncPolicy, WalStats};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sitfact-pipeline-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn schema() -> Schema {
        SchemaBuilder::new("gamelog")
            .dimension("player")
            .dimension("team")
            .dimension("month")
            .measure("points", Direction::HigherIsBetter)
            .measure("assists", Direction::HigherIsBetter)
            .build()
            .unwrap()
    }

    fn config() -> MonitorConfig {
        MonitorConfig::default().with_tau(1.0)
    }

    fn fresh(schema: &Schema, config: MonitorConfig) -> FactMonitor<STopDown> {
        FactMonitor::new(
            schema.clone(),
            STopDown::new(schema, config.discovery),
            config,
        )
    }

    /// An empty pipeline over a fresh monitor, logged under `dir`.
    fn open(
        dir: &Path,
        policy: WindowPolicy,
        opts: WalOptions,
    ) -> (ArrivalPipeline, RecoveryReport) {
        ArrivalPipeline::new(fresh(&schema(), config()), policy)
            .open_log(dir, opts)
            .unwrap()
    }

    /// Deterministic raw stream: `n` rows over small value domains.
    fn raw_rows(seed: u64, n: usize) -> Vec<(Vec<String>, Vec<f64>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let dims = vec![
                    format!("p{}", rng.gen_range(0..7u32)),
                    format!("t{}", rng.gen_range(0..3u32)),
                    format!("m{}", rng.gen_range(0..2u32)),
                ];
                let measures = vec![
                    f64::from(rng.gen_range(0..40u32)),
                    f64::from(rng.gen_range(0..15u32)),
                ];
                (dims, measures)
            })
            .collect()
    }

    /// What the helpers below drive: a bare monitor (the reference) or a
    /// pipeline.
    trait Feed {
        fn encode_raw(&mut self, dims: &[&str], measures: Vec<f64>) -> Result<Tuple>;
        fn ingest_batch_slice(&mut self, tuples: &[Tuple]) -> Result<Vec<ArrivalReport>>;
    }

    impl Feed for FactMonitor<STopDown> {
        fn encode_raw(&mut self, dims: &[&str], measures: Vec<f64>) -> Result<Tuple> {
            FactMonitor::encode_raw(self, dims, measures)
        }
        fn ingest_batch_slice(&mut self, tuples: &[Tuple]) -> Result<Vec<ArrivalReport>> {
            FactMonitor::ingest_batch_slice(self, tuples)
        }
    }

    impl Feed for ArrivalPipeline {
        fn encode_raw(&mut self, dims: &[&str], measures: Vec<f64>) -> Result<Tuple> {
            ArrivalPipeline::encode_raw(self, dims, measures)
        }
        fn ingest_batch_slice(&mut self, tuples: &[Tuple]) -> Result<Vec<ArrivalReport>> {
            ArrivalPipeline::ingest_batch_slice(self, tuples)
        }
    }

    fn encode(monitor: &mut impl Feed, rows: &[(Vec<String>, Vec<f64>)]) -> Vec<Tuple> {
        rows.iter()
            .map(|(dims, measures)| {
                let dims: Vec<&str> = dims.iter().map(String::as_str).collect();
                monitor.encode_raw(&dims, measures.clone()).unwrap()
            })
            .collect()
    }

    /// Feeds `rows` in windows of `window` through the monitor's batch path.
    fn feed(
        monitor: &mut impl Feed,
        rows: &[(Vec<String>, Vec<f64>)],
        window: usize,
    ) -> Vec<ArrivalReport> {
        let mut reports = Vec::new();
        for chunk in rows.chunks(window.max(1)) {
            let tuples = encode(monitor, chunk);
            reports.extend(monitor.ingest_batch_slice(&tuples).unwrap());
        }
        reports
    }

    /// Log segment files in `dir`, in sequence order.
    fn segments(dir: &Path) -> Vec<PathBuf> {
        let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|x| x == "log"))
            .collect();
        found.sort();
        found
    }

    /// Snapshot files in `dir`.
    fn snapshots(dir: &Path) -> Vec<PathBuf> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|x| x == "snap"))
            .collect()
    }

    /// The stats of `pipeline` without its log counters.
    fn unlogged_stats(pipeline: &ArrivalPipeline) -> MonitorStats {
        MonitorStats {
            wal: WalStats::default(),
            ..pipeline.stats()
        }
    }

    /// Every shape of the pipeline — {unlogged, logged} × {unbounded,
    /// count(24)} × {single-row `ingest`, 7-row batches} — against a
    /// `FactMonitor` driven by hand: the same reports and the same stats
    /// after every call, and for a logged pipeline a reopen that is
    /// indistinguishable from never having crashed.
    #[test]
    fn every_shape_matches_a_hand_driven_monitor() {
        let schema = schema();
        let config = config();
        let rows = raw_rows(31, 80);
        let opts = WalOptions::default()
            .with_sync(SyncPolicy::Os)
            .with_snapshot_every(20);
        for logged in [false, true] {
            for policy in [WindowPolicy::Unbounded, WindowPolicy::count(24).unwrap()] {
                for batch in [1usize, 7] {
                    let case = format!("logged {logged}, {policy:?}, batch {batch}");
                    let dir = temp_dir(&format!(
                        "shape-{logged}-{}-{batch}",
                        policy.limit().unwrap_or(0)
                    ));
                    let mut pipeline = ArrivalPipeline::new(fresh(&schema, config), policy);
                    if logged {
                        pipeline = pipeline.open_log(&dir, opts).unwrap().0;
                    }
                    let mut reference = fresh(&schema, config);
                    // The reference: an unlogged single row goes through
                    // `FactMonitor::ingest`, everything else through the
                    // batch path, with `evict_prefix` at each boundary.
                    let drive =
                        |pipeline: &mut ArrivalPipeline,
                         reference: &mut FactMonitor<STopDown>,
                         chunk: &[(Vec<String>, Vec<f64>)]| {
                            let tuples = encode(pipeline, chunk);
                            let expected_tuples = encode(reference, chunk);
                            let (got, expected) = if batch == 1 {
                                let tuple = tuples[0].clone();
                                let expected = if logged {
                                    reference.ingest_batch_slice(&expected_tuples).unwrap()
                                } else {
                                    vec![reference.ingest(expected_tuples[0].clone()).unwrap()]
                                };
                                (vec![pipeline.ingest(tuple).unwrap()], expected)
                            } else {
                                (
                                    pipeline.ingest_batch_slice(&tuples).unwrap(),
                                    reference.ingest_batch_slice(&expected_tuples).unwrap(),
                                )
                            };
                            if let Some(n) = policy.limit() {
                                let len = reference.len() as u64;
                                if len > n {
                                    reference.evict_prefix((len - n) as TupleId).unwrap();
                                }
                            }
                            assert_eq!(got, expected, "{case}");
                            assert_eq!(pipeline.last_report(), expected.last(), "{case}");
                            let stats = pipeline.stats();
                            assert_eq!(unlogged_stats(pipeline), reference.stats(), "{case}");
                            let limit = policy.limit().map_or(stats.len, |n| n as usize);
                            assert_eq!(stats.live_rows, stats.len.min(limit), "{case}");
                            let durable_rows = if logged { stats.len as u64 } else { 0 };
                            assert_eq!(stats.wal.durable_rows, durable_rows, "{case}");
                        };
                    for chunk in rows[..60].chunks(batch) {
                        drive(&mut pipeline, &mut reference, chunk);
                    }
                    pipeline.inner().check().unwrap();
                    if logged {
                        let before = pipeline.stats();
                        let last = pipeline.last_report().cloned();
                        std::mem::forget(pipeline);
                        let (recovered, recovery) =
                            ArrivalPipeline::new(fresh(&schema, config), policy)
                                .open_log(&dir, opts)
                                .unwrap();
                        assert!(recovery.snapshot_rows > 0, "{case}: {recovery:?}");
                        assert_eq!(recovered.stats(), before, "{case}");
                        assert_eq!(recovered.last_report(), last.as_ref(), "{case}");
                        pipeline = recovered;
                    }
                    for chunk in rows[60..].chunks(batch) {
                        drive(&mut pipeline, &mut reference, chunk);
                    }
                    pipeline.inner().check().unwrap();
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
        }
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

    fn window_schema() -> Schema {
        SchemaBuilder::new("gamelog")
            .dimension("player")
            .dimension("team")
            .measure("points", Direction::HigherIsBetter)
            .measure("assists", Direction::HigherIsBetter)
            .build()
            .unwrap()
    }

    fn window_monitor(schema: &Schema) -> FactMonitor<STopDown> {
        fresh(schema, MonitorConfig::default().with_tau(2.0))
    }

    fn random_tuples(seed: u64, n: usize) -> Vec<Tuple> {
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
    fn count_window_bounds_live_rows_per_arrival() {
        let schema = window_schema();
        let mut monitor =
            ArrivalPipeline::new(window_monitor(&schema), WindowPolicy::count(10).unwrap());
        for (i, t) in random_tuples(3, 30).into_iter().enumerate() {
            monitor.ingest(t).unwrap();
            assert_eq!(monitor.inner().len(), i + 1);
            assert_eq!(monitor.stats().live_rows, (i + 1).min(10));
        }
        assert_eq!(monitor.stats().evicted + monitor.stats().tombstones, 20);
        monitor.inner().check().unwrap();
    }

    #[test]
    fn eviction_waits_for_the_batch_boundary() {
        let schema = window_schema();
        let tuples = random_tuples(11, 24);
        // One big batch through a window of 8: every arrival still sees its
        // full in-batch history (reports equal the append-only monitor's),
        // and the eviction lands once, after the batch.
        let mut windowed =
            ArrivalPipeline::new(window_monitor(&schema), WindowPolicy::count(8).unwrap());
        let mut reference = window_monitor(&schema);
        let a = windowed.ingest_batch_slice(&tuples).unwrap();
        let b = reference.ingest_batch_slice(&tuples).unwrap();
        assert_eq!(a, b);
        assert_eq!(windowed.stats().live_rows, 8);
        assert_eq!(reference.stats().live_rows, 24);
        windowed.inner().check().unwrap();
    }

    #[test]
    fn windowed_equals_rebuild_from_suffix() {
        let schema = window_schema();
        let config = MonitorConfig::default().with_tau(2.0);
        let tuples = random_tuples(17, 40);
        let policy = WindowPolicy::count(12).unwrap();
        let mut windowed = ArrivalPipeline::new(window_monitor(&schema), policy);
        for window in tuples.chunks(7) {
            windowed.ingest_batch_slice(window).unwrap();
        }
        // A fresh monitor fed only the survivors, id space aligned.
        let base = (windowed.inner().len() - windowed.stats().live_rows) as u32;
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
        // same stages).
        let mut rebuilt = ArrivalPipeline::new(rebuilt, policy);
        for t in random_tuples(19, 10) {
            let a = windowed.ingest(t.clone()).unwrap();
            let b = rebuilt.ingest(t).unwrap();
            assert_eq!(a, b);
        }
        windowed.inner().check().unwrap();
        rebuilt.inner().check().unwrap();
    }

    /// A count window bounds resident memory under sustained ingest. Over a
    /// stream of five window lengths, the windowed monitor's table plus
    /// skyline store stays within 3× of its level at two window lengths
    /// (compaction drops the tombstoned prefix whenever it reaches the live
    /// count, so the resident set oscillates below about two windows of
    /// rows), and the unbounded monitor ends larger.
    #[test]
    fn count_window_bounds_resident_memory() {
        use sitfact_algos::Discovery;
        use sitfact_datagen::nba::{NbaConfig, NbaGenerator};
        use sitfact_datagen::DataGenerator;
        const WINDOW: usize = 120;
        let mut gen = NbaGenerator::new(NbaConfig {
            dimensions: 5,
            measures: 4,
            players: 600,
            teams: 29,
            seasons: 8,
            games_per_season: 5 * WINDOW / 8,
            seed: 42,
        });
        let mut schema = gen.schema().clone();
        let tuples: Vec<Tuple> = gen
            .take_rows(5 * WINDOW)
            .iter()
            .map(|row| {
                let dims: Vec<&str> = row.dims.iter().map(String::as_str).collect();
                Tuple::new(schema.intern_dims(&dims).unwrap(), row.measures.clone())
            })
            .collect();
        let config = MonitorConfig::default()
            .with_discovery(DiscoveryConfig::capped(3, 3))
            .with_tau(100.0)
            .with_keep_top(8);
        let heap = |monitor: &Served| {
            let Served::Plain(monitor) = monitor else {
                panic!("the window test runs an unsharded monitor");
            };
            let store = monitor.algorithm().store_stats().approx_bytes as usize;
            monitor.table().approx_heap_bytes() + store
        };
        let policy = WindowPolicy::count(WINDOW).unwrap();
        let mut windowed = ArrivalPipeline::new(fresh(&schema, config), policy);
        let mut unbounded = Served::from(fresh(&schema, config));
        let mut fill = None;
        for chunk in tuples.chunks(8) {
            windowed.ingest_batch_slice(chunk).unwrap();
            unbounded.ingest_batch_slice(chunk).unwrap();
            if unbounded.len() >= 2 * WINDOW {
                let bytes = heap(windowed.inner());
                let fill = *fill.get_or_insert(bytes);
                assert!(
                    bytes <= 3 * fill,
                    "windowed memory grew past steady state at {} rows: {bytes} bytes vs \
                     {fill} at 2x window",
                    unbounded.len()
                );
            }
        }
        assert!(
            heap(&unbounded) > heap(windowed.inner()),
            "the unbounded monitor should out-grow the windowed one"
        );
        windowed.inner().check().unwrap();
    }

    /// A sharded monitor over `schema`, routed by team.
    fn sharded(schema: &Schema) -> ShardedMonitor<STopDown> {
        ShardedMonitor::by_attribute(schema.clone(), "team", 2, config(), STopDown::new).unwrap()
    }

    #[test]
    fn bounded_policy_on_a_non_retractable_monitor_errors() {
        // A sharded monitor has no retraction path: the first boundary that
        // has to evict refuses with a typed error.
        let schema = window_schema();
        let mut monitor = ArrivalPipeline::new(sharded(&schema), WindowPolicy::count(2).unwrap());
        let mut tuples = random_tuples(5, 3).into_iter();
        for tuple in tuples.by_ref().take(2) {
            monitor.ingest(tuple).unwrap();
        }
        let err = monitor.ingest(tuples.next().unwrap()).unwrap_err();
        assert!(matches!(err, SitFactError::InvalidConfig(_)));
    }

    #[test]
    fn kill_and_recover_is_byte_identical() {
        let dir = temp_dir("kill");
        let schema = schema();
        let config = config();
        let rows = raw_rows(7, 60);

        // Ground truth: a never-crashed, never-logged monitor.
        let mut reference = fresh(&schema, config);
        let mut expected = feed(&mut reference, &rows[..40], 8);

        // First life: logged pipeline, same stream, then a simulated crash
        // (no Drop, no flush call — the per-window write is the only ack).
        let (mut durable, recovery) = open(&dir, WindowPolicy::Unbounded, WalOptions::default());
        assert_eq!(recovery, RecoveryReport::default());
        let live = feed(&mut durable, &rows[..40], 8);
        assert_eq!(live, expected, "logging must not change reports");
        std::mem::forget(durable);

        // Second life: recovered monitor must be indistinguishable.
        let (mut recovered, recovery) = open(&dir, WindowPolicy::Unbounded, WalOptions::default());
        assert_eq!(recovery.replayed_rows, 40);
        assert_eq!(recovery.dropped_bytes, 0);
        assert_eq!(recovered.inner().len(), reference.len());
        assert_eq!(
            recovered.last_report(),
            expected.last(),
            "last acknowledged report must survive recovery"
        );
        assert_eq!(recovered.stats().postings, reference.stats().postings);

        // Byte-identical behaviour from here on: same reports for the rest
        // of the stream.
        expected.extend(feed(&mut reference, &rows[40..], 8));
        let resumed = feed(&mut recovered, &rows[40..], 8);
        assert_eq!(resumed, expected[40..], "post-recovery reports must match");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A snapshot that cannot be written does not turn an applied, logged
    /// window into an error: the reply is the window's reports, and the
    /// next due window retries.
    #[test]
    fn a_failed_snapshot_still_acknowledges_the_window() {
        let dir = temp_dir("snapfail");
        let schema = schema();
        let config = config();
        let rows = raw_rows(37, 36);
        let opts = WalOptions::default()
            .with_sync(SyncPolicy::Os)
            .with_snapshot_every(10);
        let (mut durable, _) = open(&dir, WindowPolicy::Unbounded, opts);
        // A directory where the snapshot's temporary file goes: creating the
        // file fails at every due window.
        let obstacle = dir.join("snapshot.tmp");
        std::fs::create_dir(&obstacle).unwrap();
        let mut reference = fresh(&schema, config);
        let mut expected = feed(&mut reference, &rows[..24], 6);
        assert_eq!(feed(&mut durable, &rows[..24], 6), expected);
        assert_eq!(durable.last_report(), expected.last());
        assert!(snapshots(&dir).is_empty(), "every due snapshot failed");

        // Remove the obstacle: the next due window snapshots.
        std::fs::remove_dir(&obstacle).unwrap();
        expected.extend(feed(&mut reference, &rows[24..30], 6));
        assert_eq!(feed(&mut durable, &rows[24..30], 6), expected[24..]);
        let written = snapshots(&dir);
        assert_eq!(written.len(), 1);
        assert!(written[0].ends_with("snapshot-00000000000000000030.snap"));
        std::mem::forget(durable);

        let (recovered, recovery) = open(&dir, WindowPolicy::Unbounded, opts);
        assert_eq!(recovery.snapshot_rows, 30);
        assert_eq!(recovery.replayed_rows, 0);
        assert_eq!(recovered.last_report(), expected.last());
        assert_eq!(unlogged_stats(&recovered), reference.stats());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retired_segments_do_not_break_recovery() {
        let dir = temp_dir("retire");
        let schema = schema();
        let config = config();
        let rows = raw_rows(23, 240);
        // Small segments + periodic snapshots: segments rotate, snapshots
        // cover them, and each snapshot retires the covered files.
        let opts = WalOptions::default()
            .with_sync(SyncPolicy::Os)
            .with_snapshot_every(40)
            .with_segment_bytes(4096);

        let mut reference = fresh(&schema, config);
        let mut expected = feed(&mut reference, &rows[..200], 8);

        let (mut durable, _) = open(&dir, WindowPolicy::Unbounded, opts);
        let live = feed(&mut durable, &rows[..200], 8);
        assert_eq!(live, expected, "retirement must not change reports");
        let stats = durable.stats().wal;
        assert!(
            stats.retired_segments > 0,
            "segments must rotate and retire: {stats:?}"
        );
        std::mem::forget(durable);

        // Kill-and-recover on the retired log: the newest snapshot plus the
        // surviving segment suffix reconstruct the exact state.
        let (mut recovered, recovery) = open(&dir, WindowPolicy::Unbounded, opts);
        assert!(recovery.snapshot_rows > 0);
        assert_eq!(recovery.snapshot_rows + recovery.replayed_rows, 200);
        assert_eq!(recovery.dropped_bytes, 0);
        assert_eq!(recovered.inner().len(), reference.len());
        assert_eq!(recovered.stats().postings, reference.stats().postings);
        assert_eq!(recovered.last_report(), expected.last());
        expected.extend(feed(&mut reference, &rows[200..], 8));
        let resumed = feed(&mut recovered, &rows[200..], 8);
        assert_eq!(resumed, expected[200..], "post-recovery reports must match");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn windowed_durable_kill_and_recover_is_byte_identical() {
        let dir = temp_dir("windowed");
        let schema = schema();
        let config = config();
        let rows = raw_rows(29, 90);
        let policy = WindowPolicy::count(24).unwrap();
        let opts = WalOptions::default()
            .with_sync(SyncPolicy::Os)
            .with_snapshot_every(32);

        // Ground truth: a windowed pipeline that never crashed, never logged.
        let mut reference = ArrivalPipeline::new(fresh(&schema, config), policy);
        let mut expected = feed(&mut reference, &rows[..60], 7);

        let (mut durable, _) = open(&dir, policy, opts);
        let live = feed(&mut durable, &rows[..60], 7);
        assert_eq!(live, expected, "logging must not disturb the window");
        assert_eq!(durable.stats().live_rows, 24);
        std::mem::forget(durable);

        // Replay re-feeds the logged batch boundaries, so the eviction stage
        // re-applies the same evictions at the same instants — no eviction
        // records exist in the log.
        let (mut recovered, recovery) = open(&dir, policy, opts);
        assert!(recovery.snapshot_rows > 0, "snapshots must cover evictions");
        assert_eq!(recovered.inner().len(), reference.inner().len());
        assert_eq!(recovered.stats().live_rows, reference.stats().live_rows);
        assert_eq!(recovered.stats().evicted, reference.stats().evicted);
        assert_eq!(recovered.stats().postings, reference.stats().postings);
        assert_eq!(recovered.last_report(), expected.last());
        expected.extend(feed(&mut reference, &rows[60..], 7));
        let resumed = feed(&mut recovered, &rows[60..], 7);
        assert_eq!(resumed, expected[60..], "post-recovery reports must match");
        recovered.inner().check().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshots_bound_replay() {
        let dir = temp_dir("snapbound");
        let schema = schema();
        let config = config();
        let rows = raw_rows(11, 48);
        let opts = WalOptions::default().with_snapshot_every(10);

        let (mut durable, _) = open(&dir, WindowPolicy::Unbounded, opts);
        feed(&mut durable, &rows, 6);
        std::mem::forget(durable);

        let (recovered, recovery) = open(&dir, WindowPolicy::Unbounded, opts);
        assert!(
            recovery.snapshot_rows > 0,
            "a snapshot must have been taken"
        );
        assert!(
            recovery.replayed_rows < rows.len() as u64,
            "snapshot must bound replay ({} replayed)",
            recovery.replayed_rows
        );
        assert_eq!(
            recovery.snapshot_rows + recovery.replayed_rows,
            rows.len() as u64
        );
        // Snapshot restore must land on the same state as pure replay.
        let mut replayed = fresh(&schema, config);
        let expected = feed(&mut replayed, &rows, 6);
        assert_eq!(recovered.inner().len(), replayed.len());
        assert_eq!(recovered.stats().postings, replayed.stats().postings);
        assert_eq!(recovered.last_report(), expected.last());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_degrades_to_full_replay() {
        let dir = temp_dir("snapcorrupt");
        let schema = schema();
        let config = config();
        let rows = raw_rows(13, 30);
        let opts = WalOptions::default().with_snapshot_every(10);

        let (mut durable, _) = open(&dir, WindowPolicy::Unbounded, opts);
        feed(&mut durable, &rows, 5);
        std::mem::forget(durable);

        // Flip a byte in the middle of every snapshot file.
        let mut corrupted = 0;
        for path in snapshots(&dir) {
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&path, bytes).unwrap();
            corrupted += 1;
        }
        assert!(corrupted > 0);

        let (recovered, recovery) = open(&dir, WindowPolicy::Unbounded, opts);
        assert_eq!(
            recovery.snapshot_rows, 0,
            "corrupt snapshot must be ignored"
        );
        assert_eq!(recovery.replayed_rows, rows.len() as u64);
        let mut replayed = fresh(&schema, config);
        feed(&mut replayed, &rows, 5);
        assert_eq!(recovered.inner().len(), replayed.len());
        assert_eq!(recovered.stats().postings, replayed.stats().postings);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_recovers_valid_prefix() {
        let dir = temp_dir("torn");
        let schema = schema();
        let config = config();
        let rows = raw_rows(17, 24);

        let (mut durable, _) = open(&dir, WindowPolicy::Unbounded, WalOptions::default());
        feed(&mut durable, &rows, 4);
        let stats = durable.stats().wal;
        std::mem::forget(durable);

        // Tear the last segment mid-frame: chop 5 bytes off the end.
        let segments = segments(&dir);
        let last = segments.last().unwrap();
        let bytes = std::fs::read(last).unwrap();
        std::fs::write(last, &bytes[..bytes.len() - 5]).unwrap();
        assert_eq!(stats.durable_rows, 24);

        let (mut recovered, recovery) = open(&dir, WindowPolicy::Unbounded, WalOptions::default());
        assert!(recovery.dropped_bytes > 0, "the torn tail must be reported");
        assert_eq!(
            recovery.replayed_rows, 20,
            "the last 4-row window sits in the torn frame"
        );
        // The recovered prefix matches a monitor that never saw the torn
        // window.
        let mut replayed = fresh(&schema, config);
        feed(&mut replayed, &rows[..20], 4);
        assert_eq!(recovered.inner().len(), replayed.len());
        assert_eq!(recovered.stats().postings, replayed.stats().postings);

        // And the log keeps accepting appends after the truncation.
        let more = feed(&mut recovered, &rows[20..], 4);
        assert_eq!(more.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_checksum_stops_replay_without_panic() {
        let dir = temp_dir("crc");
        let rows = raw_rows(19, 12);

        let (mut durable, _) = open(&dir, WindowPolicy::Unbounded, WalOptions::default());
        feed(&mut durable, &rows, 3);
        std::mem::forget(durable);

        // Corrupt one payload byte of the second frame in the first segment.
        let segment = segments(&dir)[0].clone();
        let mut bytes = std::fs::read(&segment).unwrap();
        let first_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let second_payload = 8 + first_len + 8;
        bytes[second_payload] ^= 0x01;
        std::fs::write(&segment, bytes).unwrap();

        let (recovered, recovery) = open(&dir, WindowPolicy::Unbounded, WalOptions::default());
        assert_eq!(recovery.replayed_rows, 3, "replay stops at the bad frame");
        assert!(recovery.dropped_bytes > 0);
        assert_eq!(recovered.inner().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn broken_after_divergence_refuses_ingest() {
        let dir = temp_dir("broken");
        let (mut durable, _) = open(&dir, WindowPolicy::Unbounded, WalOptions::default());
        // A tuple that passes rendering cannot make the monitor's ingest
        // fail, so force the flag directly to pin the refusal behaviour.
        durable.log.as_mut().unwrap().broken = true;
        let tuple = Tuple::new(vec![0, 0, 0], vec![1.0, 1.0]);
        assert!(matches!(durable.ingest(tuple), Err(SitFactError::Io(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_eviction_after_the_append_breaks_the_pipeline() {
        // Retraction refused on a monitor that otherwise works: the sharded
        // arm, logged without snapshots.
        let dir = temp_dir("unretractable");
        let (mut durable, _) =
            ArrivalPipeline::new(sharded(&schema()), WindowPolicy::count(2).unwrap())
                .open_log(&dir, WalOptions::default())
                .unwrap();
        let rows = raw_rows(41, 3);
        feed(&mut durable, &rows[..2], 2);
        let tuples = encode(&mut durable, &rows[2..]);
        assert!(matches!(
            durable.ingest_batch_slice(&tuples),
            Err(SitFactError::InvalidConfig(_))
        ));
        assert_eq!(durable.stats().wal.durable_rows, 3, "the window was logged");
        assert!(matches!(
            durable.ingest_batch_slice(&tuples),
            Err(SitFactError::Io(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_window_is_not_logged() {
        let dir = temp_dir("empty");
        let (mut durable, _) = open(&dir, WindowPolicy::Unbounded, WalOptions::default());
        assert_eq!(durable.ingest_batch_slice(&[]).unwrap(), Vec::new());
        assert_eq!(durable.stats().wal.durable_rows, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejected_window_is_not_logged() {
        let dir = temp_dir("rejected");
        let (mut durable, _) = open(&dir, WindowPolicy::Unbounded, WalOptions::default());
        let bad = Tuple::new(vec![0], vec![1.0]); // wrong arity
        assert!(durable.ingest(bad).is_err());
        assert_eq!(durable.stats().wal.durable_rows, 0, "nothing may be logged");
        assert!(
            !durable.log.as_ref().unwrap().broken,
            "a rejected row is not divergence"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The resharding property: replaying one arrival log into sharded
    /// monitors with different shard counts reproduces the original
    /// (anchored) monitor's reports exactly, over random schemas, streams,
    /// window sizes, and snapshot intervals.
    #[test]
    fn resharded_replay_is_equivalent_to_original() {
        let mut rng = StdRng::seed_from_u64(0xD00D);
        for case in 0..6 {
            let dir = temp_dir(&format!("reshard-{case}"));
            let n_dims = rng.gen_range(2..4usize);
            let n_measures = rng.gen_range(1..3usize);
            let mut builder = SchemaBuilder::new("reshard");
            for d in 0..n_dims {
                builder = builder.dimension(format!("d{d}"));
            }
            for m in 0..n_measures {
                builder = builder.measure(format!("v{m}"), Direction::HigherIsBetter);
            }
            let schema = builder.build().unwrap();
            let anchor = rng.gen_range(0..n_dims);
            let config = MonitorConfig::default()
                .with_tau(1.0)
                .with_discovery(DiscoveryConfig::default().with_anchor(anchor));
            let window = rng.gen_range(1..7usize);
            let n_rows = rng.gen_range(20..45usize);
            let rows: Vec<(Vec<String>, Vec<f64>)> = (0..n_rows)
                .map(|_| {
                    let dims = (0..n_dims)
                        .map(|d| format!("d{d}v{}", rng.gen_range(0..4u32)))
                        .collect();
                    let measures = (0..n_measures)
                        .map(|_| f64::from(rng.gen_range(0..25u32)))
                        .collect();
                    (dims, measures)
                })
                .collect();
            let snapshot_every = rng.gen_range(5..20u64);
            let opts = WalOptions::default().with_snapshot_every(snapshot_every);

            // Original: a logged unsharded monitor with an anchored config.
            let (mut original, _) =
                ArrivalPipeline::new(fresh(&schema, config), WindowPolicy::Unbounded)
                    .open_log(&dir, opts)
                    .unwrap();
            let expected = feed(&mut original, &rows, window);
            drop(original);

            // Replay the raw log into sharded monitors of varying widths.
            let routing_attr = format!("d{anchor}");
            for shards in [1usize, 2, 3] {
                let sharded = ShardedMonitor::by_attribute(
                    schema.clone(),
                    &routing_attr,
                    shards,
                    config,
                    STopDown::new,
                )
                .unwrap();
                let outcome = Served::from(sharded).replay(&dir).unwrap();
                assert_eq!(outcome.rows, n_rows as u64);
                assert_eq!(outcome.dropped_bytes, 0);
                assert_eq!(
                    outcome.reports, expected,
                    "case {case}: {shards}-shard replay must reproduce the original reports"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Recovery must land on identical state regardless of the snapshot
    /// interval the directory was written with.
    #[test]
    fn recovery_state_is_independent_of_snapshot_interval() {
        let schema = schema();
        let config = config();
        let rows = raw_rows(23, 36);
        let mut baseline = fresh(&schema, config);
        let expected = feed(&mut baseline, &rows, 5);

        for (tag, opts) in [
            ("nosnap", WalOptions::default()),
            ("snap7", WalOptions::default().with_snapshot_every(7)),
            ("snap50", WalOptions::default().with_snapshot_every(50)),
        ] {
            let dir = temp_dir(&format!("interval-{tag}"));
            let (mut durable, _) = open(&dir, WindowPolicy::Unbounded, opts);
            feed(&mut durable, &rows, 5);
            std::mem::forget(durable);
            let (recovered, _) = open(&dir, WindowPolicy::Unbounded, opts);
            assert_eq!(recovered.inner().len(), baseline.len(), "{tag}");
            assert_eq!(
                recovered.stats().postings,
                baseline.stats().postings,
                "{tag}"
            );
            assert_eq!(recovered.last_report(), expected.last(), "{tag}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A sharded monitor is durable through its log alone; a snapshot
    /// interval, which it could never honour, is refused up front.
    #[test]
    fn sharded_monitor_is_logged_without_snapshots() {
        let dir = temp_dir("sharded-log");
        let (mut durable, _) = ArrivalPipeline::new(sharded(&schema()), WindowPolicy::Unbounded)
            .open_log(&dir, WalOptions::default())
            .unwrap();
        let rows = raw_rows(43, 12);
        let expected = feed(&mut durable, &rows, 4);
        assert_eq!(durable.stats().wal.durable_rows, 12);
        drop(durable);
        let (recovered, recovery) =
            ArrivalPipeline::new(sharded(&schema()), WindowPolicy::Unbounded)
                .open_log(&dir, WalOptions::default())
                .unwrap();
        assert_eq!(recovery.replayed_rows, 12);
        assert_eq!(recovered.last_report(), expected.last());
        assert!(snapshots(&dir).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_monitor_refuses_a_snapshot_interval() {
        let dir = temp_dir("sharded-snap");
        let opts = WalOptions::default().with_snapshot_every(16);
        let err = ArrivalPipeline::new(sharded(&schema()), WindowPolicy::Unbounded)
            .open_log(&dir, opts)
            .err()
            .expect("a snapshot interval on a sharded monitor is refused");
        assert!(matches!(err, SitFactError::InvalidConfig(ref m) if m.contains("snapshot")));
        assert!(!dir.exists(), "nothing is written");
    }
}
