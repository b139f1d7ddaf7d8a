//! [`DurableMonitor`]: write-ahead arrival logging and snapshot-bounded
//! crash recovery for any [`StreamMonitor`].
//!
//! The monitors themselves are deliberately volatile — their state is a pure
//! function of the raw arrival sequence. This module makes that property
//! load-bearing: the wrapper appends every accepted window to a checksummed
//! [`ArrivalLog`] *before* the window touches
//! the in-memory monitor, so after a crash the monitor is rebuilt by
//! replaying the log. Because the log stores **raw strings** (not interned
//! ids), the same log also replays into a monitor with a different shard
//! count — resharding a deployment is "replay the log into a new
//! [`ShardedMonitor`](crate::ShardedMonitor)", see [`replay_log`].
//!
//! Replay cost is bounded by **snapshots**: every `snapshot_every` rows (see
//! [`WalOptions`]) the wrapper asks the inner monitor for its full
//! serialized state ([`StreamMonitor::export_durable`]) and writes it to a
//! single-frame snapshot file next to the log segments. Recovery loads the
//! newest intact snapshot and replays only the log suffix behind it; a
//! corrupt or unreadable snapshot silently degrades to an older snapshot or
//! to full-log replay — the log is never truncated, so a lost snapshot never
//! loses data.
//!
//! Torn tails (a crash mid-`write`) are handled one layer down:
//! [`ArrivalLog::open`] truncates the damaged segment to its valid prefix
//! and reports how many bytes were dropped, which [`DurableMonitor::open`]
//! surfaces in its [`RecoveryReport`]. A window is acknowledged only after
//! its log append returned, so a dropped tail can only ever contain windows
//! that were never acked.

use crate::fact::{ArrivalReport, RankedFact};
use crate::monitor::MonitorConfig;
use crate::stream::{MonitorStats, StreamMonitor};
use sitfact_core::{
    Constraint, Result, Schema, SitFactError, SkylinePair, SubspaceMask, Tuple, TupleId, TupleRef,
};
use sitfact_storage::wal::{self, ByteCursor};
use sitfact_storage::{ArrivalLog, LoggedRow, SyncPolicy, WindowRecord};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Configuration of a [`DurableMonitor`]'s log and snapshot behaviour.
///
/// Builder-style: start from [`WalOptions::default()`] and chain `with_*`
/// setters.
///
/// ```
/// use sitfact_prominence::WalOptions;
/// use sitfact_storage::SyncPolicy;
///
/// let opts = WalOptions::default()
///     .with_sync(SyncPolicy::Os)
///     .with_snapshot_every(10_000);
/// assert_eq!(opts.snapshot_every, Some(10_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    /// When appended windows are forced to stable storage. The default,
    /// [`SyncPolicy::Always`], fsyncs before every ack (survives power
    /// loss); [`SyncPolicy::Os`] leaves flushing to the OS (survives a
    /// process kill, not a power cut).
    pub sync: SyncPolicy,
    /// Take a full-state snapshot after at least this many rows since the
    /// last one. `None` (the default) disables snapshots: recovery replays
    /// the whole log.
    pub snapshot_every: Option<u64>,
    /// Rotate to a new log segment file once the current one reaches this
    /// many bytes.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            sync: SyncPolicy::Always,
            snapshot_every: None,
            segment_bytes: 4 * 1024 * 1024,
        }
    }
}

impl WalOptions {
    /// Sets the sync policy.
    pub fn with_sync(mut self, sync: SyncPolicy) -> Self {
        self.sync = sync;
        self
    }

    /// Enables snapshots every `rows` ingested rows (at window boundaries;
    /// clamped to at least 1).
    pub fn with_snapshot_every(mut self, rows: u64) -> Self {
        self.snapshot_every = Some(rows.max(1));
        self
    }

    /// Disables periodic snapshots (recovery replays the full log).
    pub fn without_snapshots(mut self) -> Self {
        self.snapshot_every = None;
        self
    }

    /// Sets the log segment rotation size in bytes (clamped to at least
    /// 4 KiB so rotation stays coarser than single frames).
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes.max(4096);
        self
    }
}

/// What [`DurableMonitor::open`] did to rebuild the monitor's state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Rows restored from the newest intact snapshot (0 when no snapshot
    /// was usable or the monitor does not support snapshot restore).
    pub snapshot_rows: u64,
    /// Log windows replayed behind the snapshot.
    pub replayed_windows: u64,
    /// Rows replayed behind the snapshot.
    pub replayed_rows: u64,
    /// Bytes dropped behind a torn or corrupted log tail (0 for a clean
    /// shutdown). Dropped bytes can only hold windows that were never
    /// acknowledged.
    pub dropped_bytes: u64,
}

/// What [`replay_log`] reproduced from a raw arrival log.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Every arrival report the replayed stream produced, in arrival order.
    pub reports: Vec<ArrivalReport>,
    /// Number of windows replayed.
    pub windows: u64,
    /// Number of rows replayed.
    pub rows: u64,
    /// Bytes dropped behind a torn or corrupted log tail.
    pub dropped_bytes: u64,
}

// ---------------------------------------------------------------------------
// Arrival-report codec (stored inside snapshots so recovery can reproduce
// the last acknowledged report without replaying its window).
// ---------------------------------------------------------------------------

fn encode_report(report: &ArrivalReport, out: &mut Vec<u8>) {
    wal::put_u64(out, u64::from(report.tuple_id));
    wal::put_u32(out, report.prominent_count as u32);
    wal::put_u32(out, report.facts.len() as u32);
    for fact in &report.facts {
        let values = fact.pair.constraint.values();
        wal::put_u32(out, values.len() as u32);
        for &v in values {
            wal::put_u32(out, v);
        }
        wal::put_u32(out, fact.pair.subspace.0);
        wal::put_u64(out, fact.context_size);
        wal::put_u64(out, fact.skyline_size);
    }
}

fn decode_report(cur: &mut ByteCursor<'_>) -> Result<ArrivalReport> {
    let tuple_id = cur.get_u64()?;
    let tuple_id = TupleId::try_from(tuple_id).map_err(|_| {
        SitFactError::Parse(format!("snapshot report: tuple id {tuple_id} overflows"))
    })?;
    let prominent_count = cur.get_u32()? as usize;
    let nfacts = cur.get_count(13, "snapshot report facts")?;
    let mut facts = Vec::with_capacity(nfacts);
    for _ in 0..nfacts {
        let nvalues = cur.get_count(4, "snapshot report constraint values")?;
        let mut values = Vec::with_capacity(nvalues);
        for _ in 0..nvalues {
            values.push(cur.get_u32()?);
        }
        let subspace = SubspaceMask(cur.get_u32()?);
        let context_size = cur.get_u64()?;
        let skyline_size = cur.get_u64()?;
        facts.push(RankedFact {
            pair: SkylinePair::new(Constraint::from_values(values), subspace),
            context_size,
            skyline_size,
        });
    }
    if prominent_count > facts.len() {
        return Err(SitFactError::Parse(format!(
            "snapshot report: prominent count {prominent_count} exceeds {} facts",
            facts.len()
        )));
    }
    Ok(ArrivalReport {
        tuple_id,
        facts,
        prominent_count,
    })
}

// ---------------------------------------------------------------------------
// Snapshot files
// ---------------------------------------------------------------------------

fn snapshot_name(covered_rows: u64) -> String {
    format!("snapshot-{covered_rows:020}.snap")
}

/// Snapshot files in `dir`, newest (most rows covered) first.
fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(found),
        Err(err) => return Err(err.into()),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix("snapshot-")
            .and_then(|s| s.strip_suffix(".snap"))
        else {
            continue;
        };
        if let Ok(rows) = stem.parse::<u64>() {
            found.push((rows, entry.path()));
        }
    }
    found.sort_by_key(|entry| std::cmp::Reverse(entry.0));
    Ok(found)
}

/// Parses a snapshot file: `(covered_rows, last report, monitor state blob)`.
fn parse_snapshot(bytes: &[u8]) -> Result<(u64, Option<ArrivalReport>, Vec<u8>)> {
    let (frames, valid_end) = wal::scan_frames(bytes);
    if frames.len() != 1 || valid_end != bytes.len() {
        return Err(SitFactError::Parse(
            "snapshot file is not a single intact frame".to_string(),
        ));
    }
    let mut cur = ByteCursor::new(frames[0]);
    let covered = cur.get_u64()?;
    let report = match cur.get_u8()? {
        0 => None,
        1 => Some(decode_report(&mut cur)?),
        other => {
            return Err(SitFactError::Parse(format!(
                "snapshot: unknown report tag {other}"
            )))
        }
    };
    let blob = cur.get_bytes()?.to_vec();
    if !cur.is_empty() {
        return Err(SitFactError::Parse(format!(
            "snapshot: {} trailing bytes after state blob",
            cur.remaining()
        )));
    }
    Ok((covered, report, blob))
}

/// Replays one logged window into `monitor` through its batched fast path.
fn replay_window(
    monitor: &mut (impl StreamMonitor + ?Sized),
    window: &WindowRecord,
) -> Result<Vec<ArrivalReport>> {
    let have = monitor.len() as u64;
    if window.first_id != have {
        return Err(SitFactError::Parse(format!(
            "arrival log out of sequence: window starts at row {} but the monitor holds {have} rows",
            window.first_id
        )));
    }
    let mut tuples = Vec::with_capacity(window.rows.len());
    for row in &window.rows {
        let dims: Vec<&str> = row.dims.iter().map(String::as_str).collect();
        tuples.push(monitor.encode_raw(&dims, row.measures.clone())?);
    }
    monitor.ingest_batch_slice(&tuples)
}

/// Replays the **entire** raw arrival log in `dir` into a fresh monitor,
/// ignoring snapshots (which are shaped for the monitor that wrote them).
///
/// This is the resharding path: the log stores raw strings, so it replays
/// into *any* [`StreamMonitor`] over the same relation — in particular a
/// [`ShardedMonitor`](crate::ShardedMonitor) with a different shard count
/// than the monitor that produced the log. The reports the replay produces
/// are identical to the ones the original monitor acknowledged.
///
/// The monitor must be empty (or hold a prefix of the logged stream —
/// replay continues behind `monitor.len()` only if the windows line up).
pub fn replay_log(
    dir: impl AsRef<Path>,
    monitor: &mut (impl StreamMonitor + ?Sized),
) -> Result<ReplayOutcome> {
    let scanned = wal::scan_log(dir.as_ref())?;
    let mut reports = Vec::new();
    let mut windows = 0u64;
    let mut rows = 0u64;
    for window in &scanned.windows {
        if window.first_id + window.rows.len() as u64 <= monitor.len() as u64 {
            continue;
        }
        reports.extend(replay_window(monitor, window)?);
        windows += 1;
        rows += window.rows.len() as u64;
    }
    Ok(ReplayOutcome {
        reports,
        windows,
        rows,
        dropped_bytes: scanned.dropped_bytes,
    })
}

/// A [`StreamMonitor`] wrapper that logs every accepted window to a
/// write-ahead arrival log before acknowledging it, takes periodic
/// full-state snapshots, and rebuilds the wrapped monitor from
/// snapshot + log on [`DurableMonitor::open`].
///
/// The wrapper is itself a [`StreamMonitor`], so it slots in anywhere a
/// monitor does — the serve layer wraps its `Box<dyn StreamMonitor + Send>`
/// tenants in one when a data directory is configured.
///
/// ```
/// use sitfact_algos::STopDown;
/// use sitfact_core::{Direction, SchemaBuilder};
/// use sitfact_prominence::{
///     DurableMonitor, FactMonitor, MonitorConfig, StreamMonitor, WalOptions,
/// };
///
/// let dir = std::env::temp_dir().join(format!("sitfact-durable-doc-{}", std::process::id()));
/// let _ = std::fs::remove_dir_all(&dir);
/// let schema = SchemaBuilder::new("gamelog")
///     .dimension("player")
///     .dimension("team")
///     .measure("points", Direction::HigherIsBetter)
///     .build()
///     .unwrap();
/// let config = MonitorConfig::default().with_tau(1.0);
/// let fresh = || FactMonitor::new(schema.clone(), STopDown::new(&schema, config.discovery), config);
///
/// // First life: every accepted window is logged before it is acked.
/// let (mut monitor, _) = DurableMonitor::open(&dir, fresh(), WalOptions::default()).unwrap();
/// monitor.ingest_raw(&["Wesley", "Celtics"], vec![12.0]).unwrap();
/// monitor.ingest_raw(&["Sherman", "Hawks"], vec![9.0]).unwrap();
/// drop(monitor); // crash or shutdown — no flush step required
///
/// // Second life: recovery replays the log into a fresh monitor.
/// let (monitor, recovery) = DurableMonitor::open(&dir, fresh(), WalOptions::default()).unwrap();
/// assert_eq!(monitor.len(), 2);
/// assert_eq!(recovery.replayed_rows, 2);
/// # let _ = std::fs::remove_dir_all(&dir);
/// ```
pub struct DurableMonitor<M: StreamMonitor> {
    inner: M,
    log: ArrivalLog,
    dir: PathBuf,
    opts: WalOptions,
    last_report: Option<ArrivalReport>,
    rows_since_snapshot: u64,
    broken: bool,
}

impl<M: StreamMonitor> DurableMonitor<M> {
    /// Opens (or creates) the durable state in `dir` and rebuilds `inner`
    /// from it: the newest intact snapshot is restored (if `inner` supports
    /// it), then the log suffix behind the snapshot is replayed. `inner`
    /// must be freshly constructed (empty) with the same schema and
    /// configuration as the monitor that wrote the directory.
    pub fn open(
        dir: impl AsRef<Path>,
        inner: M,
        opts: WalOptions,
    ) -> Result<(Self, RecoveryReport)> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut inner = inner;
        if !inner.is_empty() {
            return Err(SitFactError::InvalidConfig(
                "durable recovery needs an empty monitor to rebuild into".to_string(),
            ));
        }

        // Newest intact snapshot wins; a corrupt one degrades to an older
        // snapshot, and a monitor without snapshot support to full replay.
        let mut snapshot_rows = 0u64;
        let mut last_report = None;
        for (named_rows, path) in list_snapshots(&dir)? {
            let Ok(bytes) = fs::read(&path) else { continue };
            let Ok((covered, report, blob)) = parse_snapshot(&bytes) else {
                continue;
            };
            if covered != named_rows {
                continue;
            }
            match inner.restore_durable(&blob) {
                Ok(true) => {
                    snapshot_rows = covered;
                    last_report = report;
                    break;
                }
                Ok(false) => break, // unsupported — full-log replay
                Err(_) => continue, // corrupt or mismatched — try older
            }
        }

        let (log, scanned) = ArrivalLog::open(&dir, opts.sync, opts.segment_bytes)?;
        let mut replayed_windows = 0u64;
        let mut replayed_rows = 0u64;
        for window in &scanned.windows {
            if window.first_id + window.rows.len() as u64 <= snapshot_rows {
                continue;
            }
            let reports = replay_window(&mut inner, window)?;
            if let Some(report) = reports.last() {
                last_report = Some(report.clone());
            }
            replayed_windows += 1;
            replayed_rows += window.rows.len() as u64;
        }

        let report = RecoveryReport {
            snapshot_rows,
            replayed_windows,
            replayed_rows,
            dropped_bytes: scanned.dropped_bytes,
        };
        Ok((
            DurableMonitor {
                inner,
                log,
                dir,
                opts,
                last_report,
                rows_since_snapshot: replayed_rows,
                broken: false,
            },
            report,
        ))
    }

    /// Read access to the wrapped monitor.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Unwraps into the inner monitor, abandoning the log handle.
    pub fn into_inner(self) -> M {
        self.inner
    }

    /// The data directory holding log segments and snapshots.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The options this monitor was opened with.
    pub fn options(&self) -> &WalOptions {
        &self.opts
    }

    /// The report of the most recently acknowledged arrival, surviving
    /// recovery (restored from the snapshot or reproduced by replay).
    pub fn last_report(&self) -> Option<&ArrivalReport> {
        self.last_report.as_ref()
    }

    /// Takes a full-state snapshot now, bounding future recovery replay to
    /// the log suffix behind it. Returns `Ok(false)` when the inner monitor
    /// cannot export full state (recovery then replays the whole log).
    ///
    /// The snapshot is written to a temporary file, fsynced, and renamed
    /// into place, so a crash mid-snapshot leaves the previous snapshot
    /// intact. Older snapshots are pruned afterwards — the log is never
    /// truncated, so this cannot lose data.
    pub fn snapshot_now(&mut self) -> Result<bool> {
        let Some(blob) = self.inner.export_durable() else {
            return Ok(false);
        };
        let covered = self.inner.len() as u64;
        let mut payload = Vec::with_capacity(blob.len() + 64);
        wal::put_u64(&mut payload, covered);
        match &self.last_report {
            Some(report) => {
                payload.push(1);
                encode_report(report, &mut payload);
            }
            None => payload.push(0),
        }
        wal::put_bytes(&mut payload, &blob);
        let mut framed = Vec::with_capacity(payload.len() + 8);
        wal::write_frame(&mut framed, &payload)?;

        let tmp = self.dir.join("snapshot.tmp");
        let final_path = self.dir.join(snapshot_name(covered));
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&framed)?;
            file.sync_data()?;
        }
        fs::rename(&tmp, &final_path)?;
        for (rows, path) in list_snapshots(&self.dir)? {
            if rows != covered {
                let _ = fs::remove_file(path);
            }
        }
        // The snapshot is durably in place: closed log segments whose
        // windows it fully covers are dead weight — recovery skips them —
        // so retire (delete) them. Only now, after the rename: a crash
        // before this point still recovers from the previous snapshot plus
        // the intact log.
        self.log.retire_covered(covered)?;
        self.rows_since_snapshot = 0;
        Ok(true)
    }

    /// The shared ingest core: validate → render raw rows → append to the
    /// log (the ack barrier) → ingest into the wrapped monitor → maybe
    /// snapshot.
    fn log_and_ingest(&mut self, tuples: &[Tuple]) -> Result<Vec<ArrivalReport>> {
        if self.broken {
            return Err(SitFactError::Io(
                "durable monitor is failed: a logged window was not applied; reopen to recover"
                    .to_string(),
            ));
        }
        if tuples.is_empty() {
            return Ok(Vec::new());
        }
        let schema = self.inner.schema();
        let mut rows = Vec::with_capacity(tuples.len());
        for tuple in tuples {
            tuple.validate(schema)?;
            let mut dims = Vec::with_capacity(tuple.dims().len());
            for (d, &id) in tuple.dims().iter().enumerate() {
                let value = schema.resolve_dim(d, id).ok_or_else(|| {
                    SitFactError::InvalidTuple(format!(
                        "dimension value id {id} has no entry in attribute {d}'s dictionary"
                    ))
                })?;
                dims.push(value.to_string());
            }
            rows.push(LoggedRow {
                dims,
                measures: tuple.measures().to_vec(),
            });
        }
        let record = WindowRecord {
            first_id: self.inner.len() as u64,
            rows,
        };
        self.log.append(&record)?;
        let reports = match self.inner.ingest_batch_slice(tuples) {
            Ok(reports) => reports,
            Err(err) => {
                // The log is now ahead of the monitor (the window was
                // durably appended but not applied); in-process state can
                // no longer be trusted to stay aligned with the log, so
                // refuse further ingest until a reopen replays the log.
                // Pre-validation above makes this path unreachable for
                // validation failures.
                self.broken = true;
                return Err(err);
            }
        };
        if let Some(last) = reports.last() {
            self.last_report = Some(last.clone());
        }
        self.rows_since_snapshot += tuples.len() as u64;
        if let Some(every) = self.opts.snapshot_every {
            if self.rows_since_snapshot >= every {
                self.snapshot_now()?;
            }
        }
        Ok(reports)
    }
}

impl<M: StreamMonitor> StreamMonitor for DurableMonitor<M> {
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
        let mut reports = self.log_and_ingest(std::slice::from_ref(&tuple))?;
        reports
            .pop()
            .ok_or_else(|| SitFactError::Io("ingest of one tuple produced no report".to_string()))
    }

    fn ingest_batch_slice(&mut self, tuples: &[Tuple]) -> Result<Vec<ArrivalReport>> {
        self.log_and_ingest(tuples)
    }

    // evict_prefix deliberately keeps the erroring default: an eviction the
    // log does not encode could not be re-applied by replay, so recovered
    // state would diverge from the live monitor. Window-policy evictions
    // compose correctly the other way around —
    // `DurableMonitor<WindowedMonitor<…>>` — because the wrapper inside
    // evicts at the logged batch boundaries replay re-feeds.

    fn stats(&self) -> MonitorStats {
        MonitorStats {
            wal: self.log.stats(),
            ..self.inner.stats()
        }
    }

    fn export_durable(&self) -> Option<Vec<u8>> {
        self.inner.export_durable()
    }

    // restore_durable deliberately keeps the `Ok(false)` default: restoring
    // state out-of-band would desynchronize monitor and log. Recovery goes
    // through `DurableMonitor::open`.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::FactMonitor;
    use crate::sharded::ShardedMonitor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sitfact_algos::STopDown;
    use sitfact_core::{Direction, DiscoveryConfig, Schema, SchemaBuilder, UNBOUND};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sitfact-durable-{tag}-{}-{:?}",
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

    /// Feeds `rows` in windows of `window` through the monitor's batch path.
    fn feed(
        monitor: &mut (impl StreamMonitor + ?Sized),
        rows: &[(Vec<String>, Vec<f64>)],
        window: usize,
    ) -> Vec<ArrivalReport> {
        let mut reports = Vec::new();
        for chunk in rows.chunks(window.max(1)) {
            let tuples: Vec<Tuple> = chunk
                .iter()
                .map(|(dims, measures)| {
                    let dims: Vec<&str> = dims.iter().map(String::as_str).collect();
                    monitor.encode_raw(&dims, measures.clone()).unwrap()
                })
                .collect();
            reports.extend(monitor.ingest_batch_slice(&tuples).unwrap());
        }
        reports
    }

    #[test]
    fn report_codec_roundtrip() {
        let report = ArrivalReport {
            tuple_id: 41,
            facts: vec![
                RankedFact {
                    pair: SkylinePair::new(
                        Constraint::from_values(vec![3, UNBOUND, 1]),
                        SubspaceMask(0b11),
                    ),
                    context_size: 12,
                    skyline_size: 2,
                },
                RankedFact {
                    pair: SkylinePair::new(
                        Constraint::from_values(vec![UNBOUND, UNBOUND, UNBOUND]),
                        SubspaceMask(0b01),
                    ),
                    context_size: 40,
                    skyline_size: 5,
                },
            ],
            prominent_count: 1,
        };
        let mut buf = Vec::new();
        encode_report(&report, &mut buf);
        let mut cur = ByteCursor::new(&buf);
        let decoded = decode_report(&mut cur).unwrap();
        assert!(cur.is_empty());
        assert_eq!(decoded, report);
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

        // First life: logged monitor, same stream, then a simulated crash
        // (no Drop, no flush call — the per-window write is the only ack).
        let (mut durable, recovery) =
            DurableMonitor::open(&dir, fresh(&schema, config), WalOptions::default()).unwrap();
        assert_eq!(recovery, RecoveryReport::default());
        let live = feed(&mut durable, &rows[..40], 8);
        assert_eq!(live, expected, "logging must not change reports");
        std::mem::forget(durable);

        // Second life: recovered monitor must be indistinguishable.
        let (mut recovered, recovery) =
            DurableMonitor::open(&dir, fresh(&schema, config), WalOptions::default()).unwrap();
        assert_eq!(recovery.replayed_rows, 40);
        assert_eq!(recovery.dropped_bytes, 0);
        assert_eq!(recovered.len(), reference.len());
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

    #[test]
    fn retired_segments_do_not_break_recovery() {
        let dir = temp_dir("retire");
        let schema = schema();
        let config = config();
        let rows = raw_rows(23, 240);
        // Small segments + periodic snapshots: segments rotate, snapshots
        // cover them, and `snapshot_now` retires the covered files.
        let opts = WalOptions::default()
            .with_sync(SyncPolicy::Os)
            .with_snapshot_every(40)
            .with_segment_bytes(4096);

        let mut reference = fresh(&schema, config);
        let mut expected = feed(&mut reference, &rows[..200], 8);

        let (mut durable, _) = DurableMonitor::open(&dir, fresh(&schema, config), opts).unwrap();
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
        let (mut recovered, recovery) =
            DurableMonitor::open(&dir, fresh(&schema, config), opts).unwrap();
        assert!(recovery.snapshot_rows > 0);
        assert_eq!(recovery.snapshot_rows + recovery.replayed_rows, 200);
        assert_eq!(recovery.dropped_bytes, 0);
        assert_eq!(recovered.len(), reference.len());
        assert_eq!(recovered.stats().postings, reference.stats().postings);
        assert_eq!(recovered.last_report(), expected.last());
        expected.extend(feed(&mut reference, &rows[200..], 8));
        let resumed = feed(&mut recovered, &rows[200..], 8);
        assert_eq!(resumed, expected[200..], "post-recovery reports must match");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn windowed_durable_kill_and_recover_is_byte_identical() {
        use crate::window::{WindowPolicy, WindowedMonitor};
        let dir = temp_dir("windowed");
        let schema = schema();
        let config = config();
        let rows = raw_rows(29, 90);
        let policy = WindowPolicy::count(24).unwrap();
        let opts = WalOptions::default()
            .with_sync(SyncPolicy::Os)
            .with_snapshot_every(32);

        // Ground truth: a windowed monitor that never crashed, never logged.
        let mut reference = WindowedMonitor::new(fresh(&schema, config), policy);
        let mut expected = feed(&mut reference, &rows[..60], 7);

        let (mut durable, _) = DurableMonitor::open(
            &dir,
            WindowedMonitor::new(fresh(&schema, config), policy),
            opts,
        )
        .unwrap();
        let live = feed(&mut durable, &rows[..60], 7);
        assert_eq!(live, expected, "logging must not disturb the window");
        assert_eq!(durable.stats().live_rows, 24);
        std::mem::forget(durable);

        // Replay re-feeds the logged batch boundaries, so the wrapper inside
        // re-applies the same evictions at the same instants — no eviction
        // records exist in the log.
        let (mut recovered, recovery) = DurableMonitor::open(
            &dir,
            WindowedMonitor::new(fresh(&schema, config), policy),
            opts,
        )
        .unwrap();
        assert!(recovery.snapshot_rows > 0, "snapshots must cover evictions");
        assert_eq!(recovered.len(), reference.len());
        assert_eq!(recovered.stats().live_rows, reference.stats().live_rows);
        assert_eq!(recovered.stats().evicted, reference.stats().evicted);
        assert_eq!(recovered.stats().postings, reference.stats().postings);
        assert_eq!(recovered.last_report(), expected.last());
        expected.extend(feed(&mut reference, &rows[60..], 7));
        let resumed = feed(&mut recovered, &rows[60..], 7);
        assert_eq!(resumed, expected[60..], "post-recovery reports must match");
        recovered.inner().inner().audit().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshots_bound_replay() {
        let dir = temp_dir("snapbound");
        let schema = schema();
        let config = config();
        let rows = raw_rows(11, 48);
        let opts = WalOptions::default().with_snapshot_every(10);

        let (mut durable, _) = DurableMonitor::open(&dir, fresh(&schema, config), opts).unwrap();
        feed(&mut durable, &rows, 6);
        std::mem::forget(durable);

        let (recovered, recovery) =
            DurableMonitor::open(&dir, fresh(&schema, config), opts).unwrap();
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
        assert_eq!(recovered.len(), replayed.len());
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

        let (mut durable, _) = DurableMonitor::open(&dir, fresh(&schema, config), opts).unwrap();
        feed(&mut durable, &rows, 5);
        std::mem::forget(durable);

        // Flip a byte in the middle of every snapshot file.
        let mut corrupted = 0;
        for (_, path) in list_snapshots(&dir).unwrap() {
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&path, bytes).unwrap();
            corrupted += 1;
        }
        assert!(corrupted > 0);

        let (recovered, recovery) =
            DurableMonitor::open(&dir, fresh(&schema, config), opts).unwrap();
        assert_eq!(
            recovery.snapshot_rows, 0,
            "corrupt snapshot must be ignored"
        );
        assert_eq!(recovery.replayed_rows, rows.len() as u64);
        let mut replayed = fresh(&schema, config);
        feed(&mut replayed, &rows, 5);
        assert_eq!(recovered.len(), replayed.len());
        assert_eq!(recovered.stats().postings, replayed.stats().postings);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_recovers_valid_prefix() {
        let dir = temp_dir("torn");
        let schema = schema();
        let config = config();
        let rows = raw_rows(17, 24);

        let (mut durable, _) =
            DurableMonitor::open(&dir, fresh(&schema, config), WalOptions::default()).unwrap();
        feed(&mut durable, &rows, 4);
        let stats = durable.stats().wal;
        std::mem::forget(durable);

        // Tear the last segment mid-frame: chop 5 bytes off the end.
        let segments: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| {
                let path = e.unwrap().path();
                (path.extension().is_some_and(|x| x == "log")).then_some(path)
            })
            .collect();
        let last = segments.iter().max().unwrap();
        let bytes = std::fs::read(last).unwrap();
        std::fs::write(last, &bytes[..bytes.len() - 5]).unwrap();
        assert_eq!(stats.durable_rows, 24);

        let (recovered, recovery) =
            DurableMonitor::open(&dir, fresh(&schema, config), WalOptions::default()).unwrap();
        assert!(recovery.dropped_bytes > 0, "the torn tail must be reported");
        assert_eq!(
            recovery.replayed_rows, 20,
            "the last 4-row window sits in the torn frame"
        );
        // The recovered prefix matches a monitor that never saw the torn
        // window.
        let mut replayed = fresh(&schema, config);
        feed(&mut replayed, &rows[..20], 4);
        assert_eq!(recovered.len(), replayed.len());
        assert_eq!(recovered.stats().postings, replayed.stats().postings);

        // And the log keeps accepting appends after the truncation.
        let mut recovered = recovered;
        let more = feed(&mut recovered, &rows[20..], 4);
        assert_eq!(more.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_checksum_stops_replay_without_panic() {
        let dir = temp_dir("crc");
        let schema = schema();
        let config = config();
        let rows = raw_rows(19, 12);

        let (mut durable, _) =
            DurableMonitor::open(&dir, fresh(&schema, config), WalOptions::default()).unwrap();
        feed(&mut durable, &rows, 3);
        std::mem::forget(durable);

        // Corrupt one payload byte of the second frame in the first segment.
        let segment = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| {
                let path = e.unwrap().path();
                (path.extension().is_some_and(|x| x == "log")).then_some(path)
            })
            .min()
            .unwrap();
        let mut bytes = std::fs::read(&segment).unwrap();
        let first_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let second_payload = 8 + first_len + 8;
        bytes[second_payload] ^= 0x01;
        std::fs::write(&segment, bytes).unwrap();

        let (recovered, recovery) =
            DurableMonitor::open(&dir, fresh(&schema, config), WalOptions::default()).unwrap();
        assert_eq!(recovery.replayed_rows, 3, "replay stops at the bad frame");
        assert!(recovery.dropped_bytes > 0);
        assert_eq!(recovered.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn broken_after_divergence_refuses_ingest() {
        let dir = temp_dir("broken");
        let schema = schema();
        let config = config();
        let (mut durable, _) =
            DurableMonitor::open(&dir, fresh(&schema, config), WalOptions::default()).unwrap();
        // A tuple that passes pre-validation cannot make the inner ingest
        // fail, so force the flag directly to pin the refusal behaviour.
        durable.broken = true;
        let tuple = Tuple::new(vec![0, 0, 0], vec![1.0, 1.0]);
        assert!(matches!(durable.ingest(tuple), Err(SitFactError::Io(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_window_is_not_logged() {
        let dir = temp_dir("empty");
        let schema = schema();
        let config = config();
        let (mut durable, _) =
            DurableMonitor::open(&dir, fresh(&schema, config), WalOptions::default()).unwrap();
        assert_eq!(durable.ingest_batch_slice(&[]).unwrap(), Vec::new());
        assert_eq!(durable.stats().wal.durable_rows, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejected_window_is_not_logged() {
        let dir = temp_dir("rejected");
        let schema = schema();
        let config = config();
        let (mut durable, _) =
            DurableMonitor::open(&dir, fresh(&schema, config), WalOptions::default()).unwrap();
        let bad = Tuple::new(vec![0], vec![1.0]); // wrong arity
        assert!(durable.ingest(bad).is_err());
        assert_eq!(durable.stats().wal.durable_rows, 0, "nothing may be logged");
        assert!(
            !durable.broken,
            "a pre-validation failure is not divergence"
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

            // Original: a durable unsharded monitor with an anchored config.
            let (mut original, _) =
                DurableMonitor::open(&dir, fresh(&schema, config), opts).unwrap();
            let expected = feed(&mut original, &rows, window);
            drop(original);

            // Replay the raw log into sharded monitors of varying widths.
            let routing_attr = format!("d{anchor}");
            for shards in [1usize, 2, 3] {
                let mut sharded = ShardedMonitor::by_attribute(
                    schema.clone(),
                    &routing_attr,
                    shards,
                    config,
                    STopDown::new,
                )
                .unwrap();
                let outcome = replay_log(&dir, &mut sharded).unwrap();
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
            let (mut durable, _) =
                DurableMonitor::open(&dir, fresh(&schema, config), opts).unwrap();
            feed(&mut durable, &rows, 5);
            std::mem::forget(durable);
            let (recovered, _) = DurableMonitor::open(&dir, fresh(&schema, config), opts).unwrap();
            assert_eq!(recovered.len(), baseline.len(), "{tag}");
            assert_eq!(
                recovered.stats().postings,
                baseline.stats().postings,
                "{tag}"
            );
            assert_eq!(recovered.last_report(), expected.last(), "{tag}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn boxed_monitor_can_be_wrapped() {
        let dir = temp_dir("boxed");
        let schema = schema();
        let config = config();
        let boxed: Box<dyn StreamMonitor + Send> = Box::new(fresh(&schema, config));
        let (mut durable, _) = DurableMonitor::open(&dir, boxed, WalOptions::default()).unwrap();
        durable
            .ingest_raw(&["p1", "t1", "m0"], vec![3.0, 1.0])
            .unwrap();
        assert_eq!(durable.len(), 1);
        assert_eq!(durable.stats().wal.durable_rows, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
