//! The on-disk half of a logged [`ArrivalPipeline`](crate::ArrivalPipeline):
//! its options, a window's raw rows, snapshot files, and log replay.
//!
//! A monitor's state is a pure function of its raw arrival sequence, so the
//! log stores **raw strings**, not interned ids: the same log replays into
//! any monitor over the relation, one with a different shard count included
//! ([`Served::replay`](crate::Served::replay)). Snapshots bound replay: every
//! `snapshot_every` rows ([`WalOptions`]) the monitor's full state
//! ([`FactMonitor::export_durable`](crate::FactMonitor::export_durable))
//! goes to a single-frame file next to the log segments, and recovery replays only the suffix behind the newest
//! intact one. A corrupt snapshot degrades to an older one or to full
//! replay; a torn log tail is truncated by `ArrivalLog::open` and counted in
//! the [`RecoveryReport`]. A window is acknowledged only after its append
//! returned, so a dropped tail only ever holds windows never acked.

use crate::fact::{ArrivalReport, RankedFact};
use crate::served::Served;
use sitfact_core::{
    Constraint, Result, Schema, SitFactError, SkylinePair, SubspaceMask, Tuple, TupleId,
};
use sitfact_storage::wal::{self, ByteCursor};
use sitfact_storage::{LoggedRow, SyncPolicy, WindowRecord};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Configuration of a logged pipeline's log and snapshot behaviour.
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

/// What [`ArrivalPipeline::open_log`](crate::ArrivalPipeline::open_log) did
/// to rebuild the monitor's state.
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

/// What a full-log replay ([`Served::replay`](crate::Served::replay))
/// reproduced from a raw arrival log.
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

/// Validates a window against `schema` and renders it back to the raw
/// strings the log stores, as the window starting at row `first_id`.
pub(crate) fn window_record(
    schema: &Schema,
    first_id: usize,
    tuples: &[Tuple],
) -> Result<WindowRecord> {
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
    Ok(WindowRecord {
        first_id: first_id as u64,
        rows,
    })
}

/// Re-encodes one logged window through `encode` (a monitor's
/// `encode_raw`); the window must start at row `have`, where the monitor
/// ends.
pub(crate) fn encode_window(
    have: usize,
    window: &WindowRecord,
    mut encode: impl FnMut(&[&str], Vec<f64>) -> Result<Tuple>,
) -> Result<Vec<Tuple>> {
    if window.first_id != have as u64 {
        return Err(SitFactError::Parse(format!(
            "arrival log out of sequence: window starts at row {} but the monitor holds {have} rows",
            window.first_id
        )));
    }
    window
        .rows
        .iter()
        .map(|row| {
            let dims: Vec<&str> = row.dims.iter().map(String::as_str).collect();
            encode(&dims, row.measures.clone())
        })
        .collect()
}

/// The window loop of a full-log replay into a monitor holding `held` rows:
/// windows the monitor already covers are skipped, every later one goes
/// through `ingest` (encode and batch-ingest), and the reports are gathered.
pub(crate) fn replay_windows(
    dir: &Path,
    held: usize,
    mut ingest: impl FnMut(&WindowRecord) -> Result<Vec<ArrivalReport>>,
) -> Result<ReplayOutcome> {
    let scanned = wal::scan_log(dir)?;
    let mut reports = Vec::new();
    let mut windows = 0u64;
    let mut rows = 0u64;
    for window in &scanned.windows {
        if window.first_id + window.rows.len() as u64 <= held as u64 {
            continue;
        }
        reports.extend(ingest(window)?);
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

/// The arrival-report codec: a snapshot stores the last acknowledged report,
/// so recovery reproduces it without replaying its window.
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
        let rows = entry.file_name().to_str().and_then(|name| {
            let stem = name.strip_prefix("snapshot-")?.strip_suffix(".snap")?;
            stem.parse::<u64>().ok()
        });
        if let Some(rows) = rows {
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

/// Restores `monitor` from the newest intact snapshot in `dir`, returning
/// the rows it covers and the last report it recorded. A corrupt snapshot
/// degrades to an older one; none, or a sharded monitor (its durable form
/// is the log alone), gives `(0, None)` and recovery replays the whole log.
pub(crate) fn restore_newest(
    dir: &Path,
    monitor: &mut Served,
) -> Result<(u64, Option<ArrivalReport>)> {
    let Served::Plain(monitor) = monitor else {
        return Ok((0, None));
    };
    for (named_rows, path) in list_snapshots(dir)? {
        let Ok(bytes) = fs::read(&path) else { continue };
        let Ok((covered, report, blob)) = parse_snapshot(&bytes) else {
            continue;
        };
        if covered != named_rows {
            continue;
        }
        // A corrupt or mismatched snapshot falls back to an older one.
        if monitor.restore_durable(&blob).is_ok() {
            return Ok((covered, report));
        }
    }
    Ok((0, None))
}

/// Writes the snapshot of the first `covered` rows to `dir`: a temporary
/// file, fsynced and renamed into place, so a crash mid-snapshot leaves the
/// previous snapshot intact. Older snapshots are pruned afterwards — the log
/// is never truncated here, so this cannot lose data.
pub(crate) fn write_snapshot(
    dir: &Path,
    covered: u64,
    last_report: Option<&ArrivalReport>,
    blob: &[u8],
) -> Result<()> {
    let mut payload = Vec::with_capacity(blob.len() + 64);
    wal::put_u64(&mut payload, covered);
    match last_report {
        Some(report) => {
            payload.push(1);
            encode_report(report, &mut payload);
        }
        None => payload.push(0),
    }
    wal::put_bytes(&mut payload, blob);
    let mut framed = Vec::with_capacity(payload.len() + 8);
    wal::write_frame(&mut framed, &payload)?;

    let tmp = dir.join("snapshot.tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&framed)?;
        file.sync_data()?;
    }
    fs::rename(&tmp, dir.join(snapshot_name(covered)))?;
    for (rows, path) in list_snapshots(dir)? {
        if rows != covered {
            let _ = fs::remove_file(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitfact_core::UNBOUND;

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
}
