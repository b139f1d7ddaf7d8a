//! The on-disk half of a logged [`ArrivalPipeline`](crate::ArrivalPipeline):
//! its options, what recovery and replay did, and snapshot files.
//!
//! A monitor's state is a pure function of its accepted raw arrival
//! sequence, so the log keeps each accepted window's rows **as received**
//! ([`RawRow`](sitfact_core::RawRow): strings, not interned ids), and a
//! window that fails validation interns nothing. The same log
//! replays into any monitor over the relation, one with a different shard
//! count included, through the pipeline's one replay loop, which encodes
//! the logged rows exactly as the live window was encoded. Snapshots bound
//! replay: every `snapshot_every` rows ([`WalOptions`]) the monitor's full
//! state ([`Served::export_durable`]) goes to a single-frame file next to
//! the log segments, and recovery replays only the suffix behind the newest
//! intact one. A corrupt snapshot degrades to an older one or to full
//! replay; a torn log tail is truncated by `ArrivalLog::open` and counted in
//! the [`RecoveryReport`]. A window is acknowledged only after its append
//! returned, so a dropped tail only ever holds windows never acked.
#![deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]

use crate::fact::{ArrivalReport, RankedFact};
use crate::served::Served;
use sitfact_core::{Constraint, Result, SitFactError, SkylinePair, SubspaceMask, TupleId};
use sitfact_storage::wal::{self, ByteCursor};
use sitfact_storage::SyncPolicy;
use std::fs;
use std::path::Path;

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

/// What a whole-log [`replay`](crate::ArrivalPipeline::replay) reproduced.
#[derive(Debug, Clone, Default, PartialEq)]
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

/// The arrival-report codec: a snapshot stores the last acknowledged report,
/// so recovery reproduces it without replaying its window.
fn encode_report(report: &ArrivalReport, out: &mut Vec<u8>) -> Result<()> {
    wal::put_u64(out, u64::from(report.tuple_id));
    wal::put_len(out, report.prominent_count, "prominent fact count")?;
    wal::put_len(out, report.facts.len(), "report fact count")?;
    for fact in &report.facts {
        let values = fact.pair.constraint.values();
        wal::put_len(out, values.len(), "constraint value count")?;
        for &v in values {
            wal::put_u32(out, v);
        }
        wal::put_u32(out, fact.pair.subspace.0);
        wal::put_u64(out, fact.context_size);
        wal::put_u64(out, fact.skyline_size);
    }
    Ok(())
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

/// Parses a snapshot file: `(covered_rows, last report, monitor state blob)`,
/// the blob borrowed from `bytes`.
fn parse_snapshot(bytes: &[u8]) -> Result<(u64, Option<ArrivalReport>, &[u8])> {
    // The file is read whole, so the file bounds its one frame.
    let mut file = ByteCursor::new(bytes);
    let payload = file
        .frame(bytes.len())
        .ok()
        .filter(|_| file.is_empty())
        .ok_or_else(|| SitFactError::Parse("snapshot file is not a single intact frame".into()))?;
    let mut cur = ByteCursor::new(payload);
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
    let blob = cur.get_bytes()?;
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
/// degrades to an older one; none (a directory not yet created holds none),
/// or a monitor without a snapshot form, gives `(0, None)` and recovery
/// replays the whole log.
pub(crate) fn restore_newest(
    dir: &Path,
    monitor: &mut Served,
) -> Result<(u64, Option<ArrivalReport>)> {
    if !monitor.can_snapshot() || !dir.exists() {
        return Ok((0, None));
    }
    let snapshots = wal::numbered_files(dir, "snapshot-", ".snap")?;
    for (named_rows, path) in snapshots.into_iter().rev() {
        let Ok(bytes) = fs::read(&path) else { continue };
        let Ok((covered, report, blob)) = parse_snapshot(&bytes) else {
            continue;
        };
        if covered != named_rows {
            continue;
        }
        // A corrupt or mismatched snapshot falls back to an older one.
        if monitor.restore_durable(blob).is_ok() {
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
            encode_report(report, &mut payload)?;
        }
        None => payload.push(0),
    }
    wal::put_bytes(&mut payload, blob)?;

    let tmp = dir.join("snapshot.tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        // One frame as long as the state: the cap is the `u32` length field.
        wal::write_frame(&mut file, &payload, usize::MAX)?;
        file.sync_data()?;
    }
    fs::rename(&tmp, dir.join(snapshot_name(covered)))?;
    for (rows, path) in wal::numbered_files(dir, "snapshot-", ".snap")? {
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
        encode_report(&report, &mut buf).unwrap();
        let mut cur = ByteCursor::new(&buf);
        let decoded = decode_report(&mut cur).unwrap();
        assert!(cur.is_empty());
        assert_eq!(decoded, report);
    }

    /// A snapshot file is read whole, so a state blob past the log's frame
    /// cap is written, and parsed back, as one frame.
    #[test]
    fn snapshot_larger_than_a_log_frame_round_trips() {
        let dir = std::env::temp_dir().join(format!(
            "sitfact-durable-big-snapshot-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let blob: Vec<u8> = (0..251u8).cycle().take(wal::MAX_WAL_FRAME + 1).collect();
        write_snapshot(&dir, 7, None, &blob).unwrap();
        let bytes = fs::read(dir.join(snapshot_name(7))).unwrap();
        let (covered, report, parsed) = parse_snapshot(&bytes).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!((covered, report), (7, None));
        assert!(
            parsed == blob,
            "the state blob must round-trip byte for byte"
        );
    }
}
