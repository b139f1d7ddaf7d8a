//! Write-ahead arrival log and snapshot state codecs.
//!
//! A monitor's state is a deterministic function of its arrival sequence
//! (reports are canonically ordered, the posting index is a pure function
//! of the table's columns, dictionary ids follow interning order), so durability
//! reduces to durably recording the *raw* arrivals: the log stores each
//! accepted window as one length-prefixed, checksummed frame of raw string
//! rows, and recovery replays the tail through the ordinary batched ingest
//! path. Periodic full-state snapshots (see the codecs below and
//! `sitfact-prominence`'s `ArrivalPipeline`) bound how much of the log must
//! be replayed.
//!
//! ## Frame layout
//!
//! ```text
//! frame   := len:u32le crc:u32le payload[len]     crc = CRC-32 (IEEE) of payload
//! window  := first_id:u64 nrows:u32 row*
//! row     := ndims:u32 nmeasures:u32 dim_utf8* measure_f64bits*
//! ```
//!
//! A torn or corrupted frame ends the usable log: scanning stops at the
//! first frame whose length or checksum does not hold, reports how many
//! bytes were dropped, and reopening truncates the segment back to its last
//! valid frame (later segments, unreachable behind the tear, are removed).
//! All failures are typed [`SitFactError`]s — a damaged log must never
//! panic the process that is trying to recover from damage.
//!
//! The log is segmented (`wal-<seq>.log`): appends rotate to a fresh
//! segment once the current one exceeds the configured size, so recovery
//! tooling and tests can reason about bounded files.

use crate::store::StoreCell;
use crate::table::Table;
use sitfact_core::{Direction, Result, Schema, SchemaBuilder, SitFactError};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Upper bound on a single frame's payload (64 MiB), mirroring the serve
/// crate's frame cap: a corrupt length field must not provoke a huge read.
pub const MAX_WAL_FRAME: usize = 64 * 1024 * 1024;

/// Bytes of frame header preceding every payload: `len:u32` + `crc:u32`.
const FRAME_HEADER: usize = 8;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven. Hand-rolled: the workspace vendors no
// checksum crate, and 20 lines of const-fn table building beat a dependency.
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE) of a byte slice — the per-frame checksum of the arrival log
/// and the snapshot files.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Little-endian byte codec helpers shared by the log, the snapshot codecs
// and the prominence-level report codec.
// ---------------------------------------------------------------------------

/// Appends a `u32` in little-endian order.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern (byte-exact round trip, no
/// decimal rendering involved).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Forward-only reader over an encoded buffer. Every accessor returns a
/// typed [`SitFactError::Parse`] on truncation instead of panicking, so the
/// decode paths satisfy the workspace's panic lints by construction.
#[derive(Debug)]
pub struct ByteCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteCursor<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteCursor { buf, pos: 0 }
    }

    fn truncated(&self, what: &str) -> SitFactError {
        SitFactError::Parse(format!(
            "truncated record: {what} at offset {} of {}",
            self.pos,
            self.buf.len()
        ))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.truncated(what));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` stored as its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_u32()? as usize;
        self.take(len, "byte string")
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str> {
        let bytes = self.get_bytes()?;
        std::str::from_utf8(bytes)
            .map_err(|err| SitFactError::Parse(format!("invalid UTF-8 in record: {err}")))
    }

    /// Reads a length prefix that the caller will loop over, guarding
    /// against lengths that could not possibly fit in the remaining bytes
    /// (`min_item_bytes` is the smallest encoding of one item).
    pub fn get_count(&mut self, min_item_bytes: usize, what: &str) -> Result<usize> {
        let count = self.get_u32()? as usize;
        self.bounded(count, min_item_bytes, what)
    }

    /// The check of [`ByteCursor::get_count`] for a count already read.
    fn bounded(&self, count: usize, min_item_bytes: usize, what: &str) -> Result<usize> {
        if count.saturating_mul(min_item_bytes.max(1)) > self.remaining() {
            return Err(SitFactError::Parse(format!(
                "implausible {what} count {count} with {} bytes remaining",
                self.remaining()
            )));
        }
        Ok(count)
    }
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Writes one `len | crc | payload` frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_WAL_FRAME {
        return Err(SitFactError::Io(format!(
            "refusing to write a {}-byte frame (cap {MAX_WAL_FRAME})",
            payload.len()
        )));
    }
    let mut header = [0u8; FRAME_HEADER];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    Ok(())
}

/// Splits a buffer into its valid frame payloads.
///
/// Returns the payloads plus the offset where the valid prefix ends — the
/// position of the first torn frame (length running past the buffer) or
/// corrupted frame (checksum mismatch, implausible length). `valid_end ==
/// buf.len()` means the whole buffer scanned clean.
pub fn scan_frames(buf: &[u8]) -> (Vec<&[u8]>, usize) {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while buf.len() - pos >= FRAME_HEADER {
        let len = u32::from_le_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]]) as usize;
        let crc = u32::from_le_bytes([buf[pos + 4], buf[pos + 5], buf[pos + 6], buf[pos + 7]]);
        let start = pos + FRAME_HEADER;
        if len > MAX_WAL_FRAME || start + len > buf.len() {
            break;
        }
        let payload = &buf[start..start + len];
        if crc32(payload) != crc {
            break;
        }
        frames.push(payload);
        pos = start + len;
    }
    (frames, pos)
}

// ---------------------------------------------------------------------------
// Window records
// ---------------------------------------------------------------------------

/// One raw arrival row exactly as the client submitted it: dimension value
/// strings plus measure values.
///
/// The log deliberately stores *strings*, not encoded
/// [`Tuple`](sitfact_core::Tuple)s: dictionary ids depend on interning
/// order, which a replay reproduces only if it re-interns the same raw
/// stream — and a raw log can also be replayed into a differently-sharded
/// monitor, whose shards intern independently.
#[derive(Debug, Clone, PartialEq)]
pub struct LoggedRow {
    /// Dimension values, one string per dimension attribute.
    pub dims: Vec<String>,
    /// Measure values, one per measure attribute.
    pub measures: Vec<f64>,
}

/// One logged ingest window: the id its first row received plus the raw
/// rows, in arrival order.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRecord {
    /// Tuple id assigned to the window's first row.
    pub first_id: u64,
    /// The window's rows, in arrival order.
    pub rows: Vec<LoggedRow>,
}

impl WindowRecord {
    /// Encodes the record into `out` (the payload of one log frame).
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.first_id);
        put_u32(out, self.rows.len() as u32);
        for row in &self.rows {
            put_u32(out, row.dims.len() as u32);
            put_u32(out, row.measures.len() as u32);
            for dim in &row.dims {
                put_str(out, dim);
            }
            for &m in &row.measures {
                put_f64(out, m);
            }
        }
    }

    /// Decodes a record from one frame payload.
    pub fn decode(payload: &[u8]) -> Result<WindowRecord> {
        let mut cur = ByteCursor::new(payload);
        let first_id = cur.get_u64()?;
        let nrows = cur.get_count(8, "window row")?;
        let mut rows = Vec::with_capacity(nrows);
        for _ in 0..nrows {
            let ndims = cur.get_count(4, "row dimension")?;
            let nmeasures = cur.get_count(8, "row measure")?;
            let mut dims = Vec::with_capacity(ndims);
            for _ in 0..ndims {
                dims.push(cur.get_str()?.to_string());
            }
            let mut measures = Vec::with_capacity(nmeasures);
            for _ in 0..nmeasures {
                measures.push(cur.get_f64()?);
            }
            rows.push(LoggedRow { dims, measures });
        }
        if !cur.is_empty() {
            return Err(SitFactError::Parse(format!(
                "window record has {} trailing bytes",
                cur.remaining()
            )));
        }
        Ok(WindowRecord { first_id, rows })
    }
}

// ---------------------------------------------------------------------------
// The segmented arrival log
// ---------------------------------------------------------------------------

/// When the log forces appended frames onto stable storage.
///
/// Every append always *writes* the full frame (plain `write` syscalls), so
/// acked windows survive a process kill under either policy; the policy
/// decides whether each window additionally pays an `fsync`, which is what
/// survives power loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// `fsync` after every appended window (durable against power loss).
    #[default]
    Always,
    /// Leave flushing to the operating system (durable against process
    /// crashes only; the bench's fast leg).
    Os,
}

impl SyncPolicy {
    /// Stable lowercase name, recorded in `BENCH_wal.json`.
    pub fn name(self) -> &'static str {
        match self {
            SyncPolicy::Always => "always",
            SyncPolicy::Os => "os",
        }
    }
}

/// Aggregate counters of an arrival log, surfaced through the serve `STATS`
/// verb.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Number of live segment files.
    pub segments: u64,
    /// Total bytes across all live segments.
    pub bytes: u64,
    /// Rows durably appended to the log (the last synced id is
    /// `durable_rows - 1`).
    pub durable_rows: u64,
    /// Closed segment files deleted by [`ArrivalLog::retire_covered`]
    /// because a full-state snapshot covers every window they held. Counts
    /// this process's retirements (the counter restarts at zero on reopen —
    /// retired files are gone, so a fresh scan cannot see them).
    pub retired_segments: u64,
}

/// What scanning an existing log directory found.
#[derive(Debug, Clone, PartialEq)]
pub struct ScannedLog {
    /// Every valid window, across segments, in append order.
    pub windows: Vec<WindowRecord>,
    /// Bytes dropped behind the first torn or corrupted frame (0 for a
    /// clean log).
    pub dropped_bytes: u64,
}

/// Segment file name for sequence number `seq`.
fn segment_name(seq: u64) -> String {
    format!("wal-{seq:010}.log")
}

/// Sorted `(seq, path)` pairs of the segment files present in `dir`.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            segments.push((seq, entry.path()));
        }
    }
    segments.sort_unstable_by_key(|&(seq, _)| seq);
    Ok(segments)
}

/// Reads every window of the log in `dir` without modifying anything on
/// disk — the replay entry point for re-sharding ("replay the same log
/// through a router with a new shard count") and for read-only inspection.
///
/// Scanning stops at the first torn or corrupted frame; everything behind
/// it (including whole later segments) is counted into
/// [`ScannedLog::dropped_bytes`].
pub fn scan_log(dir: &Path) -> Result<ScannedLog> {
    let mut windows = Vec::new();
    let mut dropped = 0u64;
    let segments = list_segments(dir)?;
    let mut torn = false;
    for (_, path) in &segments {
        let buf = std::fs::read(path)?;
        if torn {
            dropped += buf.len() as u64;
            continue;
        }
        let (frames, valid_end) = scan_frames(&buf);
        for payload in frames {
            windows.push(WindowRecord::decode(payload)?);
        }
        if valid_end != buf.len() {
            dropped += (buf.len() - valid_end) as u64;
            torn = true;
        }
    }
    Ok(ScannedLog {
        windows,
        dropped_bytes: dropped,
    })
}

/// The append side of the segmented write-ahead arrival log.
///
/// [`ArrivalLog::open`] scans whatever the directory already holds (see
/// [`scan_log`]), truncates the first damaged segment back to its last
/// valid frame, removes unreachable later segments, and positions the
/// writer after the last valid record.
#[derive(Debug)]
pub struct ArrivalLog {
    dir: PathBuf,
    file: File,
    segment_seq: u64,
    segment_bytes: u64,
    segment_limit: u64,
    closed: Vec<ClosedSegment>,
    retired: u64,
    durable_rows: u64,
    sync: SyncPolicy,
}

/// A rotated-out (no longer written) segment, remembered so snapshots can
/// retire it once they cover every window it holds.
#[derive(Debug, Clone, Copy)]
struct ClosedSegment {
    seq: u64,
    bytes: u64,
    /// Id one past the last row whose window ends in this segment (windows
    /// never straddle a rotation). A snapshot covering `rows_end` rows makes
    /// the whole segment redundant.
    rows_end: u64,
}

impl ArrivalLog {
    /// Opens (or creates) the log in `dir`, returning the writer plus the
    /// scan of what already existed. `segment_limit` is the byte size past
    /// which appends rotate to a fresh segment.
    pub fn open(dir: &Path, sync: SyncPolicy, segment_limit: u64) -> Result<(Self, ScannedLog)> {
        std::fs::create_dir_all(dir)?;
        let mut scanned = ScannedLog {
            windows: Vec::new(),
            dropped_bytes: 0,
        };
        let segments = list_segments(dir)?;
        let mut keep: Vec<ClosedSegment> = Vec::new();
        let mut torn = false;
        // Retired logs no longer start at row 0: track the running
        // high-water id from the records themselves, not a sum of lengths.
        let mut rows_end = 0u64;
        for (seq, path) in &segments {
            let buf = std::fs::read(path)?;
            if torn {
                scanned.dropped_bytes += buf.len() as u64;
                std::fs::remove_file(path)?;
                continue;
            }
            let (frames, valid_end) = scan_frames(&buf);
            for payload in frames {
                let window = WindowRecord::decode(payload)?;
                rows_end = window.first_id + window.rows.len() as u64;
                scanned.windows.push(window);
            }
            if valid_end != buf.len() {
                scanned.dropped_bytes += (buf.len() - valid_end) as u64;
                torn = true;
                // Truncate the damaged segment back to its valid prefix so
                // future appends continue from the last good frame.
                let file = OpenOptions::new().write(true).open(path)?;
                file.set_len(valid_end as u64)?;
                file.sync_data()?;
            }
            keep.push(ClosedSegment {
                seq: *seq,
                bytes: valid_end as u64,
                rows_end,
            });
        }
        let (segment_seq, segment_bytes) = keep
            .last()
            .map(|active| (active.seq, active.bytes))
            .unwrap_or((0, 0));
        keep.truncate(keep.len().saturating_sub(1));
        let path = dir.join(segment_name(segment_seq));
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok((
            ArrivalLog {
                dir: dir.to_path_buf(),
                file,
                segment_seq,
                segment_bytes,
                segment_limit: segment_limit.max(1),
                closed: keep,
                retired: 0,
                durable_rows: rows_end,
                sync,
            },
            scanned,
        ))
    }

    /// Appends one window record as a checksummed frame, flushing it to the
    /// OS unconditionally and to stable storage per the [`SyncPolicy`].
    pub fn append(&mut self, record: &WindowRecord) -> Result<()> {
        if self.segment_bytes >= self.segment_limit {
            self.rotate()?;
        }
        let mut payload = Vec::with_capacity(64 + 16 * record.rows.len());
        record.encode(&mut payload);
        write_frame(&mut self.file, &payload)?;
        if matches!(self.sync, SyncPolicy::Always) {
            self.file.sync_data()?;
        }
        self.segment_bytes += (FRAME_HEADER + payload.len()) as u64;
        self.durable_rows = record.first_id + record.rows.len() as u64;
        Ok(())
    }

    fn rotate(&mut self) -> Result<()> {
        self.file.sync_data()?;
        self.closed.push(ClosedSegment {
            seq: self.segment_seq,
            bytes: self.segment_bytes,
            rows_end: self.durable_rows,
        });
        self.segment_seq += 1;
        let path = self.dir.join(segment_name(self.segment_seq));
        self.file = OpenOptions::new().create(true).append(true).open(&path)?;
        self.segment_bytes = 0;
        Ok(())
    }

    /// Deletes every *closed* segment whose windows all end at or before
    /// `covered_rows` — the row count a committed snapshot fully captures.
    /// The active segment is never touched, so the log keeps accepting
    /// appends and a later [`ArrivalLog::open`] still finds a writable
    /// tail. Returns the number of files deleted.
    pub fn retire_covered(&mut self, covered_rows: u64) -> Result<u64> {
        let mut kept = Vec::with_capacity(self.closed.len());
        let mut retired = 0u64;
        let mut failure: Option<std::io::Error> = None;
        for segment in std::mem::take(&mut self.closed) {
            if failure.is_none() && segment.rows_end <= covered_rows {
                match std::fs::remove_file(self.dir.join(segment_name(segment.seq))) {
                    Ok(()) => retired += 1,
                    Err(err) => {
                        // Keep the segment in the books; a later snapshot
                        // retries the deletion.
                        failure = Some(err);
                        kept.push(segment);
                    }
                }
            } else {
                kept.push(segment);
            }
        }
        self.closed = kept;
        self.retired += retired;
        match failure {
            Some(err) => Err(err.into()),
            None => Ok(retired),
        }
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current counters (segments, bytes, durably appended rows).
    pub fn stats(&self) -> WalStats {
        WalStats {
            segments: self.closed.len() as u64 + 1,
            bytes: self.closed.iter().map(|s| s.bytes).sum::<u64>() + self.segment_bytes,
            durable_rows: self.durable_rows,
            retired_segments: self.retired,
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot state codecs: Table and skyline-store cells
// ---------------------------------------------------------------------------

/// Encodes a [`Schema`] — names, directions and the dimension dictionaries
/// in id order — so a snapshot restores the exact interning state.
fn encode_schema(schema: &Schema, out: &mut Vec<u8>) {
    put_str(out, schema.name());
    put_u32(out, schema.num_dimensions() as u32);
    for name in schema.dimension_names() {
        put_str(out, name);
    }
    put_u32(out, schema.num_measures() as u32);
    for measure in schema.measures() {
        put_str(out, &measure.name);
        out.push(match measure.direction {
            Direction::HigherIsBetter => 0,
            Direction::LowerIsBetter => 1,
        });
    }
    for dim in 0..schema.num_dimensions() {
        let dict = schema.dictionary(dim);
        put_u32(out, dict.len() as u32);
        for (_, value) in dict.iter() {
            put_str(out, value);
        }
    }
}

fn decode_schema(cur: &mut ByteCursor<'_>) -> Result<Schema> {
    let name = cur.get_str()?.to_string();
    let ndims = cur.get_count(1, "dimension name")?;
    let mut builder = SchemaBuilder::new(name);
    for _ in 0..ndims {
        builder = builder.dimension(cur.get_str()?);
    }
    let nmeasures = cur.get_count(1, "measure")?;
    for _ in 0..nmeasures {
        let name = cur.get_str()?.to_string();
        let direction = match cur.get_u8()? {
            0 => Direction::HigherIsBetter,
            1 => Direction::LowerIsBetter,
            other => {
                return Err(SitFactError::Parse(format!(
                    "unknown measure direction tag {other}"
                )))
            }
        };
        builder = builder.measure(name, direction);
    }
    let mut schema = builder.build()?;
    for dim in 0..ndims {
        let count = cur.get_count(1, "dictionary entry")?;
        for expect in 0..count {
            let value = cur.get_str()?;
            let id = schema.dictionary_mut(dim).intern(value);
            if id as usize != expect {
                return Err(SitFactError::Parse(format!(
                    "dictionary of dimension {dim} re-interned \"{value}\" to id {id}, \
                     expected {expect} (duplicate entry in snapshot?)"
                )));
            }
        }
    }
    Ok(schema)
}

/// Encodes a [`Table`]'s full state: schema (with dictionaries), the
/// retraction bounds and the flat columns, then a posting section of `0`
/// lists per dimension:
///
/// ```text
/// table    := schema len:u64 evicted:u64 watermark:u64 dim:u32* measure:f64*
///             postings{ndims}
/// postings := nlists:u32 list*
/// ```
///
/// The posting index is derived from the dims column, so it is not
/// serialized; [`decode_table`] rebuilds it. The `list*` grammar stays for
/// snapshots written while lists were stored compressed.
pub fn encode_table(table: &Table, out: &mut Vec<u8>) {
    let (schema, len, evicted, watermark, dims, measures) = table.state_parts();
    encode_schema(schema, out);
    put_u64(out, len as u64);
    // Retraction bounds travel with the columns; the tombstone bitmap is
    // derived from them on decode rather than serialized.
    put_u64(out, evicted as u64);
    put_u64(out, watermark as u64);
    for &d in dims {
        put_u32(out, d);
    }
    for &m in measures {
        put_f64(out, m);
    }
    for _ in 0..schema.num_dimensions() {
        put_u32(out, 0);
    }
}

/// Skips one posting list of the compressed layout older snapshots carry:
///
/// ```text
/// list := value:u32 len:u32 tail_start:u32 dead:u32
///         nblocks:u32 (max:u32 offset:u32 width:u8 count:u8)* nwords:u32 word:u32*
/// ```
fn skip_old_posting_list(cur: &mut ByteCursor<'_>) -> Result<()> {
    for _ in 0..4 {
        cur.get_u32()?;
    }
    let blocks = cur.get_count(10, "posting block")?;
    cur.take(blocks * 10, "posting blocks")?;
    let words = cur.get_count(4, "posting arena word")?;
    cur.take(words * 4, "posting arena")?;
    Ok(())
}

/// Decodes a table encoded by [`encode_table`], validating the retraction
/// bounds and column strides so a corrupted snapshot surfaces as a typed
/// error rather than a later panic. Posting lists an older snapshot carries
/// are parsed past and discarded: the index is rebuilt from the dims column.
pub fn decode_table(cur: &mut ByteCursor<'_>) -> Result<Table> {
    let schema = decode_schema(cur)?;
    let n_dims = schema.num_dimensions();
    let n_measures = schema.num_measures();
    let len = cur.get_u64()? as usize;
    let evicted = cur.get_u64()? as usize;
    let watermark = cur.get_u64()? as usize;
    if evicted > watermark || watermark > len {
        return Err(SitFactError::Parse(format!(
            "retraction bounds do not nest in snapshot: evicted {evicted} <= watermark \
             {watermark} <= len {len} violated"
        )));
    }
    let physical = len - evicted;
    let n_dim_cells = physical.checked_mul(n_dims).ok_or_else(|| {
        SitFactError::Parse(format!("implausible table length {len} in snapshot"))
    })?;
    if n_dim_cells.saturating_mul(4) > cur.remaining() {
        return Err(SitFactError::Parse(format!(
            "implausible table length {len} with {} bytes remaining",
            cur.remaining()
        )));
    }
    let mut dims = Vec::with_capacity(n_dim_cells);
    for _ in 0..n_dim_cells {
        dims.push(cur.get_u32()?);
    }
    let mut measures = Vec::with_capacity(physical * n_measures);
    for _ in 0..physical * n_measures {
        measures.push(cur.get_f64()?);
    }
    for _ in 0..n_dims {
        for _ in 0..cur.get_count(24, "posting list")? {
            skip_old_posting_list(cur)?;
        }
    }
    Table::from_state_parts(schema, len, evicted, watermark, dims, measures)
}

/// First word of the id-only cell layout [`encode_cells`] writes. The older
/// layout starts with its cell count instead, which can never be this value:
/// [`ByteCursor::get_count`] bounds a count by the bytes that remain, and an
/// old cell takes at least 12 of them.
const ID_ONLY_CELLS: u32 = u32::MAX;

/// Encodes dumped skyline-store cells ([`StoreCell`]) in a deterministic
/// order (sorted by constraint values, then subspace):
///
/// ```text
/// cells := 0xFFFFFFFF:u32 ncells:u32 cell*
/// cell  := nvalues:u32 value:u32* subspace:u32 nids:u32 id:u32*
/// ```
///
/// Cells hold tuple ids only; the measures travel once, in the table the
/// snapshot encodes next to them (see [`crate::store`]).
pub fn encode_cells(cells: &[StoreCell], out: &mut Vec<u8>) {
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by(|&a, &b| {
        (&cells[a].constraint, cells[a].subspace).cmp(&(&cells[b].constraint, cells[b].subspace))
    });
    put_u32(out, ID_ONLY_CELLS);
    put_u32(out, cells.len() as u32);
    for index in order {
        let cell = &cells[index];
        put_u32(out, cell.constraint.len() as u32);
        for &v in &cell.constraint {
            put_u32(out, v);
        }
        put_u32(out, cell.subspace);
        put_u32(out, cell.entries.len() as u32);
        for &id in &cell.entries {
            put_u32(out, id);
        }
    }
}

/// Decodes cells encoded by [`encode_cells`] for the `table` decoded from
/// the same snapshot. Every id must name a live row of that table.
///
/// Snapshots written before cells became id-only are still read — their
/// log segments may already be retired, so the snapshot is the only copy of
/// the state. That layout has no tag word and stores every entry's measures
/// after its id:
///
/// ```text
/// cells := ncells:u32 cell*
/// cell  := nvalues:u32 value:u32* subspace:u32 nentries:u32 entry*
/// entry := id:u32 nmeasures:u32 measure_f64bits*
/// ```
///
/// The table is now the only place measures live, so an old entry's
/// measures must equal its row's bit for bit. A dead id or a mismatch is a
/// typed [`SitFactError::Parse`].
pub fn decode_cells(cur: &mut ByteCursor<'_>, table: &Table) -> Result<Vec<StoreCell>> {
    let first = cur.get_u32()?;
    let id_only = first == ID_ONLY_CELLS;
    let ncells = if id_only {
        cur.get_count(12, "store cell")?
    } else {
        cur.bounded(first as usize, 12, "store cell")?
    };
    let mut cells = Vec::with_capacity(ncells);
    for _ in 0..ncells {
        let nvalues = cur.get_count(4, "constraint value")?;
        let mut constraint = Vec::with_capacity(nvalues);
        for _ in 0..nvalues {
            constraint.push(cur.get_u32()?);
        }
        let subspace = cur.get_u32()?;
        let nentries = cur.get_count(if id_only { 4 } else { 8 }, "cell entry")?;
        let mut entries = Vec::with_capacity(nentries);
        for _ in 0..nentries {
            let id = cur.get_u32()?;
            if !table.is_live(id) {
                return Err(SitFactError::Parse(format!(
                    "snapshot cell stores tuple {id}, which is not a live row of its table"
                )));
            }
            if !id_only {
                let row = table.tuple(id).measures();
                let nmeasures = cur.get_count(8, "entry measure")?;
                let mut same = nmeasures == row.len();
                for at in 0..nmeasures {
                    let bits = cur.get_f64()?.to_bits();
                    same &= row.get(at).is_some_and(|m| m.to_bits() == bits);
                }
                if !same {
                    return Err(SitFactError::Parse(format!(
                        "snapshot cell stores measures for tuple {id} that differ from its row"
                    )));
                }
            }
            entries.push(id);
        }
        cells.push(StoreCell {
            constraint,
            subspace,
            entries,
        });
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory_store::MemorySkylineStore;
    use crate::store::SkylineStore;
    use sitfact_core::{SubspaceMask, Tuple};

    fn sample_window(first_id: u64, rows: usize) -> WindowRecord {
        WindowRecord {
            first_id,
            rows: (0..rows)
                .map(|i| LoggedRow {
                    dims: vec![format!("p{i}"), "team".to_string()],
                    measures: vec![i as f64, 0.5 + i as f64],
                })
                .collect(),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sitfact-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip_and_reject_corruption() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"world!").unwrap();
        let (frames, end) = scan_frames(&buf);
        assert_eq!(frames, vec![&b"hello"[..], &b""[..], &b"world!"[..]]);
        assert_eq!(end, buf.len());

        // Flip one payload byte of the middle... the last frame: the scan
        // must stop exactly at that frame's header.
        let mut corrupt = buf.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        let (frames, end) = scan_frames(&corrupt);
        assert_eq!(frames.len(), 2);
        assert_eq!(end, buf.len() - (FRAME_HEADER + 6));

        // Truncate mid-frame: same stop-at-last-valid behaviour.
        let torn = &buf[..buf.len() - 3];
        let (frames, end) = scan_frames(torn);
        assert_eq!(frames.len(), 2);
        assert_eq!(end, torn.len() - (FRAME_HEADER + 3));
    }

    #[test]
    fn window_records_round_trip() {
        let record = sample_window(42, 5);
        let mut payload = Vec::new();
        record.encode(&mut payload);
        let decoded = WindowRecord::decode(&payload).unwrap();
        assert_eq!(decoded, record);
        // NaN-free exactness is bit-level: a tricky float survives.
        let tricky = WindowRecord {
            first_id: 0,
            rows: vec![LoggedRow {
                dims: vec!["x".into()],
                measures: vec![0.1 + 0.2, f64::MIN_POSITIVE, -0.0],
            }],
        };
        let mut payload = Vec::new();
        tricky.encode(&mut payload);
        let decoded = WindowRecord::decode(&payload).unwrap();
        assert_eq!(
            decoded.rows[0].measures[0].to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        assert_eq!(decoded.rows[0].measures[2].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn truncated_window_record_is_a_parse_error() {
        let record = sample_window(0, 3);
        let mut payload = Vec::new();
        record.encode(&mut payload);
        for cut in [1, payload.len() / 2, payload.len() - 1] {
            let err = WindowRecord::decode(&payload[..cut]).expect_err("truncated");
            assert!(matches!(err, SitFactError::Parse(_)), "cut at {cut}: {err}");
        }
        // Trailing garbage is rejected too.
        let mut extended = payload.clone();
        extended.push(7);
        assert!(WindowRecord::decode(&extended).is_err());
    }

    #[test]
    fn log_appends_and_reopens_cleanly() {
        let dir = temp_dir("clean");
        let (mut log, scanned) = ArrivalLog::open(&dir, SyncPolicy::Os, 1 << 20).unwrap();
        assert!(scanned.windows.is_empty());
        assert_eq!(scanned.dropped_bytes, 0);
        log.append(&sample_window(0, 3)).unwrap();
        log.append(&sample_window(3, 2)).unwrap();
        let stats = log.stats();
        assert_eq!(stats.segments, 1);
        assert_eq!(stats.durable_rows, 5);
        assert!(stats.bytes > 0);
        drop(log);

        let (log, scanned) = ArrivalLog::open(&dir, SyncPolicy::Always, 1 << 20).unwrap();
        assert_eq!(scanned.windows.len(), 2);
        assert_eq!(scanned.windows[0], sample_window(0, 3));
        assert_eq!(scanned.windows[1].first_id, 3);
        assert_eq!(scanned.dropped_bytes, 0);
        assert_eq!(log.stats().durable_rows, 5);
        assert_eq!(log.stats().bytes, stats.bytes);
        drop(log);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_rotates_segments_at_the_limit() {
        let dir = temp_dir("rotate");
        // A tiny limit: every append lands in a fresh segment after the 1st.
        let (mut log, _) = ArrivalLog::open(&dir, SyncPolicy::Os, 16).unwrap();
        for i in 0..4 {
            log.append(&sample_window(i * 2, 2)).unwrap();
        }
        assert_eq!(log.stats().segments, 4);
        assert_eq!(log.stats().durable_rows, 8);
        drop(log);
        // All segments scan back in order.
        let scanned = scan_log(&dir).unwrap();
        assert_eq!(scanned.windows.len(), 4);
        assert_eq!(
            scanned
                .windows
                .iter()
                .map(|w| w.first_id)
                .collect::<Vec<_>>(),
            vec![0, 2, 4, 6]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let dir = temp_dir("torn");
        let (mut log, _) = ArrivalLog::open(&dir, SyncPolicy::Os, 1 << 20).unwrap();
        log.append(&sample_window(0, 3)).unwrap();
        log.append(&sample_window(3, 3)).unwrap();
        drop(log);
        // Tear the last frame: chop 5 bytes off the segment.
        let path = dir.join(segment_name(0));
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 5).unwrap();
        drop(file);

        let (mut log, scanned) = ArrivalLog::open(&dir, SyncPolicy::Os, 1 << 20).unwrap();
        assert_eq!(scanned.windows.len(), 1, "only the intact window survives");
        assert!(scanned.dropped_bytes > 0);
        assert_eq!(log.stats().durable_rows, 3);
        // The log keeps working after truncation, and the re-appended
        // window replaces the torn one cleanly.
        log.append(&sample_window(3, 3)).unwrap();
        drop(log);
        let rescanned = scan_log(&dir).unwrap();
        assert_eq!(rescanned.windows.len(), 2);
        assert_eq!(rescanned.dropped_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_checksum_stops_the_scan_without_panicking() {
        let dir = temp_dir("crc");
        let (mut log, _) = ArrivalLog::open(&dir, SyncPolicy::Os, 1 << 20).unwrap();
        log.append(&sample_window(0, 2)).unwrap();
        log.append(&sample_window(2, 2)).unwrap();
        log.append(&sample_window(4, 2)).unwrap();
        drop(log);
        // Flip a byte inside the second frame's payload.
        let path = dir.join(segment_name(0));
        let mut buf = std::fs::read(&path).unwrap();
        let (frames, _) = scan_frames(&buf);
        assert_eq!(frames.len(), 3);
        let second_start = {
            let mut pos = 0usize;
            let len =
                u32::from_le_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]]) as usize;
            pos += FRAME_HEADER + len;
            pos + FRAME_HEADER + 4
        };
        buf[second_start] ^= 0xFF;
        std::fs::write(&path, &buf).unwrap();

        let scanned = scan_log(&dir).unwrap();
        assert_eq!(scanned.windows.len(), 1, "recovery stops at the corruption");
        assert!(scanned.dropped_bytes > 0);
        // Reopening truncates; the third (valid but unreachable) frame is
        // gone — the log never resurrects records behind a tear.
        let (log, reopened) = ArrivalLog::open(&dir, SyncPolicy::Os, 1 << 20).unwrap();
        assert_eq!(reopened.windows.len(), 1);
        assert_eq!(log.stats().durable_rows, 2);
        drop(log);
        let scanned = scan_log(&dir).unwrap();
        assert_eq!(scanned.dropped_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tear_in_middle_segment_drops_later_segments() {
        let dir = temp_dir("midtear");
        let (mut log, _) = ArrivalLog::open(&dir, SyncPolicy::Os, 16).unwrap();
        for i in 0..3 {
            log.append(&sample_window(i * 2, 2)).unwrap();
        }
        assert_eq!(log.stats().segments, 3);
        drop(log);
        // Corrupt segment 1: segment 2 becomes unreachable.
        let path = dir.join(segment_name(1));
        let mut buf = std::fs::read(&path).unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0xFF;
        std::fs::write(&path, &buf).unwrap();

        let (log, scanned) = ArrivalLog::open(&dir, SyncPolicy::Os, 16).unwrap();
        assert_eq!(scanned.windows.len(), 1);
        assert!(scanned.dropped_bytes > 0);
        assert_eq!(log.stats().durable_rows, 2);
        assert!(
            !dir.join(segment_name(2)).exists(),
            "unreachable segment removed"
        );
        drop(log);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retirement_deletes_only_covered_closed_segments() {
        let dir = temp_dir("retire");
        let (mut log, _) = ArrivalLog::open(&dir, SyncPolicy::Os, 16).unwrap();
        for i in 0..4 {
            log.append(&sample_window(i * 2, 2)).unwrap();
        }
        // Three closed segments (rows_end 2, 4, 6) plus the active one.
        assert_eq!(log.stats().segments, 4);
        // Coverage that lands mid-segment retires only the fully covered.
        assert_eq!(log.retire_covered(5).unwrap(), 2);
        let stats = log.stats();
        assert_eq!(stats.segments, 2);
        assert_eq!(stats.retired_segments, 2);
        assert!(!dir.join(segment_name(0)).exists());
        assert!(!dir.join(segment_name(1)).exists());
        assert!(dir.join(segment_name(2)).exists());
        // Idempotent at the same coverage.
        assert_eq!(log.retire_covered(5).unwrap(), 0);
        // The active segment survives even when fully covered.
        assert_eq!(log.retire_covered(100).unwrap(), 1);
        assert_eq!(log.stats().segments, 1);
        assert_eq!(log.stats().retired_segments, 3);
        drop(log);
        // A retired log reopens on its surviving suffix with the high-water
        // row count intact (ids no longer start at zero).
        let (log, scanned) = ArrivalLog::open(&dir, SyncPolicy::Os, 16).unwrap();
        assert_eq!(scanned.windows.len(), 1);
        assert_eq!(scanned.windows[0].first_id, 6);
        assert_eq!(log.stats().durable_rows, 8);
        assert_eq!(log.stats().retired_segments, 0, "counter is per-process");
        drop(log);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn table_state_round_trips_byte_exactly() {
        let schema = SchemaBuilder::new("gamelog")
            .dimension("player")
            .dimension("team")
            .measure("points", Direction::HigherIsBetter)
            .measure("turnovers", Direction::LowerIsBetter)
            .build()
            .unwrap();
        let mut table = Table::new(schema);
        // Two batches, the second bringing values the first never saw.
        let mut tuples = Vec::new();
        for i in 0..300u32 {
            let ids = table
                .schema_mut()
                .intern_dims(&[&format!("p{}", i % 7), ["X", "Y"][i as usize % 2]])
                .unwrap();
            tuples.push(Tuple::new(ids, vec![i as f64, (i % 13) as f64]));
        }
        table.append_batch(tuples).unwrap();
        let mut more = Vec::new();
        for i in 0..45u32 {
            let ids = table
                .schema_mut()
                .intern_dims(&[&format!("p{}", i % 11), "Z"])
                .unwrap();
            more.push(Tuple::new(ids, vec![i as f64, 1.0]));
        }
        table.append_batch(more).unwrap();

        let mut bytes = Vec::new();
        encode_table(&table, &mut bytes);
        let decoded = decode_table(&mut ByteCursor::new(&bytes)).unwrap();
        assert_eq!(decoded.len(), table.len());
        assert_eq!(decoded.posting_index_stats(), table.posting_index_stats());
        assert_eq!(decoded.approx_heap_bytes(), table.approx_heap_bytes());
        for ((a_id, a), (b_id, b)) in decoded.iter().zip(table.iter()) {
            assert_eq!((a_id, a), (b_id, b));
        }
        decoded.audit().unwrap();
        // Re-encoding the decoded table is byte-identical (deterministic
        // codec despite hash-map cells underneath).
        let mut again = Vec::new();
        encode_table(&decoded, &mut again);
        assert_eq!(again, bytes);

        // A flipped byte surfaces as a typed error somewhere — never a
        // panic. (Some flips only corrupt column *values*, which decode
        // fine; the point is that no flip may crash the decoder.)
        for at in (0..bytes.len()).step_by(17) {
            let mut bad = bytes.clone();
            bad[at] ^= 0x20;
            let _ = decode_table(&mut ByteCursor::new(&bad));
        }
    }

    /// A two-dimension table whose values come and go: rows `0..60` carry
    /// players `p0..p6`, later rows players `q0..q4`, and the team column
    /// alternates between two values throughout.
    fn churned_table(rows: u32) -> Table {
        let schema = SchemaBuilder::new("churn")
            .dimension("player")
            .dimension("team")
            .measure("m", Direction::HigherIsBetter)
            .build()
            .unwrap();
        let mut table = Table::new(schema);
        for i in 0..rows {
            let player = if i < 60 {
                format!("p{}", i % 7)
            } else {
                format!("q{}", i % 5)
            };
            table
                .append_raw(&[&player, ["X", "Y"][i as usize % 2]], vec![i as f64])
                .unwrap();
        }
        table
    }

    #[test]
    fn new_snapshots_write_no_posting_lists() {
        let mut table = churned_table(90);
        table.retract_prefix(20);
        let mut bytes = Vec::new();
        encode_table(&table, &mut bytes);
        // Skip the schema, the bounds and the columns: what is left is one
        // `0` list count per dimension.
        let mut cur = ByteCursor::new(&bytes);
        decode_schema(&mut cur).unwrap();
        for _ in 0..3 {
            cur.get_u64().unwrap();
        }
        let physical = table.len() - table.evicted_rows();
        for _ in 0..physical * 2 {
            cur.get_u32().unwrap();
        }
        for _ in 0..physical {
            cur.get_f64().unwrap();
        }
        assert_eq!(cur.remaining(), 2 * 4);
        assert_eq!(cur.get_u32().unwrap(), 0);
        assert_eq!(cur.get_u32().unwrap(), 0);
    }

    #[test]
    fn restored_index_equals_the_never_crashed_one_after_compaction() {
        let mut table = churned_table(100);
        table.retract_prefix(40);
        table.compact_retracted();
        // Every `p` row is gone after this compaction: their lists leave the
        // index, and the restore must not bring them back.
        table.retract_prefix(70);
        table.compact_retracted();
        for i in 0..30 {
            table
                .append_raw(&[&format!("r{}", i % 3), "Z"], vec![i as f64])
                .unwrap();
        }
        // Leave tombstones behind the last compaction too.
        table.retract_prefix(95);

        let mut bytes = Vec::new();
        encode_table(&table, &mut bytes);
        let restored = decode_table(&mut ByteCursor::new(&bytes)).unwrap();
        for attr in 0..2 {
            for value in 0..table.schema().dictionary(attr).len() as u32 {
                assert_eq!(
                    restored.posting_list(attr, value),
                    table.posting_list(attr, value),
                    "attr {attr} value {value}"
                );
            }
        }
        assert_eq!(restored.posting_index_stats(), table.posting_index_stats());
        assert_eq!(restored.approx_heap_bytes(), table.approx_heap_bytes());
        restored.audit().unwrap();
    }

    /// The table and cells blob of the `durable-v1` fixture's snapshot: a
    /// snapshot written while posting lists were stored compressed.
    fn durable_v1_blob() -> Vec<u8> {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../sitfact-prominence/tests/fixtures/durable-v1/snapshot-00000000000000000192.snap"
        );
        let bytes = std::fs::read(path).unwrap();
        let (frames, _) = scan_frames(&bytes);
        // payload := covered:u64 1:u8 report blob_len:u32 blob, where
        // report := tuple_id:u64 prominent:u32 nfacts:u32 fact* and
        // fact := nvalues:u32 value:u32* subspace:u32 context:u64 skyline:u64.
        let mut cur = ByteCursor::new(frames[0]);
        cur.get_u64().unwrap();
        assert_eq!(cur.get_u8().unwrap(), 1, "the snapshot carries a report");
        cur.get_u64().unwrap();
        cur.get_u32().unwrap();
        for _ in 0..cur.get_u32().unwrap() {
            for _ in 0..cur.get_u32().unwrap() {
                cur.get_u32().unwrap();
            }
            cur.get_u32().unwrap();
            cur.get_u64().unwrap();
            cur.get_u64().unwrap();
        }
        let blob_len = cur.get_u32().unwrap() as usize;
        assert_eq!(blob_len, cur.remaining());
        frames[0][frames[0].len() - blob_len..].to_vec()
    }

    #[test]
    fn every_truncation_of_an_old_layout_snapshot_is_a_typed_error() {
        let blob = durable_v1_blob();
        let mut cur = ByteCursor::new(&blob);
        let table = decode_table(&mut cur).unwrap();
        assert!(table.posting_index_stats().lists > 0);
        decode_cells(&mut cur, &table).unwrap();
        assert!(cur.is_empty());
        table.audit().unwrap();
        for end in 0..blob.len() {
            let mut cur = ByteCursor::new(&blob[..end]);
            let err = match decode_table(&mut cur) {
                Err(err) => err,
                Ok(table) => decode_cells(&mut cur, &table).unwrap_err(),
            };
            assert!(
                matches!(err, SitFactError::Parse(_)),
                "cut at {end}: {err:?}"
            );
        }
    }

    /// A two-measure table of `rows` rows, row `i` measuring `(i, i + 0.5)`.
    fn measured_table(rows: u32) -> Table {
        let schema = SchemaBuilder::new("cells")
            .dimension("d")
            .measure("m0", Direction::HigherIsBetter)
            .measure("m1", Direction::LowerIsBetter)
            .build()
            .unwrap();
        let mut table = Table::new(schema);
        for i in 0..rows {
            table
                .append(Tuple::new(vec![0], vec![i as f64, i as f64 + 0.5]))
                .unwrap();
        }
        table
    }

    /// `cells` in the layout snapshots had before cells became id-only:
    /// no tag word, each id followed by its row's measures.
    fn encode_cells_with_measures(cells: &[StoreCell], table: &Table) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, cells.len() as u32);
        for cell in cells {
            put_u32(&mut out, cell.constraint.len() as u32);
            for &v in &cell.constraint {
                put_u32(&mut out, v);
            }
            put_u32(&mut out, cell.subspace);
            put_u32(&mut out, cell.entries.len() as u32);
            for &id in &cell.entries {
                let measures = table.tuple(id).measures();
                put_u32(&mut out, id);
                put_u32(&mut out, measures.len() as u32);
                for &m in measures {
                    put_f64(&mut out, m);
                }
            }
        }
        out
    }

    fn sample_cells() -> Vec<StoreCell> {
        let mut store = MemorySkylineStore::new();
        let (c1, c2) = ([1, u32::MAX], [u32::MAX, 2]);
        let (mut row1, mut row2) = (None, None);
        store.insert(&mut row1, &c1, SubspaceMask(0b01), 0);
        store.insert(&mut row1, &c1, SubspaceMask(0b11), 1);
        store.insert(&mut row2, &c2, SubspaceMask(0b01), 3);
        store.insert(&mut row2, &c2, SubspaceMask(0b01), 2);
        let mut cells = store.dump_cells().expect("memory store dumps");
        cells.sort_by(|a, b| (&a.constraint, a.subspace).cmp(&(&b.constraint, b.subspace)));
        cells
    }

    #[test]
    fn store_cells_round_trip_through_codec_and_store() {
        let table = measured_table(4);
        let cells = sample_cells();
        let mut bytes = Vec::new();
        encode_cells(&cells, &mut bytes);
        // Tag, count, then per cell 2 + 1 values, subspace, count and ids.
        assert_eq!(bytes.len(), 4 * (2 + 3 * 5 + 4));
        assert_eq!(bytes[..4], [0xFF; 4]);
        let decoded = decode_cells(&mut ByteCursor::new(&bytes), &table).unwrap();
        // Sorted by constraint and subspace; ids in cell order.
        assert_eq!(decoded, cells);
        let mut restored = MemorySkylineStore::new();
        restored.load_cells(decoded).unwrap();
        assert_eq!(restored.stats().stored_entries, 4);
        assert_eq!(restored.stats().non_empty_cells, 3);
        restored.audit().unwrap();

        // Every truncation is a typed error.
        for end in 0..bytes.len() {
            assert!(decode_cells(&mut ByteCursor::new(&bytes[..end]), &table).is_err());
        }
        // An id the table does not hold live is refused.
        let mut dead = measured_table(4);
        dead.retract_prefix(1);
        let err = decode_cells(&mut ByteCursor::new(&bytes), &dead).unwrap_err();
        assert!(matches!(err, SitFactError::Parse(_)), "{err:?}");
    }

    #[test]
    fn old_layout_cells_decode_against_their_table() {
        let table = measured_table(4);
        let cells = sample_cells();
        let bytes = encode_cells_with_measures(&cells, &table);
        assert_eq!(
            decode_cells(&mut ByteCursor::new(&bytes), &table).unwrap(),
            cells
        );
        // Flipping any byte of any stored measure is a typed error: the
        // table is the only copy of the measures now, and they must agree.
        let mut cur = ByteCursor::new(&bytes);
        let mut measure_bytes = Vec::new();
        cur.get_u32().unwrap();
        for cell in &cells {
            // nvalues, the values, subspace, nentries.
            for _ in 0..cell.constraint.len() + 3 {
                cur.get_u32().unwrap();
            }
            for _ in &cell.entries {
                cur.get_u32().unwrap();
                cur.get_u32().unwrap();
                let at = bytes.len() - cur.remaining();
                measure_bytes.extend(at..at + 16);
                cur.get_f64().unwrap();
                cur.get_f64().unwrap();
            }
        }
        assert!(cur.is_empty());
        assert_eq!(measure_bytes.len(), 4 * 16);
        for at in measure_bytes {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            let err = decode_cells(&mut ByteCursor::new(&bad), &table).unwrap_err();
            assert!(matches!(err, SitFactError::Parse(_)), "byte {at}: {err:?}");
        }
        // A wrong measure count is refused the same way, not read past.
        let mut short = bytes.clone();
        // ncells, nvalues, two values, subspace, nentries, id: then nmeasures.
        let first_nmeasures = 4 + 4 + 2 * 4 + 4 + 4 + 4;
        short[first_nmeasures] = 1;
        assert!(decode_cells(&mut ByteCursor::new(&short), &table).is_err());
        // No flip anywhere panics.
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x20;
            let _ = decode_cells(&mut ByteCursor::new(&bad), &table);
        }
    }
}
