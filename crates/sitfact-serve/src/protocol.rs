//! The wire protocol: length-prefixed frames carrying a small line-oriented
//! text grammar.
//!
//! ## Framing
//!
//! Every message (request or response) is one **frame**: a `u32` little-endian
//! payload length followed by that many bytes of UTF-8 text. Frames are
//! self-delimiting, so a connection can pipeline messages back to back; the
//! length prefix is capped at [`MAX_FRAME_LEN`] to bound a malicious or
//! corrupt peer's allocation.
//!
//! ## Grammar
//!
//! Inside a frame, fields are TAB-separated and records are LF-separated
//! (which is why raw dimension strings may not contain TAB, LF or CR):
//!
//! ```text
//! request  := "PING" | "STATS" | "SHUTDOWN"
//!           | "TOPK" TAB k
//!           | "INGEST" TAB row
//!           | "INGEST_BATCH" TAB count (LF row)*
//!           | "OPEN" TAB tenant TAB tau TAB keep_top TAB d_hat TAB m_hat
//!             [TAB window] LF dim (TAB dim)* LF mdef (TAB mdef)*
//!           | "USE" TAB tenant
//!           | "CLOSE" TAB tenant
//! row      := ndims TAB nmeasures TAB dim* TAB measure*
//! mdef     := measure_name ":" ("max" | "min")
//!
//! response := "PONG" | "BYE" | "OK"
//!           | "STATS" TAB len TAB tau TAB keep_top TAB anchor
//!             TAB sealed_blocks TAB tail_ids TAB comp_bytes TAB raw_bytes
//!             TAB wal_segments TAB wal_bytes TAB wal_synced TAB wal_retired
//!             TAB live_rows TAB tombstones TAB evicted TAB schema
//!           | "REPORT" LF report
//!           | "REPORTS" TAB count (LF report)*
//!           | "ERR" TAB kind TAB message
//! report   := "R" TAB tuple_id TAB prominent_count TAB nfacts (LF fact)*
//! fact     := "F" TAB context TAB skyline TAB subspace_bits TAB values
//! values   := value ("," value)*          ; constraint values, "_" = unbound
//! ```
//!
//! `OPEN` creates a named tenant monitor from an inline schema + config (the
//! server owns one independent monitor per tenant); `USE` switches the
//! connection's current tenant; `CLOSE` evicts a named tenant from memory
//! (its durable state, if the server runs with a data directory, survives —
//! a later `OPEN` of the same name recovers it). Tenant and attribute names
//! may not contain TAB, LF or CR (and measure names may not contain `:`).
//! Optional numeric fields (`keep_top`, `d_hat`, `m_hat`, `anchor`,
//! `window`) render as `_` when unset. `OPEN`'s trailing `window` field is a
//! sliding-window row limit — the tenant's monitor retracts everything older
//! than the latest `window` arrivals at batch boundaries; `_` (or omitting
//! the field, which older clients do) keeps the monitor unbounded. The
//! `wal_*` STATS fields are the tenant's write-ahead-log counters (all zero
//! when the server runs without a data directory): live segment files, total
//! logged bytes, rows durably synced to the log, and segment files retired
//! by snapshot coverage. `live_rows` / `tombstones` / `evicted` break `len`
//! down under retraction: rows still answering queries, retracted rows
//! awaiting compaction, and rows physically dropped.
//!
//! Measures travel as Rust's shortest-round-trip `f64` rendering, so a report
//! decoded by the client is **byte-identical** to the [`ArrivalReport`] the
//! server-side monitor produced — the end-to-end equivalence test in this
//! crate asserts exactly that with `==`.

use crate::error::ServeError;
use sitfact_core::{Constraint, Direction, SkylinePair, SubspaceMask, UNBOUND};
use sitfact_prominence::{ArrivalReport, RankedFact};
use std::io::{ErrorKind, Read, Write};

/// Upper bound on a frame's payload length (64 MiB): far above any real
/// window, low enough that a corrupt length prefix cannot trigger a giant
/// allocation.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Cap on what a declared wire count (frame length, batch rows, report
/// facts) may *pre-allocate*. Counts are untrusted until the records are
/// actually read and parsed — a 25-byte frame declaring a billion rows must
/// not reserve gigabytes (a failed allocation aborts the process, which no
/// `catch_unwind` can stop). Larger payloads still decode fine; the vector
/// just grows normally past this reservation.
const MAX_PREALLOC: usize = 4096;

/// Writes one frame: `u32` LE payload length, then the payload bytes.
///
/// Payloads over [`MAX_FRAME_LEN`] are rejected with `InvalidInput` before
/// anything hits the wire: the receiver would refuse the frame anyway, and
/// past `u32::MAX` the length prefix would silently wrap and desynchronise
/// the stream.
pub fn write_frame(writer: &mut impl Write, payload: &str) -> std::io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            format!(
                "frame payload of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
                bytes.len()
            ),
        ));
    }
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    frame.extend_from_slice(bytes);
    // One write_all for the whole frame, so a concurrent peer never observes
    // a header without its payload mid-buffer.
    writer.write_all(&frame)
}

/// What [`read_frame`] found on the wire.
#[derive(Debug, PartialEq)]
pub enum Frame {
    /// A complete payload.
    Payload(String),
    /// Clean EOF at a frame boundary: the peer closed the connection.
    Closed,
    /// The read timed out before any byte of a new frame arrived: the peer
    /// is idle between frames, not dead.
    Idle,
}

/// Reads one frame, classifying a read timeout (`WouldBlock` / `TimedOut`)
/// by where it strikes: before the first header byte the peer is
/// [`Frame::Idle`], inside the frame it has stalled and the read is an
/// error, as is EOF inside a frame. A declared length over
/// [`MAX_FRAME_LEN`] is rejected without reading on, and the payload buffer
/// grows with the bytes that actually arrive — a declared length is
/// untrusted, so at most `MAX_PREALLOC` bytes are allocated up front.
pub fn read_frame(reader: &mut impl Read) -> Result<Frame, ServeError> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match reader.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(Frame::Closed),
            Ok(0) => {
                return Err(ServeError::Protocol(format!(
                    "connection closed after {filled} of 4 header bytes"
                )))
            }
            Ok(n) => filled += n,
            Err(err) if err.kind() == ErrorKind::Interrupted => {}
            Err(err)
                if filled == 0
                    && matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                return Ok(Frame::Idle)
            }
            Err(err) => return Err(err.into()),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ServeError::Protocol(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    // The buffer starts at `MAX_PREALLOC` bytes and at most doubles once the
    // bytes arrive to fill it, and each chunk is read straight into it.
    let mut payload = Vec::new();
    while payload.len() < len {
        let read = payload.len();
        payload.resize(len.min(read + read.max(MAX_PREALLOC)), 0);
        reader.read_exact(&mut payload[read..])?;
    }
    String::from_utf8(payload)
        .map(Frame::Payload)
        .map_err(|e| ServeError::Protocol(format!("frame payload is not UTF-8: {e}")))
}

/// Every request verb of the grammar, exactly as it travels on the wire.
///
/// This is the machine-readable form of the grammar documented above and in
/// ROADMAP.md — the `sitfact-audit` drift check compares the two, and unit
/// tests in this module tie the list to what `encode`/`decode` actually
/// produce and accept.
pub const REQUEST_VERBS: [&str; 9] = [
    "PING",
    "STATS",
    "SHUTDOWN",
    "TOPK",
    "INGEST",
    "INGEST_BATCH",
    "OPEN",
    "USE",
    "CLOSE",
];

/// Every response verb of the grammar, exactly as it travels on the wire.
/// See [`REQUEST_VERBS`] for why this list exists.
pub const RESPONSE_VERBS: [&str; 7] = ["PONG", "BYE", "OK", "STATS", "REPORT", "REPORTS", "ERR"];

/// One raw row as the client submits it: dimension strings plus measures,
/// interned and validated by the server against its schema.
#[derive(Debug, Clone, PartialEq)]
pub struct RawRow {
    /// Raw dimension values (must not contain TAB, LF or CR — see the module
    /// grammar).
    pub dims: Vec<String>,
    /// Measure values.
    pub measures: Vec<f64>,
}

impl RawRow {
    /// Builds a row from borrowed dimension strings and measures.
    pub fn new(dims: &[&str], measures: &[f64]) -> Self {
        RawRow {
            dims: dims.iter().map(|d| d.to_string()).collect(),
            measures: measures.to_vec(),
        }
    }
}

/// The schema + config a client supplies when opening a named tenant
/// monitor over the wire ([`Request::Open`]).
///
/// The server builds an independent monitor from this spec and routes it to
/// an owning worker; names are unique per server. Tenant, dimension and
/// measure names may not contain TAB, LF or CR (measure names additionally
/// may not contain `:` — the wire renders a measure as `name:max` /
/// `name:min`).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Unique tenant name.
    pub name: String,
    /// Prominence threshold `τ` for the tenant's monitor.
    pub tau: f64,
    /// Per-arrival fact retention cap, if any.
    pub keep_top: Option<u64>,
    /// Discovery cap `d̂` (max bound dimensions), `None` = unrestricted.
    pub d_hat: Option<u64>,
    /// Discovery cap `m̂` (max subspace size), `None` = unrestricted.
    pub m_hat: Option<u64>,
    /// Sliding-window row limit: the tenant's monitor keeps only the most
    /// recent `window` arrivals, retracting the rest at batch boundaries.
    /// `None` = unbounded (the append-only monitors of the paper).
    pub window: Option<u64>,
    /// Dimension attribute names, in schema order (at least one).
    pub dims: Vec<String>,
    /// Measure attributes as `(name, direction)`, in schema order (at least
    /// one).
    pub measures: Vec<(String, Direction)>,
}

impl TenantSpec {
    /// A spec with the given name, schema attributes and threshold `τ`, no
    /// retention cap and unrestricted discovery.
    pub fn new(name: &str, dims: &[&str], measures: &[(&str, Direction)], tau: f64) -> Self {
        TenantSpec {
            name: name.to_string(),
            tau,
            keep_top: None,
            d_hat: None,
            m_hat: None,
            window: None,
            dims: dims.iter().map(|d| d.to_string()).collect(),
            measures: measures
                .iter()
                .map(|(m, dir)| (m.to_string(), *dir))
                .collect(),
        }
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Current tenant's monitor statistics; answered with
    /// [`Response::Stats`].
    Stats,
    /// The top-`k` prefix of the current tenant's most recent arrival
    /// report; answered with [`Response::Report`].
    TopK(usize),
    /// Ingest one row into the current tenant; answered with
    /// [`Response::Report`].
    Ingest(RawRow),
    /// Ingest a window of rows through the batched fast path; answered with
    /// [`Response::Reports`], one report per row in submission order.
    IngestBatch(Vec<RawRow>),
    /// Create a named tenant monitor from an inline schema + config;
    /// answered with [`Response::Ok`] (or a typed `Tenant` error if the name
    /// is taken).
    Open(TenantSpec),
    /// Switch this connection's current tenant; answered with
    /// [`Response::Ok`] (or a typed `Tenant` error if the name is unknown).
    Use(String),
    /// Evict a named tenant monitor from memory; answered with
    /// [`Response::Ok`] (or a typed `Tenant` error if the name is unknown).
    /// Durable on-disk state, if any, is kept — a later [`Request::Open`] of
    /// the same name recovers it.
    Close(String),
    /// Ask the server to stop accepting connections and exit its accept
    /// loop; answered with [`Response::Bye`], then the connection closes.
    Shutdown,
}

/// Server statistics reported by [`Request::Stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Number of tuples ingested so far.
    pub len: u64,
    /// The monitor's prominence threshold `τ`.
    pub tau: f64,
    /// The monitor's per-arrival fact retention cap, if any.
    pub keep_top: Option<u64>,
    /// The discovery config's anchored dimension, if any (set for sharded
    /// deployments).
    pub anchor_dim: Option<u64>,
    /// Sealed compressed posting-list blocks in the monitor's inverted index:
    /// 0, since posting lists are plain id vectors (the field keeps the
    /// record's shape).
    pub sealed_blocks: u64,
    /// Posting ids stored uncompressed: every id in the index (sharded
    /// monitors sum over shards).
    pub tail_ids: u64,
    /// Posting-list heap bytes, four per id.
    pub compressed_bytes: u64,
    /// Bytes the same posting ids occupy as plain `u32`s: equal to
    /// `compressed_bytes`.
    pub uncompressed_bytes: u64,
    /// Live write-ahead-log segment files for this tenant (zero when the
    /// server runs without a data directory).
    pub wal_segments: u64,
    /// Total bytes across the tenant's write-ahead-log segments.
    pub wal_bytes: u64,
    /// Rows durably synced to the tenant's write-ahead log. The id of the
    /// last synced arrival is `wal_synced - 1` (ids are assigned in arrival
    /// order from zero).
    pub wal_synced: u64,
    /// Write-ahead-log segment files retired (deleted) because a snapshot
    /// fully covers their windows.
    pub wal_retired: u64,
    /// Tuples still answering queries (`len` minus everything retracted by
    /// the tenant's window policy).
    pub live_rows: u64,
    /// Retracted tuples still physically present, awaiting compaction.
    pub tombstones: u64,
    /// Retracted tuples physically dropped by compaction.
    pub evicted: u64,
    /// Name of the schema the server ingests against.
    pub schema: String,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Acknowledgement of [`Request::Shutdown`].
    Bye,
    /// Success acknowledgement for requests that return no data
    /// ([`Request::Open`], [`Request::Use`]).
    Ok,
    /// Answer to [`Request::Stats`].
    Stats(ServerStats),
    /// One arrival's report.
    Report(ArrivalReport),
    /// One report per row of a batched window, in submission order.
    Reports(Vec<ArrivalReport>),
    /// The request failed; `kind` names the error class (a
    /// `SitFactError` variant for monitor errors, `Protocol` / `State` for
    /// server-side ones) and `message` is human-readable detail.
    Error {
        /// Error class name.
        kind: String,
        /// Human-readable detail.
        message: String,
    },
}

fn check_dim(dim: &str) -> Result<(), ServeError> {
    if dim.contains(['\t', '\n', '\r']) {
        return Err(ServeError::Protocol(format!(
            "dimension value {dim:?} contains a TAB/LF/CR, which the line grammar reserves"
        )));
    }
    Ok(())
}

fn check_name(what: &str, name: &str) -> Result<(), ServeError> {
    if name.is_empty() {
        return Err(ServeError::Protocol(format!("{what} name is empty")));
    }
    if name.contains(['\t', '\n', '\r']) {
        return Err(ServeError::Protocol(format!(
            "{what} name {name:?} contains a TAB/LF/CR, which the line grammar reserves"
        )));
    }
    Ok(())
}

fn encode_opt_u64(value: Option<u64>, out: &mut String) {
    use std::fmt::Write as _;
    match value {
        Some(v) => {
            let _ = write!(out, "{v}");
        }
        None => out.push('_'),
    }
}

fn decode_opt_u64(field: &str, what: &str) -> Result<Option<u64>, ServeError> {
    if field == "_" {
        Ok(None)
    } else {
        field
            .parse()
            .map(Some)
            .map_err(|_| ServeError::Protocol(format!("bad {what}")))
    }
}

fn encode_open_into(spec: &TenantSpec, out: &mut String) -> Result<(), ServeError> {
    use std::fmt::Write as _;
    check_name("tenant", &spec.name)?;
    if spec.dims.is_empty() || spec.measures.is_empty() {
        return Err(ServeError::Protocol(
            "OPEN needs at least one dimension and one measure".into(),
        ));
    }
    let _ = write!(out, "OPEN\t{}\t{}\t", spec.name, spec.tau);
    encode_opt_u64(spec.keep_top, out);
    out.push('\t');
    encode_opt_u64(spec.d_hat, out);
    out.push('\t');
    encode_opt_u64(spec.m_hat, out);
    out.push('\t');
    encode_opt_u64(spec.window, out);
    out.push('\n');
    for (i, dim) in spec.dims.iter().enumerate() {
        check_name("dimension", dim)?;
        if i > 0 {
            out.push('\t');
        }
        out.push_str(dim);
    }
    out.push('\n');
    for (i, (measure, direction)) in spec.measures.iter().enumerate() {
        check_name("measure", measure)?;
        if measure.contains(':') {
            return Err(ServeError::Protocol(format!(
                "measure name {measure:?} contains ':', which the mdef grammar reserves"
            )));
        }
        if i > 0 {
            out.push('\t');
        }
        let dir = match direction {
            Direction::HigherIsBetter => "max",
            Direction::LowerIsBetter => "min",
        };
        let _ = write!(out, "{measure}:{dir}");
    }
    Ok(())
}

fn decode_open(head: &[&str], mut lines: std::str::Split<'_, char>) -> Result<Request, ServeError> {
    let bad = |why: &str| ServeError::Protocol(format!("malformed OPEN: {why}"));
    // The window clause arrived with the sliding-window engine; clients
    // predating it send the five-field head, which decodes as unbounded.
    if head.len() != 5 && head.len() != 6 {
        return Err(bad(
            "head must be `OPEN name tau keep_top d_hat m_hat [window]`",
        ));
    }
    let name = head[0].to_string();
    check_name("tenant", &name)?;
    let tau = head[1].parse().map_err(|_| bad("tau is not a number"))?;
    let keep_top = decode_opt_u64(head[2], "OPEN keep_top")?;
    let d_hat = decode_opt_u64(head[3], "OPEN d_hat")?;
    let m_hat = decode_opt_u64(head[4], "OPEN m_hat")?;
    let window = match head.get(5) {
        Some(field) => decode_opt_u64(field, "OPEN window")?,
        None => None,
    };
    let dims_line = lines.next().ok_or_else(|| bad("missing dimension line"))?;
    let measures_line = lines.next().ok_or_else(|| bad("missing measure line"))?;
    if lines.next().is_some() {
        return Err(bad("carried trailing lines"));
    }
    let dims: Vec<String> = dims_line.split('\t').map(|d| d.to_string()).collect();
    if dims.iter().any(|d| d.is_empty()) {
        return Err(bad("empty dimension name"));
    }
    let measures = measures_line
        .split('\t')
        .map(|mdef| {
            let (name, dir) = mdef
                .rsplit_once(':')
                .ok_or_else(|| bad("mdef must be `name:max` or `name:min`"))?;
            if name.is_empty() {
                return Err(bad("empty measure name"));
            }
            let direction = match dir {
                "max" => Direction::HigherIsBetter,
                "min" => Direction::LowerIsBetter,
                _ => return Err(bad("measure direction must be `max` or `min`")),
            };
            Ok((name.to_string(), direction))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Request::Open(TenantSpec {
        name,
        tau,
        keep_top,
        d_hat,
        m_hat,
        window,
        dims,
        measures,
    }))
}

fn encode_row_into(row: &RawRow, out: &mut String) -> Result<(), ServeError> {
    use std::fmt::Write as _;
    let _ = write!(out, "{}\t{}", row.dims.len(), row.measures.len());
    for dim in &row.dims {
        check_dim(dim)?;
        out.push('\t');
        out.push_str(dim);
    }
    for measure in &row.measures {
        let _ = write!(out, "\t{measure}");
    }
    Ok(())
}

fn decode_row(fields: &[&str]) -> Result<RawRow, ServeError> {
    let bad = |why: &str| ServeError::Protocol(format!("malformed row: {why}"));
    if fields.len() < 2 {
        return Err(bad("missing the ndims/nmeasures header"));
    }
    let ndims: usize = fields[0].parse().map_err(|_| bad("ndims is not a count"))?;
    let nmeasures: usize = fields[1]
        .parse()
        .map_err(|_| bad("nmeasures is not a count"))?;
    if fields.len() != 2 + ndims + nmeasures {
        return Err(bad(&format!(
            "expected {} fields after the header, got {}",
            ndims + nmeasures,
            fields.len() - 2
        )));
    }
    let dims = fields[2..2 + ndims].iter().map(|s| s.to_string()).collect();
    let measures = fields[2 + ndims..]
        .iter()
        .map(|s| s.parse::<f64>().map_err(|_| bad("unparseable measure")))
        .collect::<Result<_, _>>()?;
    Ok(RawRow { dims, measures })
}

impl Request {
    /// Renders the request as a frame payload.
    pub fn encode(&self) -> Result<String, ServeError> {
        use std::fmt::Write as _;
        let mut out = String::new();
        match self {
            Request::Ping => out.push_str("PING"),
            Request::Stats => out.push_str("STATS"),
            Request::Shutdown => out.push_str("SHUTDOWN"),
            Request::TopK(k) => {
                let _ = write!(out, "TOPK\t{k}");
            }
            Request::Ingest(row) => {
                out.push_str("INGEST\t");
                encode_row_into(row, &mut out)?;
            }
            Request::IngestBatch(rows) => {
                let _ = write!(out, "INGEST_BATCH\t{}", rows.len());
                for row in rows {
                    out.push('\n');
                    encode_row_into(row, &mut out)?;
                }
            }
            Request::Open(spec) => encode_open_into(spec, &mut out)?,
            Request::Use(name) => {
                check_name("tenant", name)?;
                let _ = write!(out, "USE\t{name}");
            }
            Request::Close(name) => {
                check_name("tenant", name)?;
                let _ = write!(out, "CLOSE\t{name}");
            }
        }
        Ok(out)
    }

    /// Parses a frame payload into a request.
    pub fn decode(payload: &str) -> Result<Request, ServeError> {
        let bad = |why: String| ServeError::Protocol(why);
        let mut lines = payload.split('\n');
        let head = lines.next().unwrap_or("");
        let fields: Vec<&str> = head.split('\t').collect();
        let extra_lines_forbidden = |kind: &str| -> Result<(), ServeError> {
            if payload.contains('\n') {
                return Err(bad(format!("{kind} must be a single line")));
            }
            Ok(())
        };
        let bare = |kind: &str| -> Result<(), ServeError> {
            extra_lines_forbidden(kind)?;
            if fields.len() != 1 {
                return Err(bad(format!("{kind} takes no fields")));
            }
            Ok(())
        };
        match fields[0] {
            "PING" => {
                bare("PING")?;
                Ok(Request::Ping)
            }
            "STATS" => {
                bare("STATS")?;
                Ok(Request::Stats)
            }
            "SHUTDOWN" => {
                bare("SHUTDOWN")?;
                Ok(Request::Shutdown)
            }
            "TOPK" => {
                extra_lines_forbidden("TOPK")?;
                if fields.len() != 2 {
                    return Err(bad("TOPK takes exactly one field".into()));
                }
                let k = fields[1]
                    .parse()
                    .map_err(|_| bad("TOPK count is not a number".into()))?;
                Ok(Request::TopK(k))
            }
            "INGEST" => {
                extra_lines_forbidden("INGEST")?;
                Ok(Request::Ingest(decode_row(&fields[1..])?))
            }
            "INGEST_BATCH" => {
                if fields.len() != 2 {
                    return Err(bad("INGEST_BATCH header takes exactly one field".into()));
                }
                let count: usize = fields[1]
                    .parse()
                    .map_err(|_| bad("INGEST_BATCH count is not a number".into()))?;
                let mut rows = Vec::with_capacity(count.min(MAX_PREALLOC));
                for line in lines {
                    // Bail the moment the declared count is exceeded — the
                    // request is already known-invalid, so the remaining
                    // (possibly megabytes of) rows are never parsed.
                    if rows.len() == count {
                        return Err(bad(format!(
                            "INGEST_BATCH declared {count} rows but carried more"
                        )));
                    }
                    let fields: Vec<&str> = line.split('\t').collect();
                    rows.push(decode_row(&fields)?);
                }
                if rows.len() != count {
                    return Err(bad(format!(
                        "INGEST_BATCH declared {count} rows but carried {}",
                        rows.len()
                    )));
                }
                Ok(Request::IngestBatch(rows))
            }
            "OPEN" => decode_open(&fields[1..], lines),
            "USE" => {
                extra_lines_forbidden("USE")?;
                if fields.len() != 2 {
                    return Err(bad("USE takes exactly one field".into()));
                }
                let name = fields[1].to_string();
                check_name("tenant", &name)?;
                Ok(Request::Use(name))
            }
            "CLOSE" => {
                extra_lines_forbidden("CLOSE")?;
                if fields.len() != 2 {
                    return Err(bad("CLOSE takes exactly one field".into()));
                }
                let name = fields[1].to_string();
                check_name("tenant", &name)?;
                Ok(Request::Close(name))
            }
            verb => Err(bad(format!("unknown request verb {verb:?}"))),
        }
    }
}

/// Appends `value` in decimal, as `write!(out, "{value}")` would, without
/// the formatting machinery: a report is mostly integers.
fn push_decimal(out: &mut String, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&digit| char::from(digit)));
}

fn encode_report_into(report: &ArrivalReport, out: &mut String) {
    out.push_str("R\t");
    push_decimal(out, u64::from(report.tuple_id));
    out.push('\t');
    push_decimal(out, report.prominent_count as u64);
    out.push('\t');
    push_decimal(out, report.facts.len() as u64);
    for fact in &report.facts {
        out.push_str("\nF\t");
        push_decimal(out, fact.context_size);
        out.push('\t');
        push_decimal(out, fact.skyline_size);
        out.push('\t');
        push_decimal(out, u64::from(fact.pair.subspace.0));
        out.push('\t');
        for (i, &value) in fact.pair.constraint.values().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if value == UNBOUND {
                out.push('_');
            } else {
                push_decimal(out, u64::from(value));
            }
        }
    }
}

/// Decodes one report. Each field is parsed with `str::parse`, as the
/// grammar's numbers always were, but walked in place: no `Vec` of fields
/// per line, and each constraint's values land in an exact-capacity `Vec`.
fn decode_report<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
) -> Result<ArrivalReport, ServeError> {
    let bad = |why: &str| ServeError::Protocol(format!("malformed report: {why}"));
    let head = lines.next().ok_or_else(|| bad("missing R line"))?;
    let mut fields = head.split('\t');
    let (Some("R"), Some(tuple_id), Some(prominent_count), Some(nfacts), None) = (
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
    ) else {
        return Err(bad("R line must be `R id prominent nfacts`"));
    };
    let tuple_id = tuple_id.parse().map_err(|_| bad("bad tuple id"))?;
    let prominent_count = prominent_count
        .parse()
        .map_err(|_| bad("bad prominent count"))?;
    let nfacts: usize = nfacts.parse().map_err(|_| bad("bad fact count"))?;
    let mut facts = Vec::with_capacity(nfacts.min(MAX_PREALLOC));
    for _ in 0..nfacts {
        let line = lines.next().ok_or_else(|| bad("truncated fact list"))?;
        let mut fields = line.split('\t');
        let (Some("F"), Some(context_size), Some(skyline_size), Some(subspace), Some(values), None) = (
            fields.next(),
            fields.next(),
            fields.next(),
            fields.next(),
            fields.next(),
            fields.next(),
        ) else {
            return Err(bad("F line must be `F context skyline subspace values`"));
        };
        let context_size = context_size.parse().map_err(|_| bad("bad context size"))?;
        let skyline_size = skyline_size.parse().map_err(|_| bad("bad skyline size"))?;
        let subspace = SubspaceMask(subspace.parse().map_err(|_| bad("bad subspace mask"))?);
        let mut parsed = Vec::with_capacity(values.bytes().filter(|&b| b == b',').count() + 1);
        for value in values.split(',') {
            parsed.push(if value == "_" {
                UNBOUND
            } else {
                value.parse().map_err(|_| bad("bad constraint value"))?
            });
        }
        facts.push(RankedFact {
            pair: SkylinePair::new(Constraint::from_values(parsed), subspace),
            context_size,
            skyline_size,
        });
    }
    if prominent_count > facts.len() {
        return Err(bad("prominent count exceeds the fact count"));
    }
    Ok(ArrivalReport {
        tuple_id,
        facts,
        prominent_count,
    })
}

impl Response {
    /// Renders the response as a frame payload.
    pub fn encode(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        match self {
            Response::Pong => out.push_str("PONG"),
            Response::Bye => out.push_str("BYE"),
            Response::Ok => out.push_str("OK"),
            Response::Stats(stats) => {
                let _ = write!(out, "STATS\t{}\t{}\t", stats.len, stats.tau);
                encode_opt_u64(stats.keep_top, &mut out);
                out.push('\t');
                encode_opt_u64(stats.anchor_dim, &mut out);
                let _ = write!(
                    out,
                    "\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                    stats.sealed_blocks,
                    stats.tail_ids,
                    stats.compressed_bytes,
                    stats.uncompressed_bytes,
                    stats.wal_segments,
                    stats.wal_bytes,
                    stats.wal_synced,
                    stats.wal_retired,
                    stats.live_rows,
                    stats.tombstones,
                    stats.evicted
                );
                out.push('\t');
                // The schema name is free text under SchemaBuilder; flatten
                // the grammar's reserved characters so a TAB/LF in the name
                // cannot render the STATS line undecodable (names never
                // round-trip byte-exactly the way reports must).
                if stats.schema.contains(['\t', '\n', '\r']) {
                    out.push_str(&stats.schema.replace(['\t', '\n', '\r'], " "));
                } else {
                    out.push_str(&stats.schema);
                }
            }
            Response::Report(report) => {
                out.push_str("REPORT\n");
                encode_report_into(report, &mut out);
            }
            Response::Reports(reports) => {
                let _ = write!(out, "REPORTS\t{}", reports.len());
                for report in reports {
                    out.push('\n');
                    encode_report_into(report, &mut out);
                }
            }
            Response::Error { kind, message } => {
                // The message must stay on one line for the grammar; errors
                // never round-trip byte-identically, unlike reports.
                let one_line = message.replace(['\n', '\r'], " ");
                let _ = write!(out, "ERR\t{kind}\t{one_line}");
            }
        }
        out
    }

    /// Parses a frame payload into a response.
    pub fn decode(payload: &str) -> Result<Response, ServeError> {
        let bad = |why: String| ServeError::Protocol(why);
        let mut lines = payload.split('\n');
        let head = lines.next().unwrap_or("");
        let fields: Vec<&str> = head.split('\t').collect();
        // Every response but `REPORT` and `REPORTS` is one line.
        let one_line = |verb: &str| -> Result<(), ServeError> {
            if payload.contains('\n') {
                return Err(bad(format!("{verb} must be a single line")));
            }
            Ok(())
        };
        let bare = |verb: &str, response: Response| -> Result<Response, ServeError> {
            one_line(verb)?;
            if fields.len() != 1 {
                return Err(bad(format!("{verb} takes no fields")));
            }
            Ok(response)
        };
        match fields[0] {
            "PONG" => bare("PONG", Response::Pong),
            "BYE" => bare("BYE", Response::Bye),
            "OK" => bare("OK", Response::Ok),
            "STATS" => {
                one_line("STATS")?;
                if fields.len() != 17 {
                    return Err(bad("STATS must carry 16 fields".into()));
                }
                let parse_u64 = |s: &str, what: &str| -> Result<u64, ServeError> {
                    s.parse()
                        .map_err(|_| ServeError::Protocol(format!("bad {what}")))
                };
                Ok(Response::Stats(ServerStats {
                    len: parse_u64(fields[1], "STATS length")?,
                    tau: fields[2].parse().map_err(|_| bad("bad STATS tau".into()))?,
                    keep_top: decode_opt_u64(fields[3], "STATS keep_top")?,
                    anchor_dim: decode_opt_u64(fields[4], "STATS anchor")?,
                    sealed_blocks: parse_u64(fields[5], "STATS sealed_blocks")?,
                    tail_ids: parse_u64(fields[6], "STATS tail_ids")?,
                    compressed_bytes: parse_u64(fields[7], "STATS compressed_bytes")?,
                    uncompressed_bytes: parse_u64(fields[8], "STATS uncompressed_bytes")?,
                    wal_segments: parse_u64(fields[9], "STATS wal_segments")?,
                    wal_bytes: parse_u64(fields[10], "STATS wal_bytes")?,
                    wal_synced: parse_u64(fields[11], "STATS wal_synced")?,
                    wal_retired: parse_u64(fields[12], "STATS wal_retired")?,
                    live_rows: parse_u64(fields[13], "STATS live_rows")?,
                    tombstones: parse_u64(fields[14], "STATS tombstones")?,
                    evicted: parse_u64(fields[15], "STATS evicted")?,
                    schema: fields[16].to_string(),
                }))
            }
            "REPORT" => {
                if fields.len() != 1 {
                    return Err(bad("REPORT header takes no fields".into()));
                }
                let report = decode_report(&mut lines)?;
                if lines.next().is_some() {
                    return Err(bad("REPORT carried trailing lines".into()));
                }
                Ok(Response::Report(report))
            }
            "REPORTS" => {
                if fields.len() != 2 {
                    return Err(bad("REPORTS header takes exactly one field".into()));
                }
                let count: usize = fields[1]
                    .parse()
                    .map_err(|_| bad("REPORTS count is not a number".into()))?;
                let mut reports = Vec::with_capacity(count.min(MAX_PREALLOC));
                for _ in 0..count {
                    reports.push(decode_report(&mut lines)?);
                }
                if lines.next().is_some() {
                    return Err(bad("REPORTS carried trailing lines".into()));
                }
                Ok(Response::Reports(reports))
            }
            "ERR" => {
                one_line("ERR")?;
                if fields.len() < 3 {
                    return Err(bad("ERR must carry a kind and a message".into()));
                }
                Ok(Response::Error {
                    kind: fields[1].to_string(),
                    // The message may itself contain TABs; rejoin the rest.
                    message: fields[2..].join("\t"),
                })
            }
            verb => Err(bad(format!("unknown response verb {verb:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitfact_core::TupleId;

    fn fact(values: Vec<u32>, subspace: u32, context: u64, skyline: u64) -> RankedFact {
        RankedFact {
            pair: SkylinePair::new(Constraint::from_values(values), SubspaceMask(subspace)),
            context_size: context,
            skyline_size: skyline,
        }
    }

    fn sample_report() -> ArrivalReport {
        ArrivalReport {
            tuple_id: 41,
            facts: vec![
                fact(vec![3, UNBOUND, 7], 0b101, 1200, 2),
                fact(vec![UNBOUND, UNBOUND, 7], 0b001, 9000, 30),
            ],
            prominent_count: 1,
        }
    }

    fn sample_stats() -> ServerStats {
        ServerStats {
            len: 12,
            tau: 2.5,
            keep_top: Some(8),
            anchor_dim: None,
            sealed_blocks: 3,
            tail_ids: 17,
            compressed_bytes: 640,
            uncompressed_bytes: 1920,
            wal_segments: 2,
            wal_bytes: 4096,
            wal_synced: 12,
            wal_retired: 1,
            live_rows: 9,
            tombstones: 1,
            evicted: 2,
            schema: "nba_gamelog".into(),
        }
    }

    fn sample_spec() -> TenantSpec {
        TenantSpec {
            name: "league-east".into(),
            tau: 2.0,
            keep_top: Some(16),
            d_hat: Some(3),
            m_hat: None,
            window: Some(4096),
            dims: vec!["player".into(), "team".into()],
            measures: vec![
                ("points".into(), Direction::HigherIsBetter),
                ("fouls".into(), Direction::LowerIsBetter),
            ],
        }
    }

    #[test]
    fn verb_constants_match_encode_and_decode() {
        // Every request variant's encoding starts with a verb from
        // REQUEST_VERBS, and together they cover the whole list — so the
        // constants (and the ROADMAP grammar audited against them) cannot
        // drift from the codec.
        let requests = [
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::TopK(3),
            Request::Ingest(RawRow::new(&["a"], &[1.0])),
            Request::IngestBatch(vec![RawRow::new(&["a"], &[1.0])]),
            Request::Open(sample_spec()),
            Request::Use("league-east".into()),
            Request::Close("league-east".into()),
        ];
        let mut seen: Vec<&str> = Vec::new();
        for request in &requests {
            let payload = request.encode().unwrap();
            let verb = payload
                .split(['\t', '\n'])
                .next()
                .expect("encoded request is non-empty");
            let canonical = REQUEST_VERBS
                .iter()
                .find(|&&v| v == verb)
                .unwrap_or_else(|| panic!("verb {verb:?} missing from REQUEST_VERBS"));
            seen.push(canonical);
            // The codec accepts its own rendering back.
            assert_eq!(&Request::decode(&payload).unwrap(), request);
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), REQUEST_VERBS.len());

        let responses = [
            Response::Pong,
            Response::Bye,
            Response::Ok,
            Response::Stats(sample_stats()),
            Response::Report(sample_report()),
            Response::Reports(vec![sample_report()]),
            Response::Error {
                kind: "State".into(),
                message: "m".into(),
            },
        ];
        let mut seen: Vec<&str> = Vec::new();
        for response in &responses {
            let payload = response.encode();
            let verb = payload
                .split(['\t', '\n'])
                .next()
                .expect("encoded response is non-empty");
            let canonical = RESPONSE_VERBS
                .iter()
                .find(|&&v| v == verb)
                .unwrap_or_else(|| panic!("verb {verb:?} missing from RESPONSE_VERBS"));
            seen.push(canonical);
            assert_eq!(&Response::decode(&payload).unwrap(), response);
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), RESPONSE_VERBS.len());
    }

    #[test]
    fn frames_round_trip_and_eof_is_clean() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "hello\tworld").unwrap();
        write_frame(&mut wire, "").unwrap();
        let mut reader = &wire[..];
        assert_eq!(
            read_frame(&mut reader).unwrap(),
            Frame::Payload("hello\tworld".into())
        );
        assert_eq!(read_frame(&mut reader).unwrap(), Frame::Payload("".into()));
        assert_eq!(read_frame(&mut reader).unwrap(), Frame::Closed);
    }

    /// One scripted `read`: a chunk of bytes or an error.
    type Step = Result<Vec<u8>, ErrorKind>;

    /// A reader that hands out one scripted step per `read` call, then EOF,
    /// and counts the calls.
    struct Scripted {
        steps: std::collections::VecDeque<Step>,
        reads: usize,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            match self.steps.pop_front() {
                None => Ok(0),
                Some(Err(kind)) => Err(kind.into()),
                Some(Ok(mut chunk)) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.steps.push_front(Ok(chunk.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    /// The one frame reader's rules, for the client and the server alike:
    /// where a timeout strikes decides between an idle and a dead peer, and
    /// a declared length is trusted neither past the cap nor for the
    /// allocation.
    #[test]
    fn read_frame_tells_idle_peers_from_dead_ones() {
        use ErrorKind::{Interrupted, TimedOut, WouldBlock};
        let len = |len: usize| Ok((len as u32).to_le_bytes().to_vec());
        let b = |bytes: &[u8]| Ok(bytes.to_vec());
        let ok = |text: &str| Some(Frame::Payload(text.into()));
        // (case, script, the frame or None for an error, reads taken)
        #[rustfmt::skip]
        let cases: Vec<(&str, Vec<Step>, Option<Frame>, usize)> = vec![
            ("EOF at a boundary", vec![], Some(Frame::Closed), 1),
            ("in pieces", vec![b(&[2, 0]), Err(Interrupted), b(&[0, 0]), b(b"ok")], ok("ok"), 4),
            ("WouldBlock first", vec![Err(WouldBlock)], Some(Frame::Idle), 1),
            ("TimedOut first", vec![Err(TimedOut)], Some(Frame::Idle), 1),
            ("timeout in the header", vec![b(&[5, 0]), Err(TimedOut)], None, 2),
            ("EOF in the header", vec![b(&[5])], None, 2),
            ("timeout in the payload", vec![len(4), b(b"ab"), Err(WouldBlock)], None, 3),
            ("EOF in the payload", vec![len(4), b(b"abc")], None, 3),
            ("past the cap", vec![len(MAX_FRAME_LEN + 1), b(b"unread")], None, 1),
            ("64 MiB declared, 3 sent", vec![len(64 << 20), b(b"abc")], None, 3),
            ("not UTF-8", vec![len(1), b(&[0xFF])], None, 2),
        ];
        for (case, steps, expected, reads) in cases {
            let mut reader = Scripted {
                steps: steps.into(),
                reads: 0,
            };
            let got = read_frame(&mut reader);
            match (&got, &expected) {
                (Ok(frame), Some(want)) => assert_eq!(frame, want, "{case}"),
                (Err(_), None) => {}
                _ => panic!("{case}: got {got:?}, want {expected:?}"),
            }
            assert_eq!(reader.reads, reads, "{case}: reads taken");
        }
    }

    #[test]
    fn oversized_payload_is_rejected_before_writing() {
        let big = "x".repeat(MAX_FRAME_LEN + 1);
        let mut wire = Vec::new();
        let err = write_frame(&mut wire, &big).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        // Nothing reached the wire: the stream stays in sync for the next
        // (valid) frame.
        assert!(wire.is_empty());
    }

    #[test]
    fn stats_schema_reserved_characters_are_flattened() {
        let response = Response::Stats(ServerStats {
            schema: "game\tlog\n2026".into(),
            ..sample_stats()
        });
        let Response::Stats(stats) = Response::decode(&response.encode()).unwrap() else {
            panic!("wrong verb");
        };
        assert_eq!(stats.schema, "game log 2026");
    }

    #[test]
    fn requests_round_trip() {
        let row = RawRow::new(&["Wesley", "Celtics"], &[12.0, 0.5]);
        let batch = Request::IngestBatch(vec![
            row.clone(),
            RawRow::new(&["Sherman", "Hawks"], &[9.25, 3.0]),
        ]);
        for request in [
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::TopK(7),
            Request::Ingest(row),
            batch,
            Request::IngestBatch(Vec::new()),
            Request::Open(sample_spec()),
            Request::Open(TenantSpec {
                window: None,
                ..sample_spec()
            }),
            Request::Open(TenantSpec::new(
                "t",
                &["d"],
                &[("m", Direction::LowerIsBetter)],
                0.5,
            )),
            Request::Use("league-east".into()),
            Request::Close("league-east".into()),
        ] {
            let payload = request.encode().unwrap();
            assert_eq!(Request::decode(&payload).unwrap(), request);
        }
    }

    #[test]
    fn five_field_open_head_from_an_older_client_decodes_as_unbounded() {
        // Clients built before the window clause send the five-field head;
        // the decoder must keep accepting it (window = None).
        let payload = "OPEN\tt\t1.5\t8\t_\t2\nplayer\tteam\npoints:max";
        let Request::Open(spec) = Request::decode(payload).unwrap() else {
            panic!("wrong verb");
        };
        assert_eq!(spec.window, None);
        assert_eq!(spec.keep_top, Some(8));
        assert_eq!(spec.m_hat, Some(2));
    }

    #[test]
    fn open_rejects_reserved_and_degenerate_specs() {
        let reject = |spec: TenantSpec| {
            assert!(
                matches!(Request::Open(spec).encode(), Err(ServeError::Protocol(_))),
                "spec should be rejected on encode"
            );
        };
        reject(TenantSpec {
            name: "a\tb".into(),
            ..sample_spec()
        });
        reject(TenantSpec {
            name: String::new(),
            ..sample_spec()
        });
        reject(TenantSpec {
            dims: Vec::new(),
            ..sample_spec()
        });
        reject(TenantSpec {
            measures: Vec::new(),
            ..sample_spec()
        });
        reject(TenantSpec {
            measures: vec![("points:scored".into(), Direction::HigherIsBetter)],
            ..sample_spec()
        });
        reject(TenantSpec {
            dims: vec!["ok".into(), "bad\ndim".into()],
            ..sample_spec()
        });
        assert!(matches!(
            Request::Use(String::new()).encode(),
            Err(ServeError::Protocol(_))
        ));
        assert!(matches!(
            Request::Close(String::new()).encode(),
            Err(ServeError::Protocol(_))
        ));
        assert!(matches!(
            Request::Close("a\rb".into()).encode(),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn measures_round_trip_exactly() {
        // Shortest-round-trip f64 rendering: awkward values survive the wire.
        let measures = [0.1, 1.0 / 3.0, f64::MAX, 5e-324, -0.0, 123456789.123456];
        let row = RawRow::new(&["x"], &measures);
        let payload = Request::Ingest(row.clone()).encode().unwrap();
        let Request::Ingest(decoded) = Request::decode(&payload).unwrap() else {
            panic!("wrong verb");
        };
        for (sent, got) in row.measures.iter().zip(&decoded.measures) {
            assert_eq!(sent.to_bits(), got.to_bits());
        }
    }

    #[test]
    fn reserved_characters_in_dims_are_rejected() {
        for dim in ["a\tb", "a\nb", "a\rb"] {
            let row = RawRow::new(&[dim], &[1.0]);
            assert!(matches!(
                Request::Ingest(row).encode(),
                Err(ServeError::Protocol(_))
            ));
        }
    }

    #[test]
    fn responses_round_trip() {
        for response in [
            Response::Pong,
            Response::Bye,
            Response::Ok,
            Response::Stats(sample_stats()),
            Response::Stats(ServerStats {
                keep_top: None,
                anchor_dim: Some(1),
                ..sample_stats()
            }),
            Response::Report(sample_report()),
            Response::Reports(vec![sample_report(), sample_report()]),
            Response::Reports(Vec::new()),
            Response::Error {
                kind: "InvalidTuple".into(),
                message: "wrong arity".into(),
            },
        ] {
            let payload = response.encode();
            assert_eq!(Response::decode(&payload).unwrap(), response);
        }
    }

    #[test]
    fn empty_report_round_trips() {
        let report = ArrivalReport {
            tuple_id: 0,
            facts: Vec::new(),
            prominent_count: 0,
        };
        let payload = Response::Report(report.clone()).encode();
        assert_eq!(
            Response::decode(&payload).unwrap(),
            Response::Report(report)
        );
    }

    #[test]
    fn malformed_payloads_are_protocol_errors() {
        for payload in [
            "",
            "NOSUCH",
            "TOPK",
            "TOPK\tx",
            "INGEST\t1",
            "INGEST\t1\t1\ta",                             // field count mismatch
            "INGEST\t1\t1\ta\tnope",                       // unparseable measure
            "INGEST_BATCH\t2\n1\t1\ta\t1.0",               // declared 2, carried 1
            "INGEST_BATCH\t1\n1\t1\ta\t1.0\n1\t1\tb\t2.0", // declared 1, carried 2
            "PING\textra",
            "OPEN\tt\t1.0\t_\t_",                    // missing m_hat head field
            "OPEN\tt\t1.0\t_\t_\t_",                 // missing dim/measure lines
            "OPEN\tt\t1.0\t_\t_\t_\nd",              // missing measure line
            "OPEN\tt\tx\t_\t_\t_\nd\nm:max",         // tau is not a number
            "OPEN\tt\t1.0\t_\t_\t_\nd\nm",           // mdef without direction
            "OPEN\tt\t1.0\t_\t_\t_\nd\nm:up",        // unknown direction
            "OPEN\tt\t1.0\t_\t_\t_\n\nm:max",        // empty dimension name
            "OPEN\tt\t1.0\t_\t_\t_\nd\nm:max\nx",    // trailing line
            "OPEN\tt\t1.0\t_\t_\t_\tx\nd\nm:max",    // window is not a count
            "OPEN\tt\t1.0\t_\t_\t_\t8\t9\nd\nm:max", // over-long head
            "USE",
            "USE\t",
            "USE\ta\tb",
            "USE\tt\nextra",
            "CLOSE",
            "CLOSE\t",
            "CLOSE\ta\tb",
            "CLOSE\tt\nextra",
        ] {
            assert!(
                Request::decode(payload).is_err(),
                "request {payload:?} should be rejected"
            );
        }
        for payload in [
            "",
            "NOSUCH",
            "STATS\t1\t2",
            "REPORT",
            "REPORT\nR\t0\t0\t1",                // truncated fact list
            "REPORT\nR\t0\t2\t1\nF\t1\t1\t1\t0", // prominent > nfacts
            "REPORTS\t1",
            "ERR\tonly-kind",
            // Trailing input after a complete response.
            "REPORT\nR\t0\t0\t0\ngarbage",
            "REPORT\textra\nR\t0\t0\t0",
            "PONG\tx",
            "PONG\nx",
            "OK\nmore",
            "BYE\tz",
        ] {
            assert!(
                matches!(Response::decode(payload), Err(ServeError::Protocol(_))),
                "response {payload:?} should be rejected"
            );
        }
        // No verb takes a line after what its encoder writes.
        for response in [
            Response::Pong,
            Response::Bye,
            Response::Ok,
            Response::Stats(sample_stats()),
            Response::Report(sample_report()),
            Response::Reports(vec![sample_report()]),
            Response::Error {
                kind: "State".into(),
                message: "m".into(),
            },
        ] {
            let payload = format!("{}\nextra", response.encode());
            assert!(
                matches!(Response::decode(&payload), Err(ServeError::Protocol(_))),
                "response {payload:?} should be rejected"
            );
        }
    }

    /// The report codec's bytes, pinned: edge values encode to this exact
    /// payload, and it decodes back to them.
    #[test]
    fn reports_encode_to_the_golden_payload() {
        let response = Response::Reports(vec![
            ArrivalReport {
                tuple_id: 0,
                facts: Vec::new(),
                prominent_count: 0,
            },
            ArrivalReport {
                tuple_id: TupleId::MAX,
                facts: vec![
                    fact(vec![UNBOUND, 0, UNBOUND - 1], 0, u64::MAX, u64::MAX),
                    fact(vec![10, 909, 1], 0b1011, 1_000_000, 1),
                    fact(vec![UNBOUND, UNBOUND, UNBOUND], 7, 0, 0),
                ],
                prominent_count: 2,
            },
        ]);
        let golden = "REPORTS\t2\n\
                      R\t0\t0\t0\n\
                      R\t4294967295\t2\t3\n\
                      F\t18446744073709551615\t18446744073709551615\t0\t_,0,4294967294\n\
                      F\t1000000\t1\t11\t10,909,1\n\
                      F\t0\t0\t7\t_,_,_";
        assert_eq!(response.encode(), golden);
        assert_eq!(Response::decode(golden).unwrap(), response);
    }

    /// What the report decoder accepts and rejects, field by field: numbers
    /// are whatever `str::parse` takes (a leading `+` included), a value
    /// list needs every value, and the fact lines must all be there.
    #[test]
    fn report_decoder_verdicts() {
        let one = |line: &str| format!("REPORT\nR\t0\t0\t1\n{line}");
        let with = |values: Vec<u32>, context: u64| {
            Some(Response::Report(ArrivalReport {
                tuple_id: 0,
                facts: vec![fact(values, 1, context, 1)],
                prominent_count: 0,
            }))
        };
        // (case, payload, the decoded response or None for a protocol error)
        let cases: Vec<(&str, String, Option<Response>)> = vec![
            ("plain", one("F\t2\t1\t1\t5"), with(vec![5], 2)),
            ("`+5` value", one("F\t2\t1\t1\t+5"), with(vec![5], 2)),
            ("`+5` context", one("F\t+5\t1\t1\t5"), with(vec![5], 5)),
            (
                "`u32::MAX` value",
                one("F\t2\t1\t1\t4294967295"),
                with(vec![UNBOUND], 2),
            ),
            ("`-1` value", one("F\t2\t1\t1\t-1"), None),
            ("`-1` context", one("F\t-1\t1\t1\t5"), None),
            ("`-1` tuple id", "REPORT\nR\t-1\t0\t0".into(), None),
            (
                "2^64 context",
                one("F\t18446744073709551616\t1\t1\t5"),
                None,
            ),
            (
                "2^64 skyline",
                one("F\t2\t18446744073709551616\t1\t5"),
                None,
            ),
            ("2^32 value", one("F\t2\t1\t1\t4294967296"), None),
            ("2^32 subspace", one("F\t2\t1\t4294967296\t5"), None),
            ("empty value list", one("F\t2\t1\t1\t"), None),
            ("`,,`", one("F\t2\t1\t1\t,,"), None),
            ("trailing comma", one("F\t2\t1\t1\t5,"), None),
            ("`_` context", one("F\t_\t1\t1\t5"), None),
            ("F with 4 fields", one("F\t2\t1\t1"), None),
            ("F with 6 fields", one("F\t2\t1\t1\t5\t6"), None),
            ("G line", one("G\t2\t1\t1\t5"), None),
            ("R with 3 fields", "REPORT\nR\t0\t0".into(), None),
            ("R with 5 fields", "REPORT\nR\t0\t0\t0\t0".into(), None),
            (
                "3 facts declared, 1 sent",
                "REPORT\nR\t0\t0\t3\nF\t2\t1\t1\t5".into(),
                None,
            ),
            (
                "2 reports declared, 1 sent",
                "REPORTS\t2\nR\t0\t0\t0".into(),
                None,
            ),
        ];
        for (case, payload, expected) in cases {
            match (Response::decode(&payload), expected) {
                (Ok(got), Some(want)) => assert_eq!(got, want, "{case}"),
                (Err(ServeError::Protocol(_)), None) => {}
                (got, want) => panic!("{case}: got {got:?}, want {want:?}"),
            }
        }
    }

    #[test]
    fn error_message_newlines_are_flattened() {
        let response = Response::Error {
            kind: "Io".into(),
            message: "line one\nline two".into(),
        };
        let payload = response.encode();
        assert!(!payload.contains('\n'));
        let Response::Error { message, .. } = Response::decode(&payload).unwrap() else {
            panic!("wrong verb");
        };
        assert_eq!(message, "line one line two");
    }
}
