//! The blocking client: a typed veneer over the wire protocol.

use crate::error::ServeError;
use crate::protocol::{
    read_frame, write_frame, Frame, RawRow, Request, Response, ServerStats, TenantSpec,
};
use sitfact_prominence::ArrivalReport;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A blocking connection to a [`FactServer`](crate::FactServer).
///
/// One request is in flight at a time; every method writes a frame and blocks
/// for the matching response frame. Reports come back **byte-identical** to
/// what the server-side monitor produced (the e2e test pins this with `==`
/// against an in-process monitor).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// One request → response round trip.
    fn roundtrip(&mut self, request: &Request) -> Result<Response, ServeError> {
        write_frame(&mut self.writer, &request.encode()?)?;
        self.writer.flush()?;
        // The client sets no read timeout, so a frame that is not a payload
        // means the server hung up.
        let Frame::Payload(payload) = read_frame(&mut self.reader)? else {
            return Err(ServeError::Protocol(
                "server closed the connection mid-request".into(),
            ));
        };
        match Response::decode(&payload)? {
            Response::Error { kind, message } => Err(ServeError::Remote { kind, message }),
            response => Ok(response),
        }
    }

    fn unexpected(what: &str, got: &Response) -> ServeError {
        ServeError::Protocol(format!("expected {what}, got {got:?}"))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(Self::unexpected("PONG", &other)),
        }
    }

    /// Creates a named tenant monitor on the server from an inline schema +
    /// config. Does **not** switch this connection to it — call
    /// [`Client::use_tenant`] after.
    pub fn open(&mut self, spec: &TenantSpec) -> Result<(), ServeError> {
        match self.roundtrip(&Request::Open(spec.clone()))? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected("OK", &other)),
        }
    }

    /// Switches this connection's current tenant; subsequent ingests and
    /// reads address the named tenant's monitor.
    pub fn use_tenant(&mut self, name: &str) -> Result<(), ServeError> {
        match self.roundtrip(&Request::Use(name.to_string()))? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected("OK", &other)),
        }
    }

    /// Evicts the named tenant's monitor from server memory (a typed
    /// `Tenant` error if the name is unknown). On a durable server the
    /// tenant's on-disk state survives: a later [`Client::open`] of the same
    /// name recovers it.
    pub fn close(&mut self, name: &str) -> Result<(), ServeError> {
        match self.roundtrip(&Request::Close(name.to_string()))? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected("OK", &other)),
        }
    }

    /// Current tenant's monitor statistics.
    pub fn stats(&mut self) -> Result<ServerStats, ServeError> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(Self::unexpected("STATS", &other)),
        }
    }

    /// Ingests one row and returns its ranked-fact report.
    pub fn ingest(
        &mut self,
        dims: &[impl AsRef<str>],
        measures: &[f64],
    ) -> Result<ArrivalReport, ServeError> {
        match self.roundtrip(&Request::Ingest(RawRow::new(dims, measures)))? {
            Response::Report(report) => Ok(report),
            other => Err(Self::unexpected("REPORT", &other)),
        }
    }

    /// Ingests a window of rows through the server's batched fast path,
    /// returning one report per row in submission order.
    pub fn ingest_batch(&mut self, rows: Vec<RawRow>) -> Result<Vec<ArrivalReport>, ServeError> {
        let expected = rows.len();
        match self.roundtrip(&Request::IngestBatch(rows))? {
            Response::Reports(reports) if reports.len() == expected => Ok(reports),
            Response::Reports(reports) => Err(ServeError::Protocol(format!(
                "sent {expected} rows but received {} reports",
                reports.len()
            ))),
            other => Err(Self::unexpected("REPORTS", &other)),
        }
    }

    /// The top-`k` prefix of the most recent arrival's report.
    pub fn top_k(&mut self, k: usize) -> Result<ArrivalReport, ServeError> {
        match self.roundtrip(&Request::TopK(k))? {
            Response::Report(report) => Ok(report),
            other => Err(Self::unexpected("REPORT", &other)),
        }
    }

    /// Asks the server to exit its accept loop; the connection closes after
    /// the acknowledgement.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(Self::unexpected("BYE", &other)),
        }
    }
}
