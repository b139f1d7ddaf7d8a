//! The blocking TCP server: multi-tenant monitors behind a listener.
//!
//! The server hosts named **tenants** — independent monitors clients create
//! over the wire (`OPEN`) and select per connection (`USE`) — plus the
//! default tenant it was bound with. Every tenant is one
//! [`Served`] monitor; whether the bound one is an unsharded
//! [`FactMonitor`](sitfact_prominence::FactMonitor) or a
//! [`ShardedMonitor`](sitfact_prominence::ShardedMonitor) is decided where
//! it is constructed, never inside the server.
//!
//! Connections are framed and parsed on the vendored
//! [`ThreadPool`] (no async runtime exists in this offline workspace). Past
//! the parser there is one shared-nothing engine: each worker of an
//! [`ActorPool`](sitfact_core::ActorPool) owns its tenants' monitors
//! outright; ingests travel through the owner's mailbox, `STATS`/`TOPK` are
//! answered from the published snapshot in a
//! [`SnapshotCell`](sitfact_core::SnapshotCell) without ever touching the
//! owning worker.
//!
//! Sockets carry read/write timeouts ([`ServerOptions`]) so a peer that
//! stalls mid-frame — or never drains its responses — is dropped instead of
//! pinning a pool worker forever. A peer that is merely *idle between
//! frames* is kept alive indefinitely.

use crate::protocol::{read_frame, write_frame, Frame, Request, Response};
use crate::tenant::{Durability, Engine, DEFAULT_TENANT};
use sitfact_core::pool::ThreadPool;
use sitfact_prominence::{Served, WalOptions};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How often the accept loop re-checks the shutdown flag while no
/// connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Construction-time knobs for a [`FactServer`], built fluently from
/// [`FactServer::builder`] and finished with [`ServerOptions::bind`]:
///
/// ```no_run
/// # use sitfact_core::{Direction, SchemaBuilder};
/// # use sitfact_algos::STopDown;
/// # use sitfact_prominence::{FactMonitor, MonitorConfig};
/// use sitfact_serve::FactServer;
///
/// # let schema = SchemaBuilder::new("gamelog")
/// #     .dimension("player")
/// #     .measure("points", Direction::HigherIsBetter)
/// #     .build()
/// #     .unwrap();
/// # let config = MonitorConfig::default().with_tau(2.0);
/// # let monitor = FactMonitor::new(
/// #     schema.clone(),
/// #     STopDown::new(&schema, config.discovery),
/// #     config,
/// # );
/// let server = FactServer::builder()
///     .with_workers(8)
///     .with_owners(4)
///     .with_data_dir("/var/lib/sitfact")
///     .bind("127.0.0.1:0", monitor)
///     .unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Connection-handler workers: at most this many connections are
    /// serviced concurrently, later ones queue on the pool.
    pub workers: usize,
    /// Monitor-owning workers; tenants are hashed across them.
    pub owners: usize,
    /// Dropped if a peer stalls this long *mid-frame* (idle between frames
    /// is always tolerated). `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Dropped if a peer leaves a response undelivered this long (e.g. a
    /// full TCP window that never drains). `None` waits forever.
    pub write_timeout: Option<Duration>,
    /// Root directory for per-tenant write-ahead logs. `None` (the default)
    /// serves purely in memory; `Some` makes every tenant durable — each
    /// accepted window is logged before it is acknowledged, and binding (or
    /// `OPEN`ing a tenant whose directory already exists) recovers state
    /// from disk.
    pub data_dir: Option<PathBuf>,
    /// WAL sync/snapshot policy applied to every tenant (ignored without
    /// [`ServerOptions::data_dir`]).
    pub wal: WalOptions,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            workers: FactServer::DEFAULT_WORKERS,
            owners: FactServer::DEFAULT_WORKERS,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            data_dir: None,
            wal: WalOptions::default(),
        }
    }
}

impl ServerOptions {
    /// Sets the number of connection-handler workers.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the number of monitor-owning workers.
    pub fn with_owners(mut self, owners: usize) -> Self {
        self.owners = owners;
        self
    }

    /// Sets the mid-frame read timeout (`None` waits forever).
    pub fn with_read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Sets the response write timeout (`None` waits forever).
    pub fn with_write_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.write_timeout = timeout;
        self
    }

    /// Enables durability: per-tenant write-ahead logs under `root`, crash
    /// recovery at bind / `OPEN` time.
    pub fn with_data_dir(mut self, root: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(root.into());
        self
    }

    /// Sets the WAL sync/snapshot policy used with
    /// [`ServerOptions::with_data_dir`].
    pub fn with_wal(mut self, wal: WalOptions) -> Self {
        self.wal = wal;
        self
    }

    /// Binds a listener with these options and wraps `monitor` as the default
    /// tenant — the builder's terminal step. A configured
    /// [`ServerOptions::data_dir`] makes this recover the default tenant
    /// from disk before the listener goes live; recovery failures (corrupt
    /// directory, I/O errors) and a configuration the monitor cannot honour
    /// (a snapshot interval for a sharded monitor) surface here as
    /// `io::Error`.
    pub fn bind(
        self,
        addr: impl ToSocketAddrs,
        monitor: impl Into<Served>,
    ) -> std::io::Result<FactServer> {
        let durability = self.data_dir.map(|root| Durability {
            root,
            wal: self.wal,
        });
        let engine = Engine::new(monitor.into(), self.owners, durability)
            .map_err(|error| std::io::Error::new(ErrorKind::InvalidData, error.to_string()))?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(FactServer {
            listener,
            pool: ThreadPool::new(self.workers),
            shared: Arc::new(Shared {
                engine,
                running: AtomicBool::new(true),
                addr,
                connections: Mutex::new(HashMap::new()),
                next_connection_id: AtomicU64::new(0),
                read_timeout: self.read_timeout,
                write_timeout: self.write_timeout,
            }),
        })
    }
}

/// Everything a connection handler needs, shared across workers.
pub(crate) struct Shared {
    pub(crate) engine: Engine,
    running: AtomicBool,
    addr: SocketAddr,
    /// One registered clone per live connection, keyed by a connection id.
    /// Shutdown half-closes them all, so a worker parked reading an idle
    /// keep-alive peer observes EOF and exits instead of pinning `run()`'s
    /// pool join forever. Handlers deregister on exit.
    connections: Mutex<HashMap<u64, TcpStream>>,
    next_connection_id: AtomicU64,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
}

/// Per-connection protocol state: which tenant this connection currently
/// addresses (`USE` switches it; connections start on the default tenant).
struct Session {
    tenant: String,
}

impl Default for Session {
    fn default() -> Self {
        Session {
            tenant: DEFAULT_TENANT.to_string(),
        }
    }
}

/// A handle for stopping a running [`FactServer`] from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Asks the accept loop to exit. Idempotent; returns once the request is
    /// delivered (the loop itself finishes draining in-flight connections on
    /// its own thread).
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }
}

impl Shared {
    fn initiate_shutdown(&self) {
        if !self.running.swap(false, Ordering::SeqCst) {
            return; // already shutting down
        }
        // Half-close the *read* side of every live connection: workers parked
        // reading idle peers see EOF and retire, so the pool join in `run()`
        // cannot hang on a keep-alive client. The write side stays open, so a
        // request that is still executing delivers its response before its
        // worker observes the EOF and exits — in-flight work drains, it is
        // not cut off. The accept loop itself needs no poke: it polls the
        // flag with a nonblocking listener.
        if let Ok(connections) = self.connections.lock() {
            #[expect(
                clippy::iter_over_hash_type,
                reason = "every connection is half-closed, each independently of the others; \
                          the order is observable to no one"
            )]
            for stream in connections.values() {
                let _ = stream.shutdown(std::net::Shutdown::Read);
            }
        }
    }

    /// Registers a connection for shutdown half-close; returns its id, or
    /// `None` if the stream cannot be cloned (the caller should drop it).
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let id = self.next_connection_id.fetch_add(1, Ordering::Relaxed);
        self.connections.lock().ok()?.insert(id, clone);
        Some(id)
    }

    fn deregister(&self, id: u64) {
        if let Ok(mut connections) = self.connections.lock() {
            connections.remove(&id);
        }
    }
}

/// A blocking, multi-tenant TCP front-end over [`Served`] monitors.
///
/// ```no_run
/// use sitfact_core::{Direction, SchemaBuilder, DiscoveryConfig};
/// use sitfact_algos::STopDown;
/// use sitfact_prominence::{FactMonitor, MonitorConfig};
/// use sitfact_serve::FactServer;
///
/// let schema = SchemaBuilder::new("gamelog")
///     .dimension("player")
///     .measure("points", Direction::HigherIsBetter)
///     .build()
///     .unwrap();
/// let config = MonitorConfig::default().with_tau(2.0);
/// let monitor = FactMonitor::new(
///     schema.clone(),
///     STopDown::new(&schema, config.discovery),
///     config,
/// );
/// let server = FactServer::bind("127.0.0.1:0", monitor).unwrap();
/// println!("listening on {}", server.local_addr());
/// server.run().unwrap(); // blocks until a client sends SHUTDOWN
/// ```
pub struct FactServer {
    listener: TcpListener,
    pool: ThreadPool,
    shared: Arc<Shared>,
}

impl FactServer {
    /// Default number of connection-handler (and monitor-owning) workers.
    pub const DEFAULT_WORKERS: usize = 4;

    /// Binds a listener and wraps `monitor` as the default tenant, with
    /// [`ServerOptions::default`] (30 s socket timeouts, no durability).
    pub fn bind(addr: impl ToSocketAddrs, monitor: impl Into<Served>) -> std::io::Result<Self> {
        ServerOptions::default().bind(addr, monitor)
    }

    /// Starts a fluent options builder; finish with [`ServerOptions::bind`].
    pub fn builder() -> ServerOptions {
        ServerOptions::default()
    }

    /// Address the server is listening on (the ephemeral port when bound to
    /// port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A clonable handle that can stop the accept loop from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Accepts and serves connections until a client sends `SHUTDOWN` (or a
    /// [`ServerHandle::shutdown`] fires). In-flight connections finish before
    /// this returns: dropping the pool joins every worker.
    pub fn run(self) -> std::io::Result<()> {
        // Nonblocking accept + short flag polls, so shutdown needs no
        // throwaway wake-up connection and a raced `accept` cannot park the
        // loop forever.
        self.listener.set_nonblocking(true)?;
        while self.shared.running.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Accepted sockets must block (with timeouts): the
                    // nonblocking flag is per-socket and not inherited on
                    // every platform, so set it explicitly.
                    if stream.set_nonblocking(false).is_err() {
                        continue;
                    }
                    let shared = Arc::clone(&self.shared);
                    self.pool
                        .execute(move || handle_connection(stream, &shared));
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(err) if err.kind() == ErrorKind::Interrupted => {}
                Err(err) => {
                    if self.shared.running.load(Ordering::SeqCst) {
                        return Err(err);
                    }
                    break;
                }
            }
        }
        // `self.pool` drops here: the job queue drains and every worker
        // joins, so no connection is abandoned mid-request.
        Ok(())
    }
}

/// Serves one connection: applies the socket timeouts, registers it for
/// shutdown half-close, then loops request frame → response frame until EOF,
/// a dead peer, or `SHUTDOWN`.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    if stream.set_read_timeout(shared.read_timeout).is_err()
        || stream.set_write_timeout(shared.write_timeout).is_err()
    {
        return;
    }
    let Some(connection_id) = shared.register(&stream) else {
        return;
    };
    // Re-check after registering: a shutdown that raced the registration has
    // already swept the connection map, so parking on this socket now could
    // never be interrupted.
    if !shared.running.load(Ordering::SeqCst) {
        shared.deregister(connection_id);
        return;
    }
    serve_connection(stream, shared);
    shared.deregister(connection_id);
}

fn serve_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut session = Session::default();
    loop {
        // A timeout between frames is an idle keep-alive peer; one inside a
        // frame (an error, like a torn or oversized frame) drops the peer.
        let payload = match read_frame(&mut stream) {
            Ok(Frame::Payload(payload)) => payload,
            Ok(Frame::Idle) => {
                if !shared.running.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Ok(Frame::Closed) | Err(_) => return,
        };
        let (response, shutdown) = match Request::decode(&payload) {
            Ok(request) => {
                let shutdown = request == Request::Shutdown;
                (handle_request(request, shared, &mut session), shutdown)
            }
            Err(err) => (
                Response::Error {
                    kind: "Protocol".into(),
                    message: err.to_string(),
                },
                false,
            ),
        };
        if write_frame(&mut writer, &response.encode()).is_err() {
            return;
        }
        if shutdown {
            shared.initiate_shutdown();
            return;
        }
    }
}

/// Executes one request: liveness, shutdown and tenant selection are
/// connection-level; everything else goes to the engine under the session's
/// current tenant.
fn handle_request(request: Request, shared: &Arc<Shared>, session: &mut Session) -> Response {
    match request {
        // Liveness and shutdown take no monitor state and must answer even
        // while every owner is busy with a long batched ingest — a health
        // probe with a short timeout must never see a busy server as dead,
        // and a shutdown must never queue behind a window.
        Request::Ping => Response::Pong,
        Request::Shutdown => Response::Bye,
        Request::Open(spec) => shared.engine.open(&spec),
        Request::Use(name) => {
            let response = shared.engine.use_tenant(&name);
            if response == Response::Ok {
                session.tenant = name;
            }
            response
        }
        // CLOSE does not reset any session: a connection still pointing at
        // the closed tenant simply gets typed `Tenant` errors on dispatch,
        // exactly as if it had never been opened.
        Request::Close(name) => shared.engine.close(&name),
        other => shared.engine.dispatch(&session.tenant, other),
    }
}

// The end-to-end behaviour (served ≡ in-process reports for both monitor
// types, tenant isolation, error relay, stalled peers, shutdown) is pinned by `tests/e2e.rs`, which exercises this module over
// real sockets.

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests race plain threads against the code under test"
)]
mod tests {
    use super::*;
    use crate::protocol::RawRow;
    use crate::tenant::PANICKING_RELATION;
    use crate::ServeError;
    use sitfact_algos::STopDown;
    use sitfact_core::{Direction, SchemaBuilder};
    use sitfact_prominence::{FactMonitor, MonitorConfig};

    fn monitor() -> FactMonitor<STopDown> {
        monitor_of("t")
    }

    fn monitor_of(relation: &str) -> FactMonitor<STopDown> {
        let schema = SchemaBuilder::new(relation)
            .dimension("player")
            .measure("points", Direction::HigherIsBetter)
            .build()
            .unwrap();
        let config = MonitorConfig::default().with_tau(1.0);
        FactMonitor::new(
            schema.clone(),
            STopDown::new(&schema, config.discovery),
            config,
        )
    }

    #[test]
    fn bind_reports_the_ephemeral_port() {
        let server = FactServer::bind("127.0.0.1:0", monitor()).unwrap();
        let addr = server.local_addr();
        assert_ne!(addr.port(), 0);
        assert_eq!(server.handle().addr(), addr);
    }

    #[test]
    fn handle_shutdown_unblocks_run() {
        let server = FactServer::bind("127.0.0.1:0", monitor()).unwrap();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        handle.shutdown();
        handle.shutdown(); // idempotent
        join.join().expect("no panic").expect("clean exit");
    }

    #[test]
    fn owned_mode_scopes_a_panicking_monitor_to_its_tenant() {
        use crate::protocol::TenantSpec;

        // The default tenant's relation carries the name whose ingest panics
        // in test builds.
        let server = FactServer::bind("127.0.0.1:0", monitor_of(PANICKING_RELATION)).unwrap();
        let addr = server.local_addr();
        let join = std::thread::spawn(move || server.run());

        let mut client = crate::client::Client::connect(addr).unwrap();
        // The default tenant's monitor panics on ingest: the request relays a
        // typed State error, the worker and the connection both survive.
        match client.ingest(&["Wesley"], &[10.0]) {
            Err(ServeError::Remote { kind, message }) => {
                assert_eq!(kind, "State");
                assert!(message.contains("poisoned"), "{message}");
            }
            other => panic!("expected a State error, got {other:?}"),
        }
        // The poison sticks for the tenant, on the read path too...
        match client.stats() {
            Err(ServeError::Remote { kind, .. }) => assert_eq!(kind, "State"),
            other => panic!("expected a State error, got {other:?}"),
        }
        // ...while liveness still answers: PING never touches a monitor.
        client.ping().unwrap();
        // A second connection (a client reconnect) sees the same typed error
        // on the poisoned tenant — not a hang-up — and is live itself.
        let mut second = crate::client::Client::connect(addr).unwrap();
        match second.ingest(&["Dirk"], &[20.0]) {
            Err(ServeError::Remote { kind, message }) => {
                assert_eq!(kind, "State");
                assert!(message.contains("poisoned"), "{message}");
            }
            other => panic!("expected a State error, got {other:?}"),
        }
        second.ping().unwrap();
        // ...but it is scoped to the tenant: a freshly OPENed one is healthy.
        let spec = TenantSpec::new(
            "healthy",
            &["player"],
            &[("points", Direction::HigherIsBetter)],
            1.0,
        );
        client.open(&spec).unwrap();
        client.use_tenant("healthy").unwrap();
        client.ingest(&["Wesley"], &[10.0]).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.len, 1);
        assert_eq!(stats.schema, "healthy");

        // SHUTDOWN over the wire still ends `run()`, from the connection
        // that only ever saw the poisoned tenant.
        second.shutdown().unwrap();
        join.join().expect("no panic").expect("clean exit");
    }

    #[test]
    fn topk_truncates_and_stats_reflect_config() {
        let server = FactServer::bind("127.0.0.1:0", monitor()).unwrap();
        let shared = Arc::clone(&server.shared);
        let mut session = Session::default();
        // TOPK before any arrival is a state error.
        let response = handle_request(Request::TopK(3), &shared, &mut session);
        assert!(matches!(response, Response::Error { kind, .. } if kind == "State"));
        // Ingest one row, then TOPK 1 returns a single-fact prefix.
        let row = RawRow::new(&["Wesley"], &[10.0]);
        let Response::Report(full) = handle_request(Request::Ingest(row), &shared, &mut session)
        else {
            panic!("ingest failed");
        };
        assert!(full.facts.len() > 1);
        let Response::Report(top) = handle_request(Request::TopK(1), &shared, &mut session) else {
            panic!("topk failed");
        };
        assert_eq!(top.facts.len(), 1);
        assert_eq!(top.prominent_count, 1);
        assert_eq!(top.facts[0], full.facts[0]);
        // A `k` past the end returns the whole report, unchanged.
        assert_eq!(
            handle_request(Request::TopK(1 << 20), &shared, &mut session),
            Response::Report(full)
        );
        let Response::Stats(stats) = handle_request(Request::Stats, &shared, &mut session) else {
            panic!("stats failed");
        };
        assert_eq!(stats.len, 1);
        assert_eq!(stats.schema, "t");
        assert_eq!(stats.tau, 1.0);
        assert!(stats.uncompressed_bytes > 0);
    }
}
