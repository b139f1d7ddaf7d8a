//! The untraced served run: a real in-process `FactServer` on loopback TCP,
//! driven through `sitfact_serve::Client`. Every end-to-end metric comes
//! from here.

use crate::loadgen::{run_paced, Clock, PacedSamples, WallClock};
use crate::stats;
use crate::workload::{monitor_parts, Pacing, Spec, Stream};
use sitfact_algos::STopDown;
use sitfact_core::hash::FxHasher;
use sitfact_core::{Direction, SchemaBuilder, ThreadPool};
use sitfact_prominence::{
    ArrivalReport, FactMonitor, MonitorConfig, StreamMonitor, WindowPolicy, WindowedMonitor,
};
use sitfact_serve::{
    Client, FactServer, RawRow, Response, ServeError, ServeMode, ServerHandle, ServerStats,
    SyncPolicy, TenantSpec, WalOptions,
};
use std::hash::Hasher;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many leading reports are compared `==` against a real in-process
/// monitor fed the same requests.
pub const PREFIX_REPORTS: usize = 2_000;

/// Set-up is repeated this often per run and reported as the median, so one
/// slow bind or accept poll does not decide `setup_s`. A restart that has no
/// log to replay is repeated as often, for the same reason.
pub const SETUP_REPS: usize = 11;

/// Restarts of a durable workload: each replays the whole log, which takes
/// seconds and is steady enough for a median of three.
const DURABLE_RESTARTS: usize = 3;

/// Closed-loop requests behind `serve.sync_latency_p50_us`.
const SYNC_PROBES: usize = 2_000;

/// How long after bind the first connection is made; see [`set_up`].
const ACCEPT_PHASE: Duration = Duration::from_micros(500);

/// How long [`load_machine`] saturates the hardware threads.
const LOAD_MACHINE: Duration = Duration::from_millis(1_500);

/// `PING` round trips behind `serve.ping_rtt_us`.
const PING_PROBES: usize = 2_000;

/// Facts asked for by the open-loop reader (`TOPK 8`).
const TOPK_K: usize = 8;

/// Requests attempted and failed, with the first few reasons kept for the
/// operator. A failure is an `ERR` reply, a transport error, a wrong report
/// count or id, or any output mismatch.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tally {
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Up to eight human-readable reasons.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one more checked operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Counts a failure of an already-attempted operation.
    pub fn fail(&mut self, note: impl Into<String>) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note.into());
        }
    }

    /// Counts one checked operation that must hold.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempt();
        if !ok {
            self.fail(note());
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }
}

/// Running fingerprint of encoded replies. The served run and the mirror run
/// each feed one; equal fingerprints mean byte-identical reply streams.
#[derive(Default)]
pub struct ReplyHash(FxHasher);

impl ReplyHash {
    /// Mixes one encoded reply payload in.
    pub fn record(&mut self, payload: &str) {
        self.0.write(payload.as_bytes());
        self.0.write_u8(0xff);
    }

    /// The fingerprint so far.
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// A `FactServer` accepting on its own pool thread.
pub struct Server {
    handle: ServerHandle,
    exited: Receiver<std::io::Result<()>>,
}

impl Server {
    /// Binds loopback with one monitor owner (and a data directory, logging
    /// under `sync`, for durable workloads) and starts accepting.
    pub fn start(
        pool: &ThreadPool,
        data_dir: Option<&Path>,
        sync: SyncPolicy,
    ) -> std::io::Result<Server> {
        // The default tenant is never addressed: every workload OPENs its
        // own tenant over the wire, as a production client would.
        let schema = SchemaBuilder::new("unused")
            .dimension("d")
            .measure("m", Direction::HigherIsBetter)
            .build()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        let config = MonitorConfig::default();
        let monitor = FactMonitor::new(
            schema.clone(),
            STopDown::new(&schema, config.discovery),
            config,
        );
        let mut options = FactServer::builder()
            .with_owners(1)
            .with_mode(ServeMode::Owned);
        if let Some(dir) = data_dir {
            options = options
                .with_data_dir(dir)
                .with_wal(WalOptions::default().with_sync(sync));
        }
        let server = options.bind("127.0.0.1:0", Box::new(monitor))?;
        let handle = server.handle();
        let (exit_tx, exited) = channel();
        pool.execute(move || {
            let _ = exit_tx.send(server.run());
        });
        Ok(Server { handle, exited })
    }

    /// The bound loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Stops accepting and waits until the accept loop and every connection
    /// handler have ended (dropping the tenants and their WAL handles).
    pub fn stop(self) {
        self.handle.shutdown();
        let _ = self.exited.recv();
    }
}

/// Everything the served run measured.
pub struct Served {
    /// Median seconds of [`SETUP_REPS`] set-ups.
    pub setup_s: f64,
    /// When, and how long after it was sent or due, each ingest reply came.
    pub timeline: Timeline,
    /// Open loop only: `TOPK` latency from the due time, ascending.
    pub topk_latency_ns: Vec<u64>,
    /// Open loop only: send lag of both connections, ascending.
    pub late_ns: Vec<u64>,
    /// Fingerprint of every ingest reply, re-encoded after decoding.
    pub reply_hash: u64,
    /// The first [`PREFIX_REPORTS`] reports.
    pub prefix: Vec<ArrivalReport>,
    /// `STATS` after the last ingest.
    pub final_stats: Option<ServerStats>,
    /// Median seconds from a stopped server to the re-bound one answering
    /// `STATS` for the re-`OPEN`ed tenant (durable: with every row replayed).
    pub recovery_s: f64,
    /// Traced runs only: `PING` round trips, ascending.
    pub ping_rtt_ns: Vec<u64>,
    /// Traced durable runs only: report latency of [`SYNC_PROBES`] requests
    /// against a server that fsyncs every window, ascending.
    pub sync_latency_ns: Vec<u64>,
    /// `VmHWM` at the end of the ingest phase.
    pub peak_rss_mb: f64,
    /// Operations attempted / failed.
    pub tally: Tally,
}

/// The ingest phase as the client saw it, one entry per request in send
/// order, on one clock.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Timeline {
    /// When the phase began (open loop: when request 0 was due).
    pub start_ns: u64,
    /// Rows carried by each request.
    pub rows_per_request: usize,
    /// Reply decoded minus request sent (open loop: minus request *due*).
    pub latency_ns: Vec<u64>,
    /// When the reply was decoded.
    pub done_ns: Vec<u64>,
}

/// Fixed inputs of one served run.
pub struct RunConfig<'a> {
    /// The workload.
    pub spec: &'a Spec,
    /// Stream seed.
    pub seed: u64,
    /// Ingest requests to send.
    pub requests: usize,
    /// 1.0 for a full run, smaller for `--smoke`.
    pub scale: f64,
    /// Scratch directory for the durable workload's data directory.
    pub out_dir: &'a Path,
    /// Whether to run the probes of a traced run: `PING` round trips and,
    /// when durable, the fsynced ingest.
    pub probes: bool,
}

struct Ready {
    stream: Stream,
    server: Server,
    client: Client,
    seconds: f64,
}

/// A data directory of the durable workload; `suffix` tells the served
/// run's from the fsynced probe's.
fn data_dir(config: &RunConfig<'_>, suffix: &str) -> Option<PathBuf> {
    config.spec.durable.then(|| {
        config
            .out_dir
            .join(format!("{}-{suffix}", config.spec.name))
    })
}

/// An empty directory at `dir`: leftovers of an earlier run would be
/// *recovered* by `OPEN`.
fn fresh_dir(dir: Option<&Path>) -> std::io::Result<()> {
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)?;
    }
    Ok(())
}

/// Binds a server, connects, and `OPEN`s + `USE`s the tenant. When the data
/// directory already holds the tenant, `OPEN` replays its log before it
/// answers.
///
/// The served run logs under `SyncPolicy::Os`, not the default `Always`:
/// every window is still written before it is acknowledged, but not fsynced.
/// On the reference box's virtio disk the fsync median drifted between 75
/// and 160 us from one set of runs to the next, which moved every end-to-end
/// number of the durable workload by up to 2x with no code change, more than
/// any bound may allow. The fsync cost is reported without a bound instead:
/// `wal.fsync_us` (the layer) and `serve.sync_latency_p50_us` (served).
fn connect(
    pool: &ThreadPool,
    dir: Option<&Path>,
    sync: SyncPolicy,
    tenant: &TenantSpec,
) -> Result<(Server, Client), ServeError> {
    let server = Server::start(pool, dir, sync)?;
    // The accept loop polls every 2 ms. A connect racing its very first
    // poll is picked up either at once or one full poll later — a coin flip
    // worth more than the rest of a small set-up. Connecting at a fixed
    // phase just after that first poll makes the wait the same every time.
    std::thread::sleep(ACCEPT_PHASE);
    let mut client = Client::connect(server.addr())?;
    client.open(tenant)?;
    client.use_tenant(&tenant.name)?;
    Ok((server, client))
}

/// One set-up: generate the stream, bind, `OPEN` + `USE` the tenant, and
/// wait for the first `PONG`.
fn set_up(config: &RunConfig<'_>, pool: &ThreadPool) -> Result<Ready, ServeError> {
    let dir = data_dir(config, "data");
    fresh_dir(dir.as_deref())?;
    let start = Instant::now();
    let stream = Stream::generate(config.spec, config.seed, config.requests, config.scale);
    let (server, mut client) = connect(pool, dir.as_deref(), SyncPolicy::Os, &stream.tenant)?;
    client.ping()?;
    Ok(Ready {
        stream,
        server,
        client,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// Checks one ingest reply (count and ids), folds it into the fingerprint,
/// and keeps the leading reports for the prefix check.
struct ReplyChecker {
    hash: ReplyHash,
    prefix: Vec<ArrivalReport>,
    next_id: u64,
    rows_acked: usize,
    tally: Tally,
}

impl ReplyChecker {
    fn new() -> Self {
        ReplyChecker {
            hash: ReplyHash::default(),
            prefix: Vec::with_capacity(PREFIX_REPORTS),
            next_id: 0,
            rows_acked: 0,
            tally: Tally::default(),
        }
    }

    fn reports(&mut self, sent_rows: usize, reply: Result<Vec<ArrivalReport>, ServeError>) {
        self.tally.attempt();
        let reports = match reply {
            Ok(reports) => reports,
            Err(error) => return self.tally.fail(format!("ingest failed: {error}")),
        };
        let ids_ok = reports
            .iter()
            .enumerate()
            .all(|(i, r)| u64::from(r.tuple_id) == self.next_id + i as u64);
        if reports.len() != sent_rows || !ids_ok {
            self.tally.fail(format!(
                "sent {sent_rows} rows from id {}, got {} reports (ids in order: {ids_ok})",
                self.next_id,
                reports.len()
            ));
        }
        self.next_id += sent_rows as u64;
        self.rows_acked += reports.len();
        let room = PREFIX_REPORTS - self.prefix.len();
        self.prefix.extend(reports.iter().take(room).cloned());
        // Re-encode exactly as the server framed it: one REPORT for INGEST,
        // one REPORTS for INGEST_BATCH.
        let response = match (sent_rows, reports.len()) {
            (1, 1) => Response::Report(reports.into_iter().next().expect("one report")),
            _ => Response::Reports(reports),
        };
        self.hash.record(&response.encode());
    }
}

fn ingest_once(client: &mut Client, window: &[RawRow]) -> Result<Vec<ArrivalReport>, ServeError> {
    if let [row] = window {
        let dims: Vec<&str> = row.dims.iter().map(String::as_str).collect();
        client
            .ingest(&dims, &row.measures)
            .map(|report| vec![report])
    } else {
        client.ingest_batch(window.to_vec())
    }
}

/// Closed loop, one client: the next request leaves when the previous
/// report has been decoded.
fn closed_loop(client: &mut Client, stream: &Stream, checker: &mut ReplyChecker) -> Timeline {
    let clock = WallClock::start();
    let mut timeline = Timeline {
        start_ns: clock.now_ns(),
        rows_per_request: stream.windows.first().map_or(1, Vec::len),
        latency_ns: Vec::with_capacity(stream.windows.len()),
        done_ns: Vec::with_capacity(stream.windows.len()),
    };
    for window in &stream.windows {
        let sent = clock.now_ns();
        let reply = ingest_once(client, window);
        let done = clock.now_ns();
        timeline.latency_ns.push(done - sent);
        timeline.done_ns.push(done);
        checker.reports(window.len(), reply);
    }
    timeline
}

/// Open loop, two connections: `INGEST` on this thread and `TOPK` on a pool
/// thread, each on its own fixed schedule.
fn open_loop(
    client: &mut Client,
    addr: SocketAddr,
    stream: &Stream,
    pacing: Pacing,
    pool: &ThreadPool,
    checker: &mut ReplyChecker,
) -> Result<(Timeline, Vec<u64>, PacedSamples, Tally), ServeError> {
    let clock = WallClock::start();
    // Lead time so both connections are parked on their first deadline.
    let start_ns = clock.now_ns() + 20_000_000;
    let ingests = stream.windows.len();
    let reads = (ingests as u64 * pacing.topk_hz / pacing.ingest_hz) as usize;
    let mut reader = Client::connect(addr)?;
    reader.use_tenant(&stream.tenant.name)?;
    // TOPK before the first arrival is a (correct) `State` error; the reader
    // therefore starts its schedule once the first ingest is acknowledged.
    let first_acked = Arc::new(AtomicBool::new(false));
    let reader_gate = Arc::clone(&first_acked);
    let (done_tx, done_rx) = channel();
    pool.execute(move || {
        let mut tally = Tally::default();
        while !reader_gate.load(Ordering::Acquire) {
            clock.wait_until(clock.now_ns() + 100_000);
        }
        let first_due = clock.now_ns().max(start_ns) + 1_000_000_000 / pacing.topk_hz;
        let samples = run_paced(
            &clock,
            first_due,
            pacing.topk_hz,
            reads.saturating_sub(1),
            |_| reader.top_k(TOPK_K),
            |_, reply| {
                tally.attempt();
                match reply {
                    Ok(report) if report.facts.len() <= TOPK_K => {}
                    Ok(report) => tally.fail(format!("TOPK 8 gave {} facts", report.facts.len())),
                    Err(error) => tally.fail(format!("TOPK failed: {error}")),
                }
            },
        );
        let _ = done_tx.send((samples, tally));
    });
    let ingest = run_paced(
        &clock,
        start_ns,
        pacing.ingest_hz,
        ingests,
        |i| ingest_once(client, &stream.windows[i]),
        |i, reply| {
            checker.reports(stream.windows[i].len(), reply);
            first_acked.store(true, Ordering::Release);
        },
    );
    // An empty stream would leave the reader waiting on the gate.
    first_acked.store(true, Ordering::Release);
    let (topk, topk_tally) = done_rx
        .recv()
        .map_err(|_| ServeError::Protocol("TOPK reader thread died".into()))?;
    let timeline = Timeline {
        start_ns,
        rows_per_request: stream.windows.first().map_or(1, Vec::len),
        latency_ns: ingest.latency_ns,
        done_ns: ingest.done_ns,
    };
    Ok((timeline, ingest.late_ns, topk, topk_tally))
}

/// Keeps every hardware thread busy for [`LOAD_MACHINE`] before anything is
/// measured.
///
/// On the reference VM the cost of waking a thread on the other vCPU is
/// bistable: 2-3 us per hop after the VM has idled for some tens of
/// seconds, about 35 us once both vCPUs have been saturated for a second
/// (a build does that), and it stays there for as long as the VM is kept
/// busy. A request crosses four such hops, so the state a run happens to
/// start in moves `thin_durable` by 4x and `zipf_paced` by 1.5x. Every run
/// therefore starts from the loaded state, the one a server under sustained
/// load lives in and the one the runs after a build are in anyway.
fn load_machine() {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let pool = ThreadPool::new(threads);
    let deadline = Instant::now() + LOAD_MACHINE;
    pool.run_all(
        (0..threads)
            .map(|_| {
                Box::new(move || {
                    while Instant::now() < deadline {
                        std::hint::spin_loop();
                    }
                }) as Box<dyn FnOnce() + Send>
            })
            .collect(),
    );
}

/// Peak resident set of this process so far, in MiB (`VmHWM`; 0 where
/// `/proc` is not available).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs the workload through a real server and returns what it measured
/// together with the stream it sent (the mirror replays the same one).
/// Transport-level failures of the harness itself (cannot bind loopback,
/// cannot connect) are returned as errors; failed *operations* are counted
/// in the tally.
pub fn run(config: &RunConfig<'_>) -> Result<(Served, Stream), ServeError> {
    load_machine();
    // One thread for the accept loop, one for the open-loop reader.
    let pool = ThreadPool::new(2);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let ready = loop {
        let ready = set_up(config, &pool)?;
        setups.push(ready.seconds);
        if setups.len() == SETUP_REPS {
            break ready;
        }
        drop(ready.client);
        ready.server.stop();
    };
    let Ready {
        stream,
        server,
        mut client,
        ..
    } = ready;

    let mut checker = ReplyChecker::new();
    let mut topk_latency_ns = Vec::new();
    let mut late_ns = Vec::new();
    let timeline = match config.spec.pacing {
        None => closed_loop(&mut client, &stream, &mut checker),
        Some(pacing) => {
            let (timeline, ingest_late_ns, topk, topk_tally) = open_loop(
                &mut client,
                server.addr(),
                &stream,
                pacing,
                &pool,
                &mut checker,
            )?;
            checker.tally.merge(topk_tally);
            topk_latency_ns = topk.latency_ns;
            late_ns = ingest_late_ns;
            late_ns.extend(topk.late_ns);
            timeline
        }
    };
    // Before recovery: a second server instance next to the first one's
    // not-yet-returned memory would make the peak a matter of timing.
    let peak_rss_mb = peak_rss_mb();
    let mut tally = std::mem::take(&mut checker.tally);

    tally.check(checker.rows_acked == stream.rows(), || {
        format!(
            "{} of {} rows acknowledged",
            checker.rows_acked,
            stream.rows()
        )
    });
    let final_stats = client.stats().ok();
    tally.check(
        final_stats.as_ref().map(|s| s.len) == Some(stream.rows() as u64),
        || format!("STATS after ingest: {final_stats:?}"),
    );

    let mut ping_rtt_ns = Vec::new();
    if config.probes {
        for _ in 0..PING_PROBES {
            let sent = Instant::now();
            let pong = client.ping();
            ping_rtt_ns.push(sent.elapsed().as_nanos() as u64);
            tally.check(pong.is_ok(), || "PING failed".to_string());
        }
    }

    // Restart: stop the server, bind a new one on the same options, OPEN
    // the tenant again. A durable tenant replays its log and must answer as
    // it did before; any other comes back empty.
    let durable = config.spec.durable;
    let before = (client.top_k(TOPK_K).ok(), final_stats.clone());
    drop(client);
    server.stop();
    let dir = data_dir(config, "data");
    let restarts = if durable {
        DURABLE_RESTARTS
    } else {
        SETUP_REPS
    };
    let mut recoveries = Vec::with_capacity(restarts);
    for _ in 0..restarts {
        let start = Instant::now();
        let (server, mut client) = connect(&pool, dir.as_deref(), SyncPolicy::Os, &stream.tenant)?;
        let stats = client.stats().ok();
        recoveries.push(start.elapsed().as_secs_f64());
        if durable {
            let after = (client.top_k(TOPK_K).ok(), stats);
            tally.check(before.0.is_some() && before == after, || {
                format!("recovered TOPK/STATS differ: before {before:?}, after {after:?}")
            });
        } else {
            tally.check(stats.as_ref().map(|s| s.len) == Some(0), || {
                format!("STATS of a restarted non-durable tenant: {stats:?}")
            });
        }
        drop(client);
        server.stop();
    }

    // The same requests against a server that fsyncs every window, as the
    // default `WalOptions` do: what the served run above leaves out.
    let mut sync_latency_ns = Vec::new();
    if durable && config.probes {
        let dir = data_dir(config, "sync-data");
        fresh_dir(dir.as_deref())?;
        let (server, mut client) =
            connect(&pool, dir.as_deref(), SyncPolicy::Always, &stream.tenant)?;
        for window in stream.windows.iter().take(SYNC_PROBES) {
            let sent = Instant::now();
            let reply = ingest_once(&mut client, window);
            sync_latency_ns.push(sent.elapsed().as_nanos() as u64);
            tally.check(reply.is_ok(), || "fsynced ingest failed".to_string());
        }
        drop(client);
        server.stop();
    }

    let served = Served {
        setup_s: stats::median(&setups),
        timeline,
        topk_latency_ns: stats::sorted(topk_latency_ns),
        late_ns: stats::sorted(late_ns),
        reply_hash: checker.hash.finish(),
        prefix: checker.prefix,
        final_stats,
        recovery_s: stats::median(&recoveries),
        ping_rtt_ns: stats::sorted(ping_rtt_ns),
        sync_latency_ns: stats::sorted(sync_latency_ns),
        peak_rss_mb,
        tally,
    };
    Ok((served, stream))
}

/// The tenant monitor the server builds for `OPEN`, rebuilt in-process: the
/// ground truth of the prefix check.
fn reference_monitor(
    stream: &Stream,
) -> Result<Box<dyn StreamMonitor>, sitfact_core::SitFactError> {
    let tenant = &stream.tenant;
    let (schema, config) = monitor_parts(tenant)?;
    let monitor = FactMonitor::new(
        schema.clone(),
        STopDown::new(&schema, config.discovery),
        config,
    );
    Ok(match tenant.window {
        None => Box::new(monitor),
        Some(_) => Box::new(WindowedMonitor::new(
            monitor,
            WindowPolicy::from_limit(tenant.window)?,
        )),
    })
}

/// Compares the served run's leading reports with `==` against a real
/// in-process `FactMonitor` / `WindowedMonitor` fed the same requests.
pub fn check_prefix(stream: &Stream, prefix: &[ArrivalReport], tally: &mut Tally) {
    let mut monitor = match reference_monitor(stream) {
        Ok(monitor) => monitor,
        Err(error) => {
            tally.attempt();
            return tally.fail(format!("reference monitor: {error}"));
        }
    };
    let mut expected = Vec::with_capacity(prefix.len());
    for window in &stream.windows {
        if expected.len() >= prefix.len() {
            break;
        }
        let reports = window
            .iter()
            .map(|row| {
                let dims: Vec<&str> = row.dims.iter().map(String::as_str).collect();
                monitor.encode_raw(&dims, row.measures.clone())
            })
            .collect::<Result<Vec<_>, _>>()
            .and_then(|tuples| match tuples.len() {
                1 => monitor.ingest_all(tuples),
                _ => monitor.ingest_batch(tuples),
            });
        match reports {
            Ok(reports) => expected.extend(reports),
            Err(error) => {
                tally.attempt();
                return tally.fail(format!("reference ingest: {error}"));
            }
        }
    }
    expected.truncate(prefix.len());
    tally.check(expected.len() == prefix.len(), || {
        format!(
            "reference produced {} reports for a {}-report prefix",
            expected.len(),
            prefix.len()
        )
    });
    for (served, reference) in prefix.iter().zip(&expected) {
        tally.check(served == reference, || {
            format!(
                "report for tuple {} differs from the in-process monitor",
                reference.tuple_id
            )
        });
    }
}
