//! Tenant registry and the request engine: worker-owned monitors, reads
//! from published snapshots.
//!
//! A server hosts many named **tenants**, each an independent monitor with
//! its own schema and config ([`crate::protocol::TenantSpec`]). This module
//! owns the mapping from tenant name to monitor and executes every
//! monitor-touching request, on one shared-nothing [`Engine`]: each worker of
//! an [`ActorPool`](sitfact_core::ActorPool) *owns* the monitors hashed to it
//! outright (an ownership transfer at `OPEN` time — no `Mutex` around a
//! monitor, no `unsafe`). Ingest requests are routed to the owning worker's
//! mailbox and answered over a per-request channel; `STATS`/`TOPK` reads are
//! served from the [`SnapshotCell`] the owner republishes after every
//! ingest and never touch the owning worker, so read-mostly clients never
//! queue behind an ingest. The
//! owner publishes each new snapshot *before* replying to the ingest that
//! produced it, so a client that ingests and then reads its own tenant always
//! observes its own write.
//!
//! The registry is the one piece of shared state, and a name's entry outlives
//! its monitor on both sides ([`Slot`]): it is reserved before `OPEN` touches
//! the tenant's data directory and released only after `CLOSE`'s owner has
//! dropped the monitor, so no two log writers ever hold one directory.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};

use sitfact_core::{ActorPool, FxBuildHasher, SitFactError, SnapshotCell};
use sitfact_prominence::{ArrivalPipeline, ArrivalReport, Served, WalOptions, WindowPolicy};

use crate::error::error_kind;
use crate::protocol::{RawRow, Request, Response, ServerStats, TenantSpec};

/// The name of the tenant every connection starts on: the monitor the server
/// was bound with. The wire grammar rejects empty tenant names, so this name
/// can never collide with an `OPEN`ed tenant or be `USE`d explicitly — it is
/// reachable only as a connection's initial current tenant.
pub(crate) const DEFAULT_TENANT: &str = "";

const POISONED_MSG: &str = "monitor poisoned by a panic in an earlier request";

/// The read-side payload an owning worker republishes after every ingest:
/// everything `STATS` and `TOPK` need, as plain owned values.
#[derive(Clone)]
pub(crate) struct TenantSnapshot {
    /// The most recent arrival's report, if any tuple was ingested yet:
    /// the pipeline's own, shared.
    pub(crate) report: Option<Arc<ArrivalReport>>,
    /// Wire-ready statistics of the tenant's monitor.
    pub(crate) stats: ServerStats,
    /// Set when a panicking ingest left the monitor unusable; readers relay
    /// a typed `State` error instead of stale data.
    pub(crate) poisoned: bool,
}

impl TenantSnapshot {
    /// What a tenant's readers see after its pipeline's latest window: the
    /// last report, and the monitor's stats record as the wire record.
    fn of(pipeline: &ArrivalPipeline) -> Arc<Self> {
        let stats = pipeline.stats();
        let stats = ServerStats {
            len: stats.len as u64,
            tau: stats.tau,
            keep_top: stats.keep_top.map(|k| k as u64),
            anchor_dim: stats.anchor_dim.map(|d| d as u64),
            sealed_blocks: stats.postings.sealed_blocks as u64,
            tail_ids: stats.postings.tail_ids as u64,
            compressed_bytes: stats.postings.compressed_bytes as u64,
            uncompressed_bytes: stats.postings.uncompressed_bytes as u64,
            wal_segments: stats.wal.segments,
            wal_bytes: stats.wal.bytes,
            wal_synced: stats.wal.durable_rows,
            wal_retired: stats.wal.retired_segments,
            live_rows: stats.live_rows as u64,
            tombstones: stats.tombstones as u64,
            evicted: stats.evicted as u64,
            schema: stats.schema_name,
        };
        Arc::new(TenantSnapshot {
            report: pipeline.shared_last_report(),
            stats,
            poisoned: false,
        })
    }
}

/// Where and how the server persists tenant monitors (`--data-dir`): each
/// tenant gets its own write-ahead-log directory under `root`, and every
/// tenant shares the same sync/snapshot policy.
#[derive(Debug, Clone)]
pub(crate) struct Durability {
    /// Root data directory.
    pub(crate) root: PathBuf,
    /// WAL sync/snapshot policy applied to every tenant.
    pub(crate) wal: WalOptions,
}

/// The pipeline of tenant `name`: `monitor` under `policy`, logged under
/// the tenant's directory when `durability` is set — which recovers
/// whatever state a previous process left there.
fn open_pipeline(
    monitor: Served,
    policy: WindowPolicy,
    name: &str,
    durability: Option<&Durability>,
) -> Result<ArrivalPipeline, SitFactError> {
    let pipeline = ArrivalPipeline::new(monitor, policy);
    let Some(durability) = durability else {
        return Ok(pipeline);
    };
    let dir = durability.root.join(tenant_dir_name(name));
    Ok(pipeline.open_log(dir, durability.wal)?.0)
}

/// Maps a tenant name to its directory under the data root. The default
/// tenant (the empty name, unreachable over the wire) gets `_default`; a
/// named tenant gets `t-<name>` with every byte outside `[A-Za-z0-9._-]`
/// percent-encoded, so distinct names never collide and nothing in a name
/// can traverse out of the root.
pub(crate) fn tenant_dir_name(name: &str) -> String {
    use std::fmt::Write as _;
    if name == DEFAULT_TENANT {
        return "_default".to_string();
    }
    let mut out = String::with_capacity(name.len() + 2);
    out.push_str("t-");
    for byte in name.bytes() {
        match byte {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'.' | b'_' | b'-' => out.push(byte as char),
            other => {
                let _ = write!(out, "%{other:02X}");
            }
        }
    }
    out
}

/// Builds an independent monitor and its window policy from a wire
/// [`TenantSpec`].
///
/// Validation failures (duplicate attribute names, non-finite `τ`, zero
/// caps, a zero window) come back as typed [`SitFactError`]s for the `ERR`
/// relay; nothing in here panics on bad wire input.
pub(crate) fn build_monitor(spec: &TenantSpec) -> Result<(Served, WindowPolicy), SitFactError> {
    use sitfact_algos::STopDown;
    use sitfact_core::{DiscoveryConfig, SchemaBuilder};
    use sitfact_prominence::{FactMonitor, MonitorConfig};

    let mut builder = SchemaBuilder::new(&spec.name);
    for dim in &spec.dims {
        builder = builder.dimension(dim);
    }
    for (measure, direction) in &spec.measures {
        builder = builder.measure(measure, *direction);
    }
    let schema = builder.build()?;
    let discovery = if spec.d_hat.is_none() && spec.m_hat.is_none() {
        DiscoveryConfig::unrestricted()
    } else {
        DiscoveryConfig::capped(
            spec.d_hat.map_or(spec.dims.len(), |d| d as usize),
            spec.m_hat.map_or(spec.measures.len(), |m| m as usize),
        )
    };
    let config = MonitorConfig {
        discovery,
        tau: spec.tau,
        keep_top: spec.keep_top.map(|k| k as usize),
    };
    // `FactMonitor::new` panics on an invalid config (its builders validate
    // up front); wire specs are untrusted, so validate here and relay.
    config.validate()?;
    discovery.validate(&schema)?;
    let policy = WindowPolicy::from_limit(spec.window)?;
    let algorithm = STopDown::new(&schema, discovery);
    Ok((FactMonitor::new(schema, algorithm, config).into(), policy))
}

fn err(kind: &str, message: impl Into<String>) -> Response {
    Response::Error {
        kind: kind.into(),
        message: message.into(),
    }
}

fn relay(error: &SitFactError) -> Response {
    err(error_kind(error), error.to_string())
}

fn unknown_tenant(name: &str) -> Response {
    err("Tenant", format!("unknown tenant {name:?} (OPEN it first)"))
}

/// Ingest into a tenant whose relation has this name panics — a fault
/// injected only into test builds, to drive the poison path end to end.
#[cfg(test)]
pub(crate) const PANICKING_RELATION: &str = "panics-on-ingest";

/// Executes an `INGEST` / `INGEST_BATCH` against a tenant's pipeline. A
/// batch is encoded whole first, so a bad row rejects the window before any
/// of it is ingested, exactly like an in-process batch caller.
fn run_ingest(pipeline: &mut ArrivalPipeline, request: &Request) -> Response {
    #[cfg(test)]
    if pipeline.inner().schema().name() == PANICKING_RELATION {
        panic!("deliberate ingest panic");
    }
    let encode = |pipeline: &mut ArrivalPipeline, row: &RawRow| {
        let dims: Vec<&str> = row.dims.iter().map(String::as_str).collect();
        pipeline.encode_raw(&dims, row.measures.clone())
    };
    let outcome = match request {
        Request::Ingest(row) => encode(pipeline, row)
            .and_then(|tuple| pipeline.ingest(tuple))
            .map(Response::Report),
        Request::IngestBatch(rows) => rows
            .iter()
            .map(|row| encode(pipeline, row))
            .collect::<Result<Vec<_>, _>>()
            .and_then(|window| pipeline.ingest_batch_slice(&window))
            .map(Response::Reports),
        _ => unreachable!("run_ingest is only dispatched ingest requests"),
    };
    outcome.unwrap_or_else(|error| relay(&error))
}

/// Answers `STATS` / `TOPK` from a tenant's published snapshot. `TOPK k`
/// copies only the `k` facts it returns, never the whole report.
fn read_response(request: &Request, snapshot: &TenantSnapshot) -> Response {
    if snapshot.poisoned {
        return err("State", POISONED_MSG);
    }
    match request {
        Request::Stats => Response::Stats(snapshot.stats.clone()),
        Request::TopK(k) => match &snapshot.report {
            None => err("State", "TOPK before any arrival was ingested"),
            Some(report) => Response::Report(ArrivalReport {
                tuple_id: report.tuple_id,
                facts: report.facts[..report.facts.len().min(*k)].to_vec(),
                prominent_count: report.prominent_count.min(*k),
            }),
        },
        _ => unreachable!("read_response is only dispatched read requests"),
    }
}

/// One tenant as its owning worker sees it. Lives inside the worker's state
/// map — nothing outside the worker ever touches the monitor.
pub(crate) struct OwnedTenant {
    pipeline: ArrivalPipeline,
    snapshot: Arc<SnapshotCell<TenantSnapshot>>,
    poisoned: bool,
}

/// A registry entry. Only `Live` tenants answer requests (it holds the
/// snapshot cell their reads are served from; the owning worker is a hash of
/// the name); the other two states keep the *name* taken while its data
/// directory may be touched by an `OPEN` still recovering it or a `CLOSE`
/// whose owner has not yet dropped the monitor. Every verb treats them like a
/// missing entry, except `OPEN`, which refuses any taken name.
enum Slot {
    Opening,
    Live(Arc<SnapshotCell<TenantSnapshot>>),
    Closing,
}

/// Worker state: the tenants this worker owns, by name.
type OwnerState = HashMap<String, OwnedTenant>;

/// The monitor-touching half of the server, behind one request-in,
/// response-out surface: monitors are owned by [`ActorPool`] workers, ingest
/// requests travel through the owner's mailbox, reads come from published
/// snapshots. The engine owns the optional durability policy: when set, every
/// tenant's pipeline (the default one's included) is logged, and `OPEN` of a
/// name whose directory already exists recovers its state from disk.
pub(crate) struct Engine {
    pool: ActorPool<OwnerState>,
    registry: Mutex<HashMap<String, Slot>>,
    owners: usize,
    durability: Option<Durability>,
}

impl Engine {
    /// Builds the engine around the server's initial (default-tenant)
    /// monitor, recovering the default tenant from `durability`'s data
    /// directory when one is configured. Fails only on a durable-recovery
    /// error (corrupt directory, I/O failure, non-empty initial monitor).
    pub(crate) fn new(
        monitor: Served,
        owners: usize,
        durability: Option<Durability>,
    ) -> Result<Self, SitFactError> {
        let owners = owners.max(1);
        let engine = Engine {
            pool: ActorPool::new((0..owners).map(|_| OwnerState::new()).collect()),
            registry: Mutex::new(HashMap::new()),
            owners,
            durability,
        };
        let pipeline = open_pipeline(
            monitor,
            WindowPolicy::Unbounded,
            DEFAULT_TENANT,
            engine.durability.as_ref(),
        )?;
        engine.install(DEFAULT_TENANT, pipeline);
        Ok(engine)
    }

    fn registry(&self) -> MutexGuard<'_, HashMap<String, Slot>> {
        // Every critical section is a single map operation, so a poisoned
        // guard still holds a consistent map.
        self.registry
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    fn worker_of(&self, name: &str) -> usize {
        use std::hash::BuildHasher;
        (FxBuildHasher::default().hash_one(name) % self.owners as u64) as usize
    }

    /// The snapshot cell of a `Live` tenant.
    fn snapshot_of(&self, name: &str) -> Option<Arc<SnapshotCell<TenantSnapshot>>> {
        match self.registry().get(name) {
            Some(Slot::Live(snapshot)) => Some(Arc::clone(snapshot)),
            _ => None,
        }
    }

    /// Takes `name` for an `OPEN` in progress; `false` if it is taken already
    /// (live, opening or closing).
    fn reserve(&self, name: &str) -> bool {
        let mut registry = self.registry();
        if registry.contains_key(name) {
            return false;
        }
        registry.insert(name.to_string(), Slot::Opening);
        true
    }

    /// Runs `job` on `worker` and waits for its answer; `None` when the
    /// worker is gone (pool teardown — the undelivered job, and with it the
    /// reply sender, is dropped).
    fn ask<T: Send + 'static>(
        &self,
        worker: usize,
        job: impl FnOnce(&mut OwnerState) -> T + Send + 'static,
    ) -> Option<T> {
        let (reply_tx, reply_rx) = mpsc::channel();
        self.pool.send(worker, move |owned: &mut OwnerState| {
            let _ = reply_tx.send(job(owned));
        });
        reply_rx.recv().ok()
    }

    /// Transfers `pipeline` into the owning worker and turns the tenant's
    /// registry entry `Live`. The pipeline's last report (recovered from
    /// disk on a durable server) seeds the tenant's `TOPK` state. Returns
    /// the `OPEN` response.
    fn install(&self, name: &str, pipeline: ArrivalPipeline) -> Response {
        let worker = self.worker_of(name);
        let snapshot = Arc::new(SnapshotCell::new(TenantSnapshot::of(&pipeline)));
        let tenant = OwnedTenant {
            pipeline,
            snapshot: Arc::clone(&snapshot),
            poisoned: false,
        };
        // Enqueue the ownership transfer *before* publishing the entry, while
        // holding the registry lock: mailbox enqueues are real-time FIFO, so
        // any ingest routed via the new entry lands in the mailbox strictly
        // after this insert.
        let mut registry = self.registry();
        let tenant_name = name.to_string();
        let sent = self.pool.send(worker, move |owned: &mut OwnerState| {
            owned.insert(tenant_name, tenant);
        });
        if !sent {
            registry.remove(name);
            return err("State", "server is shutting down");
        }
        registry.insert(name.to_string(), Slot::Live(snapshot));
        Response::Ok
    }

    /// Handles `OPEN`: builds a pipeline from the spec and installs it under
    /// its name. A taken name is a typed `Tenant` error; the existing tenant
    /// is untouched. With durability configured the pipeline is logged — if
    /// the tenant's directory already holds a log (from a previous process,
    /// or a `CLOSE`d tenant), its state is recovered before the tenant goes
    /// live. The name is reserved before any of that: opening a log
    /// truncates torn tails and deletes unreachable segments, which must
    /// never happen under a live writer.
    pub(crate) fn open(&self, spec: &TenantSpec) -> Response {
        if !self.reserve(&spec.name) {
            return err("Tenant", format!("tenant {:?} already exists", spec.name));
        }
        let durability = self.durability.as_ref();
        let built = build_monitor(spec)
            .and_then(|(monitor, policy)| open_pipeline(monitor, policy, &spec.name, durability));
        match built {
            Ok(pipeline) => self.install(&spec.name, pipeline),
            Err(error) => {
                self.registry().remove(&spec.name);
                relay(&error)
            }
        }
    }

    /// Handles `USE`: validates that the tenant exists (the connection layer
    /// records the switch). Unknown names are a typed `Tenant` error.
    pub(crate) fn use_tenant(&self, name: &str) -> Response {
        match self.snapshot_of(name) {
            Some(_) => Response::Ok,
            None => unknown_tenant(name),
        }
    }

    /// Handles `CLOSE`: evicts the named tenant's monitor from memory.
    /// Unknown names are a typed `Tenant` error. Durable on-disk state is
    /// untouched — a later `OPEN` of the same name recovers it.
    ///
    /// The entry turns `Closing` at once (no new request reaches the tenant),
    /// the monitor drops on its owning worker behind every ingest already
    /// enqueued, and only then is the name released: by the time `OK` reaches
    /// the client the monitor's resources (WAL file handles included) are
    /// gone, and no `OPEN` could have claimed the directory in between.
    pub(crate) fn close(&self, name: &str) -> Response {
        match self.registry().get_mut(name) {
            Some(slot @ Slot::Live(_)) => *slot = Slot::Closing,
            _ => return unknown_tenant(name),
        }
        let tenant_name = name.to_string();
        let dropped = self.ask(self.worker_of(name), move |owned| {
            drop(owned.remove(&tenant_name))
        });
        self.registry().remove(name);
        match dropped {
            Some(()) => Response::Ok,
            None => err("State", "server is shutting down"),
        }
    }

    /// Executes a monitor-touching request (`STATS` / `TOPK` / `INGEST` /
    /// `INGEST_BATCH`) against the named tenant.
    pub(crate) fn dispatch(&self, tenant: &str, request: Request) -> Response {
        let Some(snapshot) = self.snapshot_of(tenant) else {
            return unknown_tenant(tenant);
        };
        match request {
            // A snapshot read: never touches the owning worker, so a
            // read-mostly client cannot queue behind an in-flight batch.
            Request::Stats | Request::TopK(_) => read_response(&request, &snapshot.load()),
            Request::Ingest(_) | Request::IngestBatch(_) => {
                let name = tenant.to_string();
                self.ask(self.worker_of(tenant), move |owned| {
                    ingest_on_owner(owned, &name, &request)
                })
                .unwrap_or_else(|| err("State", "server is shutting down"))
            }
            _ => unreachable!("connection-level requests never reach the engine"),
        }
    }
}

/// Runs one ingest request on the owning worker, republishing the tenant's
/// snapshot before the reply is sent (read-your-writes for snapshot
/// readers). A panicking monitor poisons the tenant — not the worker, not
/// the process — and the poison is visible on both the mailbox path and the
/// snapshot read path.
fn ingest_on_owner(owned: &mut OwnerState, name: &str, request: &Request) -> Response {
    let Some(tenant) = owned.get_mut(name) else {
        return unknown_tenant(name);
    };
    if tenant.poisoned {
        return err("State", POISONED_MSG);
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_ingest(&mut tenant.pipeline, request)
    }));
    match outcome {
        Ok(response) => {
            tenant
                .snapshot
                .publish(TenantSnapshot::of(&tenant.pipeline));
            response
        }
        Err(_) => {
            tenant.poisoned = true;
            let mut snapshot = (*tenant.snapshot.load()).clone();
            snapshot.poisoned = true;
            tenant.snapshot.publish(Arc::new(snapshot));
            err("State", POISONED_MSG)
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests race plain threads against the code under test"
)]
mod tests {
    use super::*;
    use sitfact_core::Direction;

    fn spec(name: &str) -> TenantSpec {
        TenantSpec::new(
            name,
            &["player", "team"],
            &[("points", Direction::HigherIsBetter)],
            1.0,
        )
    }

    fn default_monitor() -> Served {
        build_monitor(&spec("seed")).expect("valid spec").0
    }

    fn row(player: &str, team: &str, points: f64) -> RawRow {
        RawRow::new(&[player, team], &[points])
    }

    fn engine() -> Engine {
        Engine::new(default_monitor(), 2, None).expect("no durability")
    }

    fn durable_engine(root: &std::path::Path) -> Engine {
        let durability = Durability {
            root: root.to_path_buf(),
            wal: WalOptions::default(),
        };
        Engine::new(default_monitor(), 2, Some(durability)).expect("open data dir")
    }

    fn is_err(response: &Response, expected: &str) -> bool {
        matches!(response, Response::Error { kind, .. } if kind == expected)
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sitfact-tenant-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn build_monitor_relays_bad_specs_as_typed_errors() {
        let mut bad_tau = spec("t");
        bad_tau.tau = f64::NAN;
        assert!(matches!(
            build_monitor(&bad_tau),
            Err(SitFactError::InvalidConfig(_))
        ));
        let mut dup = spec("t");
        dup.dims = vec!["player".into(), "player".into()];
        assert!(build_monitor(&dup).is_err());
        let mut zero_cap = spec("t");
        zero_cap.d_hat = Some(0);
        assert!(matches!(
            build_monitor(&zero_cap),
            Err(SitFactError::InvalidConfig(_))
        ));
    }

    #[test]
    fn the_full_tenant_lifecycle() {
        let engine = engine();
        // The default tenant answers immediately.
        let stats = engine.dispatch(DEFAULT_TENANT, Request::Stats);
        assert!(matches!(stats, Response::Stats(ref s) if s.len == 0));

        // OPEN + USE a named tenant, ingest into it.
        assert_eq!(engine.open(&spec("east")), Response::Ok);
        assert_eq!(engine.use_tenant("east"), Response::Ok);
        let report = engine.dispatch("east", Request::Ingest(row("Wes", "BOS", 31.0)));
        assert!(matches!(report, Response::Report(_)));
        let stats = engine.dispatch("east", Request::Stats);
        assert!(matches!(stats, Response::Stats(ref s) if s.len == 1));
        // The default tenant is isolated from the named one.
        let stats = engine.dispatch(DEFAULT_TENANT, Request::Stats);
        assert!(matches!(stats, Response::Stats(ref s) if s.len == 0));

        // Duplicate OPEN and unknown USE are typed Tenant errors.
        assert!(is_err(&engine.open(&spec("east")), "Tenant"));
        assert!(is_err(&engine.use_tenant("west"), "Tenant"));
        assert!(is_err(&engine.dispatch("west", Request::Stats), "Tenant"));

        // TOPK before any arrival is a typed State error; after, a report.
        assert!(is_err(
            &engine.dispatch(DEFAULT_TENANT, Request::TopK(3)),
            "State"
        ));
        let batch = Request::IngestBatch(vec![row("Amy", "NYK", 12.0), row("Sam", "BOS", 9.0)]);
        assert!(matches!(
            engine.dispatch("east", batch),
            Response::Reports(ref r) if r.len() == 2
        ));
        assert!(matches!(
            engine.dispatch("east", Request::TopK(1)),
            Response::Report(ref r) if r.facts.len() <= 1 && r.prominent_count <= 1
        ));
    }

    #[test]
    fn close_semantics() {
        let engine = engine();
        // Unknown CLOSE is a typed Tenant error.
        assert!(is_err(&engine.close("ghost"), "Tenant"));
        // OPEN, ingest, CLOSE: the tenant is gone from every surface.
        assert_eq!(engine.open(&spec("east")), Response::Ok);
        assert!(matches!(
            engine.dispatch("east", Request::Ingest(row("Wes", "BOS", 31.0))),
            Response::Report(_)
        ));
        assert_eq!(engine.close("east"), Response::Ok);
        assert!(is_err(&engine.dispatch("east", Request::Stats), "Tenant"));
        assert!(is_err(&engine.use_tenant("east"), "Tenant"));
        // Double CLOSE is the same typed error.
        assert!(is_err(&engine.close("east"), "Tenant"));
        // The name is reusable: a fresh OPEN starts from zero (no
        // durability configured, so nothing survives the eviction).
        assert_eq!(engine.open(&spec("east")), Response::Ok);
        assert!(matches!(
            engine.dispatch("east", Request::Stats),
            Response::Stats(ref s) if s.len == 0
        ));
    }

    #[test]
    fn a_reserved_name_is_taken_before_its_directory_is_touched() {
        let root = temp_root("reserved");
        let engine = durable_engine(&root);
        // An OPEN in flight holds the name like this from before it builds
        // the monitor until the tenant is live (or the OPEN failed).
        assert!(engine.reserve("east"));
        assert!(!engine.reserve("east"));
        assert!(is_err(&engine.open(&spec("east")), "Tenant"));
        assert!(
            !root.join(tenant_dir_name("east")).exists(),
            "a refused OPEN must not create or open the tenant's directory"
        );
        // Every other verb sees a reserved name as a missing one.
        assert!(is_err(&engine.use_tenant("east"), "Tenant"));
        assert!(is_err(&engine.dispatch("east", Request::Stats), "Tenant"));
        assert!(is_err(&engine.close("east"), "Tenant"));
        assert!(!engine.reserve("east"), "a refused CLOSE keeps the entry");

        // A failed OPEN releases its reservation: the name opens afterwards.
        let mut bad = spec("west");
        bad.d_hat = Some(0);
        assert!(is_err(&engine.open(&bad), "InvalidConfig"));
        assert_eq!(engine.open(&spec("west")), Response::Ok);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn open_during_close_is_refused_until_the_owner_dropped_the_monitor() {
        let root = temp_root("closing");
        let engine = Arc::new(durable_engine(&root));
        assert_eq!(engine.open(&spec("east")), Response::Ok);
        let rows = [row("Wes", "BOS", 31.0), row("Amy", "NYK", 12.0)];
        for r in rows.iter().cloned() {
            assert!(matches!(
                engine.dispatch("east", Request::Ingest(r)),
                Response::Report(_)
            ));
        }
        let acknowledged = engine.dispatch("east", Request::TopK(8)).encode();

        // Park a job on east's owner, so the drop that CLOSE enqueues behind
        // it cannot run yet: the old monitor, and its log handle, stay alive.
        let (parked_tx, parked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        assert!(engine.pool.send(engine.worker_of("east"), move |_| {
            let _ = parked_tx.send(());
            let _ = release_rx.recv();
        }));
        parked_rx.recv().expect("blocker is running");
        let closer = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || engine.close("east"))
        };
        // CLOSE has taken the tenant off every surface once USE refuses it;
        // it cannot finish before the blocker is released.
        while engine.use_tenant("east") == Response::Ok {
            std::thread::yield_now();
        }
        assert!(
            is_err(&engine.open(&spec("east")), "Tenant"),
            "OPEN must not attach a second log writer while the old monitor is alive"
        );

        release_tx.send(()).expect("blocker waits for the release");
        assert_eq!(closer.join().expect("closer thread"), Response::Ok);
        // The name is free again, and every acknowledged row is recovered.
        assert_eq!(engine.open(&spec("east")), Response::Ok);
        assert_eq!(
            engine.dispatch("east", Request::TopK(8)).encode(),
            acknowledged
        );
        assert!(matches!(
            engine.dispatch("east", Request::Stats),
            Response::Stats(ref s) if s.len == rows.len() as u64
        ));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn windowed_tenants_retract_old_arrivals_and_report_the_breakdown() {
        let engine = engine();
        let mut windowed = spec("tail");
        windowed.window = Some(3);
        assert_eq!(engine.open(&windowed), Response::Ok);
        for i in 0..7 {
            assert!(matches!(
                engine.dispatch("tail", Request::Ingest(row("Wes", "BOS", f64::from(i)))),
                Response::Report(_)
            ));
        }
        let Response::Stats(stats) = engine.dispatch("tail", Request::Stats) else {
            panic!("STATS should answer on a windowed tenant");
        };
        assert_eq!(stats.len, 7);
        assert_eq!(stats.live_rows, 3);
        // Every expired arrival is either tombstoned or already compacted
        // away; the breakdown always reconciles with `len`.
        assert_eq!(stats.live_rows + stats.tombstones + stats.evicted, 7);

        // A degenerate window (zero rows) is refused at OPEN time with a
        // typed config error, not accepted and ignored.
        let mut degenerate = spec("zero");
        degenerate.window = Some(0);
        assert!(is_err(&engine.open(&degenerate), "InvalidConfig"));
    }

    #[test]
    fn durable_windowed_tenants_recover_with_their_window_reapplied() {
        let root = temp_root("window");
        let mut windowed = spec("tail");
        windowed.window = Some(2);
        let pre_kill;
        {
            let engine = durable_engine(&root);
            assert_eq!(engine.open(&windowed), Response::Ok);
            for r in [
                row("Wes", "BOS", 31.0),
                row("Amy", "NYK", 12.0),
                row("Wes", "BOS", 7.0),
                row("Sam", "NYK", 44.0),
            ] {
                assert!(matches!(
                    engine.dispatch("tail", Request::Ingest(r)),
                    Response::Report(_)
                ));
            }
            pre_kill = (
                engine.dispatch("tail", Request::TopK(8)).encode(),
                engine.dispatch("tail", Request::Stats).encode(),
            );
            // Crash without an orderly handoff.
        }
        let engine = durable_engine(&root);
        // Re-OPEN with the same windowed spec: replay re-feeds the logged
        // batches through the eviction stage, so the retraction state
        // (live/tombstone/evicted breakdown included) is reproduced
        // exactly, not just the surviving tuples.
        assert_eq!(engine.open(&windowed), Response::Ok);
        assert_eq!(
            engine.dispatch("tail", Request::TopK(8)).encode(),
            pre_kill.0
        );
        assert_eq!(engine.dispatch("tail", Request::Stats).encode(), pre_kill.1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn tenant_dir_names_are_safe_and_injective() {
        assert_eq!(tenant_dir_name(DEFAULT_TENANT), "_default");
        assert_eq!(tenant_dir_name("east-2.b"), "t-east-2.b");
        assert_eq!(tenant_dir_name("../evil"), "t-..%2Fevil");
        assert_eq!(tenant_dir_name("a/b"), "t-a%2Fb");
        assert_ne!(tenant_dir_name("a/b"), tenant_dir_name("a%2Fb"));
        // Percent itself is escaped, so encoded forms cannot collide.
        assert_eq!(tenant_dir_name("a%2Fb"), "t-a%252Fb");
    }

    #[test]
    fn durable_engines_recover_tenants_across_restarts() {
        let root = temp_root("restart");
        let pre_kill;
        {
            let engine = durable_engine(&root);
            assert_eq!(engine.open(&spec("east")), Response::Ok);
            for r in [
                row("Wes", "BOS", 31.0),
                row("Amy", "NYK", 12.0),
                row("Wes", "BOS", 7.0),
            ] {
                assert!(matches!(
                    engine.dispatch("east", Request::Ingest(r)),
                    Response::Report(_)
                ));
            }
            pre_kill = (
                engine.dispatch("east", Request::TopK(8)).encode(),
                engine.dispatch("east", Request::Stats).encode(),
            );
            // Crash: the engine is dropped without any orderly handoff
            // (per-append sync makes the log already durable).
        }
        let engine = durable_engine(&root);
        // Re-OPEN with the same spec recovers the tenant's state.
        assert_eq!(engine.open(&spec("east")), Response::Ok);
        assert_eq!(
            engine.dispatch("east", Request::TopK(8)).encode(),
            pre_kill.0
        );
        assert_eq!(engine.dispatch("east", Request::Stats).encode(), pre_kill.1);
        // CLOSE then re-OPEN also round-trips through disk.
        assert_eq!(engine.close("east"), Response::Ok);
        assert_eq!(engine.open(&spec("east")), Response::Ok);
        assert_eq!(
            engine.dispatch("east", Request::TopK(8)).encode(),
            pre_kill.0
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn owned_ingest_errors_keep_the_window_all_or_nothing() {
        let engine = engine();
        let bad = Request::IngestBatch(vec![
            row("Wes", "BOS", 31.0),
            RawRow::new(&["only-one-dim"], &[1.0]),
        ]);
        assert!(is_err(
            &engine.dispatch(DEFAULT_TENANT, bad),
            "InvalidTuple"
        ));
        let stats = engine.dispatch(DEFAULT_TENANT, Request::Stats);
        assert!(matches!(stats, Response::Stats(ref s) if s.len == 0));
    }
}
