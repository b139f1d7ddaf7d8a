//! End-to-end socket tests: a real `FactServer` on an ephemeral port, a real
//! `Client`, and the acceptance criterion of the service front-end — reports
//! that crossed the wire are **byte-identical** (`==`) to the reports an
//! in-process monitor produces from the same stream, for both monitor types.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::disallowed_methods,
    reason = "test code: clients run on plain threads, and a failed unwrap is a failed test"
)]

use rand::prelude::*;
use sitfact_algos::STopDown;
use sitfact_core::{Direction, Schema, SchemaBuilder};
use sitfact_prominence::{ArrivalReport, FactMonitor, MonitorConfig, Served, ShardedMonitor};
use sitfact_serve::{Client, FactServer, RawRow, ServeError, TenantSpec};
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::Duration;

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
    MonitorConfig::default().with_tau(2.0).with_keep_top(16)
}

/// A reproducible raw stream: string dims from small pools, integer-ish
/// measures (ties included, so prominence ties and `keep_top` truncation are
/// exercised over the wire too).
fn raw_stream(n: usize, seed: u64) -> Vec<(Vec<String>, Vec<f64>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let dims = vec![
                format!("P{}", rng.gen_range(0..6u32)),
                format!("T{}", rng.gen_range(0..3u32)),
                format!("M{}", rng.gen_range(0..4u32)),
            ];
            let measures = vec![rng.gen_range(0..8) as f64, rng.gen_range(0..8) as f64];
            (dims, measures)
        })
        .collect()
}

fn spawn_server(monitor: Served) -> (SocketAddr, JoinHandle<()>) {
    let server = FactServer::bind("127.0.0.1:0", monitor).expect("bind ephemeral port");
    let addr = server.local_addr();
    let join = std::thread::spawn(move || server.run().expect("server exits cleanly"));
    (addr, join)
}

/// Streams `rows` through a served monitor: a few per-arrival `INGEST`s, the
/// rest in `INGEST_BATCH` windows — both wire paths contribute to the
/// transcript that must match the in-process one.
fn reports_via_server(monitor: Served, rows: &[(Vec<String>, Vec<f64>)]) -> Vec<ArrivalReport> {
    let (addr, join) = spawn_server(monitor);
    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("ping");
    let mut reports = Vec::with_capacity(rows.len());
    let singles = rows.len().min(3);
    for (dims, measures) in &rows[..singles] {
        let dims: Vec<&str> = dims.iter().map(String::as_str).collect();
        reports.push(client.ingest(&dims, measures).expect("ingest"));
    }
    for window in rows[singles..].chunks(7) {
        let window: Vec<RawRow> = window
            .iter()
            .map(|(dims, measures)| {
                let dims: Vec<&str> = dims.iter().map(String::as_str).collect();
                RawRow::new(&dims, measures)
            })
            .collect();
        reports.extend(client.ingest_batch(window).expect("ingest_batch"));
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.len as usize, rows.len());
    client.shutdown().expect("shutdown");
    join.join().expect("server thread");
    reports
}

/// The same stream through an in-process monitor, same single/batch split.
fn reports_in_process(
    monitor: &mut Served,
    rows: &[(Vec<String>, Vec<f64>)],
) -> Vec<ArrivalReport> {
    let mut reports = Vec::with_capacity(rows.len());
    let singles = rows.len().min(3);
    for (dims, measures) in &rows[..singles] {
        // A single row is a window of one.
        let window = monitor.encode_rows(&[RawRow::new(dims, measures)]).unwrap();
        reports.extend(monitor.ingest_batch_slice(&window).unwrap());
    }
    for window in rows[singles..].chunks(7) {
        reports.extend(ingest_in_process(monitor, window));
    }
    reports
}

/// One window through an in-process monitor, encoded the server's way.
fn ingest_in_process(monitor: &mut Served, rows: &[(Vec<String>, Vec<f64>)]) -> Vec<ArrivalReport> {
    let rows: Vec<RawRow> = (rows.iter())
        .map(|(dims, measures)| RawRow::new(dims, measures))
        .collect();
    let window = monitor.encode_rows(&rows).unwrap();
    monitor.ingest_batch_slice(&window).unwrap()
}

#[test]
fn served_fact_monitor_reports_equal_in_process() {
    let rows = raw_stream(40, 11);
    let schema = schema();
    let config = config();
    let served = Served::from(FactMonitor::new(
        schema.clone(),
        STopDown::new(&schema, config.discovery),
        config,
    ));
    let mut local = Served::from(FactMonitor::new(
        schema.clone(),
        STopDown::new(&schema, config.discovery),
        config,
    ));
    let over_the_wire = reports_via_server(served, &rows);
    let in_process = reports_in_process(&mut local, &rows);
    assert_eq!(over_the_wire, in_process);
}

#[test]
fn served_sharded_monitor_reports_equal_in_process() {
    let rows = raw_stream(40, 23);
    let make = |shards: usize| -> ShardedMonitor<STopDown> {
        ShardedMonitor::by_attribute(schema(), "team", shards, config(), STopDown::new).unwrap()
    };
    let served = Served::from(make(3));
    let local = make(3);
    let anchored = *local.config();
    let mut local = Served::from(local);
    let over_the_wire = reports_via_server(served, &rows);
    let in_process = reports_in_process(&mut local, &rows);
    assert_eq!(over_the_wire, in_process);
    // And — routing soundness end to end — the served *sharded* transcript
    // equals the in-process *unsharded* monitor on the same anchored config.
    let s = schema();
    let mut reference = Served::from(FactMonitor::new(
        s.clone(),
        STopDown::new(&s, anchored.discovery),
        anchored,
    ));
    let unsharded = reports_in_process(&mut reference, &rows);
    assert_eq!(over_the_wire, unsharded);
}

#[test]
fn server_relays_monitor_errors_and_stays_usable() {
    let schema = schema();
    let config = config();
    let monitor = Served::from(FactMonitor::new(
        schema.clone(),
        STopDown::new(&schema, config.discovery),
        config,
    ));
    let (addr, join) = spawn_server(monitor);
    let mut client = Client::connect(addr).expect("connect");

    // Wrong arity → the SitFactError comes back typed, connection survives.
    let err = client.ingest(&["OnlyOneDim"], &[1.0]).unwrap_err();
    match err {
        ServeError::Remote { kind, .. } => assert_eq!(kind, "InvalidTuple"),
        other => panic!("expected a relayed monitor error, got {other}"),
    }
    // NaN measure → also rejected server-side.
    let err = client
        .ingest(&["P0", "T0", "M0"], &[f64::NAN, 1.0])
        .unwrap_err();
    assert!(matches!(err, ServeError::Remote { .. }));
    // A bad row poisons nothing: a good row still ingests, and TOPK serves
    // its report back.
    let report = client
        .ingest(&["P0", "T0", "M0"], &[5.0, 3.0])
        .expect("good row");
    assert!(!report.facts.is_empty());
    let top = client.top_k(2).expect("top_k");
    assert_eq!(
        top.facts,
        report.facts[..2.min(report.facts.len())].to_vec()
    );

    // A batch with one bad row is all-or-nothing on the server.
    let window = vec![
        RawRow::new(&["P1", "T1", "M1"], &[2.0, 2.0]),
        RawRow::new(&["P2", "T2"], &[3.0, 3.0]), // bad arity
    ];
    assert!(client.ingest_batch(window).is_err());
    let stats = client.stats().expect("stats");
    assert_eq!(stats.len, 1, "failed batch must not ingest partially");

    client.shutdown().expect("shutdown");
    join.join().expect("server thread");
}

#[test]
fn concurrent_clients_interleave_safely() {
    // Several clients hammer one served monitor concurrently. Interleaving
    // order is nondeterministic, so per-report equality is not defined — but
    // every request must succeed and the final count must add up.
    let schema = schema();
    let config = config();
    let monitor = Served::from(FactMonitor::new(
        schema.clone(),
        STopDown::new(&schema, config.discovery),
        config,
    ));
    let (addr, join) = spawn_server(monitor);
    let n_clients = 3;
    let per_client = 10;
    let workers: Vec<_> = (0..n_clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..per_client {
                    let dims = [format!("P{c}"), format!("T{c}"), format!("M{i}")];
                    let dims: Vec<&str> = dims.iter().map(String::as_str).collect();
                    let report = client.ingest(&dims, &[i as f64, c as f64]).expect("ingest");
                    assert!(!report.facts.is_empty());
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread");
    }
    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.len as usize, n_clients * per_client);
    client.shutdown().expect("shutdown");
    join.join().expect("server thread");
}

/// An in-process reference monitor built exactly like the server builds a
/// tenant from its wire spec (schema named after the tenant).
fn reference_for(spec: &TenantSpec) -> FactMonitor<STopDown> {
    let mut builder = SchemaBuilder::new(&spec.name);
    for dim in &spec.dims {
        builder = builder.dimension(dim);
    }
    for (m, dir) in &spec.measures {
        builder = builder.measure(m, *dir);
    }
    let schema = builder.build().unwrap();
    let config = MonitorConfig::default().with_tau(spec.tau);
    let config = match spec.keep_top {
        Some(k) => config.with_keep_top(k as usize),
        None => config,
    };
    FactMonitor::new(
        schema.clone(),
        STopDown::new(&schema, config.discovery),
        config,
    )
}

#[test]
fn tenants_are_isolated_and_byte_identical_to_their_references() {
    // Two tenants with different schemas and configs ingest concurrently
    // into one server; each transcript must be byte-identical to its own
    // in-process reference, and the default tenant must stay empty.
    let schema = schema();
    let config = config();
    let monitor = Served::from(FactMonitor::new(
        schema.clone(),
        STopDown::new(&schema, config.discovery),
        config,
    ));
    let (addr, join) = spawn_server(monitor);

    let gamelog = TenantSpec::new(
        "gamelog-east",
        &["player", "team", "month"],
        &[
            ("points", Direction::HigherIsBetter),
            ("assists", Direction::HigherIsBetter),
        ],
        2.0,
    );
    let mut forecast = TenantSpec::new(
        "forecast",
        &["city", "day"],
        &[("temp", Direction::LowerIsBetter)],
        1.5,
    );
    forecast.keep_top = Some(8);

    let forecast_rows: Vec<(Vec<String>, Vec<f64>)> = (0..30)
        .map(|i| {
            (
                vec![format!("C{}", i % 4), format!("D{}", i % 7)],
                vec![(i % 11) as f64],
            )
        })
        .collect();
    let gamelog_rows = raw_stream(30, 77);

    let workers = [
        (gamelog.clone(), gamelog_rows.clone()),
        (forecast.clone(), forecast_rows.clone()),
    ]
    .map(|(spec, rows)| {
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client.open(&spec).expect("open");
            client.use_tenant(&spec.name).expect("use");
            let mut reports = Vec::with_capacity(rows.len());
            for window in rows.chunks(5) {
                let window: Vec<RawRow> = window
                    .iter()
                    .map(|(dims, measures)| {
                        let dims: Vec<&str> = dims.iter().map(String::as_str).collect();
                        RawRow::new(&dims, measures)
                    })
                    .collect();
                reports.extend(client.ingest_batch(window).expect("ingest_batch"));
            }
            let stats = client.stats().expect("stats");
            assert_eq!(stats.len as usize, rows.len());
            assert_eq!(stats.schema, spec.name);
            reports
        })
    });
    let [gamelog_served, forecast_served] = workers.map(|w| w.join().expect("client thread"));

    // Byte-identity per tenant against in-process references fed the
    // same windows.
    let mut reference = reference_for(&gamelog);
    let mut expected = Vec::new();
    for window in gamelog_rows.chunks(5) {
        let window: Vec<_> = window
            .iter()
            .map(|(dims, measures)| {
                let dims: Vec<&str> = dims.iter().map(String::as_str).collect();
                reference.encode_raw(&dims, measures.clone()).unwrap()
            })
            .collect();
        expected.extend(reference.ingest_batch_slice(&window).unwrap());
    }
    assert_eq!(gamelog_served, expected, "gamelog tenant transcript");

    let mut reference = reference_for(&forecast);
    let mut expected = Vec::new();
    for window in forecast_rows.chunks(5) {
        let window: Vec<_> = window
            .iter()
            .map(|(dims, measures)| {
                let dims: Vec<&str> = dims.iter().map(String::as_str).collect();
                reference.encode_raw(&dims, measures.clone()).unwrap()
            })
            .collect();
        expected.extend(reference.ingest_batch_slice(&window).unwrap());
    }
    assert_eq!(forecast_served, expected, "forecast tenant transcript");

    // The default tenant saw none of it.
    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.len, 0, "default tenant must stay empty");
    client.shutdown().expect("shutdown");
    join.join().expect("server thread");
}

#[test]
fn tenant_errors_are_typed() {
    let schema = schema();
    let config = config();
    let monitor = Served::from(FactMonitor::new(
        schema.clone(),
        STopDown::new(&schema, config.discovery),
        config,
    ));
    let (addr, join) = spawn_server(monitor);
    let mut client = Client::connect(addr).expect("connect");

    // USE of a never-opened tenant.
    match client.use_tenant("nope").unwrap_err() {
        ServeError::Remote { kind, message } => {
            assert_eq!(kind, "Tenant");
            assert!(message.contains("nope"), "{message}");
        }
        other => panic!("expected a Tenant error, got {other}"),
    }
    // Duplicate OPEN.
    let spec = TenantSpec::new("dup", &["d"], &[("m", Direction::HigherIsBetter)], 1.0);
    client.open(&spec).expect("first open");
    match client.open(&spec).unwrap_err() {
        ServeError::Remote { kind, .. } => assert_eq!(kind, "Tenant"),
        other => panic!("expected a Tenant error, got {other}"),
    }
    // An invalid spec relays the monitor-config error, typed.
    let mut bad = spec.clone();
    bad.name = "bad".into();
    bad.d_hat = Some(0);
    match client.open(&bad).unwrap_err() {
        ServeError::Remote { kind, .. } => assert_eq!(kind, "InvalidConfig"),
        other => panic!("expected an InvalidConfig error, got {other}"),
    }
    // The connection survives it all, still on the default tenant.
    client.ping().expect("ping");
    assert_eq!(client.stats().expect("stats").len, 0);
    client.shutdown().expect("shutdown");
    join.join().expect("server thread");
}

#[test]
fn stalled_peer_is_dropped_and_does_not_pin_the_worker() {
    use std::io::Write as _;

    // One connection-handler worker and a short read timeout: a peer that
    // sends half a frame header and stalls must be dropped, freeing the
    // worker for the well-behaved client queued behind it.
    let schema = schema();
    let config = config();
    let monitor = Served::from(FactMonitor::new(
        schema.clone(),
        STopDown::new(&schema, config.discovery),
        config,
    ));
    let server = FactServer::builder()
        .with_workers(1)
        .with_read_timeout(Some(Duration::from_millis(200)))
        .bind("127.0.0.1:0", monitor)
        .expect("bind");
    let addr = server.local_addr();
    let join = std::thread::spawn(move || server.run().expect("server exits cleanly"));

    let mut stalled = std::net::TcpStream::connect(addr).expect("stalled peer connects");
    stalled.write_all(&[0x02, 0x00]).expect("half a header");
    stalled.flush().expect("flush");
    // Do NOT finish the frame: the server's read timeout must fire mid-frame
    // and drop this connection, unpinning the only worker.

    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("ping served despite the stalled peer");
    let report = client
        .ingest(&["P0", "T0", "M0"], &[5.0, 3.0])
        .expect("ingest");
    assert!(!report.facts.is_empty());
    client.shutdown().expect("shutdown");
    join.join().expect("server thread");
}

#[test]
fn snapshot_reads_are_prefix_consistent_under_concurrent_ingest() {
    // A writer streams batches while a reader hammers TOPK on the same
    // tenant. Reads are served from the lock-free snapshot; every
    // observed report must be exactly some prefix-of-the-stream report the
    // writer produced (byte-identical), and the observed tuple ids must be
    // monotone — a reader can never see the stream run backwards.
    let schema = schema();
    let config = config();
    let monitor = Served::from(FactMonitor::new(
        schema.clone(),
        STopDown::new(&schema, config.discovery),
        config,
    ));
    let (addr, join) = spawn_server(monitor);

    let rows = raw_stream(120, 5);
    let writer = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("writer connects");
        let mut reports = Vec::with_capacity(rows.len());
        for window in rows.chunks(6) {
            let window: Vec<RawRow> = window
                .iter()
                .map(|(dims, measures)| {
                    let dims: Vec<&str> = dims.iter().map(String::as_str).collect();
                    RawRow::new(&dims, measures)
                })
                .collect();
            reports.extend(client.ingest_batch(window).expect("ingest_batch"));
        }
        reports
    });
    let reader = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("reader connects");
        let mut observed = Vec::new();
        for _ in 0..200 {
            match client.top_k(1 << 20) {
                Ok(report) => observed.push(report),
                // Before the first arrival lands, TOPK is a typed State
                // error — tolerated, the stream just hasn't started.
                Err(ServeError::Remote { kind, .. }) => assert_eq!(kind, "State"),
                Err(other) => panic!("reader failed: {other}"),
            }
        }
        observed
    });
    let reports = writer.join().expect("writer thread");
    let observed = reader.join().expect("reader thread");

    let mut last_seen = 0;
    for report in &observed {
        let id = report.tuple_id as usize;
        assert!(
            id >= last_seen,
            "reader observed the stream running backwards: {id} after {last_seen}"
        );
        last_seen = id;
        // `k` is far above keep_top, so the observed report must be the
        // writer's report for that arrival, byte for byte.
        assert_eq!(report, &reports[id], "snapshot read for tuple {id}");
    }

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    join.join().expect("server thread");
}

fn temp_data_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sitfact-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn default_monitor() -> Served {
    let schema = schema();
    let config = config();
    Served::from(FactMonitor::new(
        schema.clone(),
        STopDown::new(&schema, config.discovery),
        config,
    ))
}

fn spawn_durable_server(data_dir: &std::path::Path) -> (SocketAddr, JoinHandle<()>) {
    let server = FactServer::builder()
        .with_data_dir(data_dir)
        .bind("127.0.0.1:0", default_monitor())
        .expect("bind durable server");
    let addr = server.local_addr();
    let join = std::thread::spawn(move || server.run().expect("server exits cleanly"));
    (addr, join)
}

fn ingest_windows(client: &mut Client, rows: &[(Vec<String>, Vec<f64>)]) -> Vec<ArrivalReport> {
    let mut reports = Vec::with_capacity(rows.len());
    for window in rows.chunks(5) {
        let window: Vec<RawRow> = window
            .iter()
            .map(|(dims, measures)| {
                let dims: Vec<&str> = dims.iter().map(String::as_str).collect();
                RawRow::new(&dims, measures)
            })
            .collect();
        reports.extend(client.ingest_batch(window).expect("ingest_batch"));
    }
    reports
}

#[test]
fn wal_stats_are_zero_without_a_data_dir() {
    let (addr, join) = spawn_server(default_monitor());
    let mut client = Client::connect(addr).expect("connect");
    client
        .ingest(&["P0", "T0", "M0"], &[5.0, 3.0])
        .expect("ingest");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.wal_segments, 0);
    assert_eq!(stats.wal_bytes, 0);
    assert_eq!(stats.wal_synced, 0);
    client.shutdown().expect("shutdown");
    join.join().expect("server thread");
}

#[test]
fn killed_server_recovers_byte_identical_state_from_its_data_dir() {
    // The acceptance test of the durability layer, over real sockets: a
    // server ingests with a data dir, dies without any orderly state
    // handoff (per-append fsync means the log already holds everything
    // acknowledged), and a new process bound to the same directory must
    // answer STATS and TOPK byte-identically — then continue the stream
    // exactly like a monitor that never crashed.
    let data_dir = temp_data_dir("recover");
    let rows = raw_stream(60, 42);

    // First life: ingest the first half, record what a client saw last.
    let (addr, join) = spawn_durable_server(&data_dir);
    let mut client = Client::connect(addr).expect("connect");
    let first_half = ingest_windows(&mut client, &rows[..30]);
    let pre_kill_top = client.top_k(1 << 20).expect("topk pre-kill");
    let pre_kill_stats = client.stats().expect("stats pre-kill");
    assert_eq!(pre_kill_stats.wal_synced, 30, "every row is synced");
    assert!(pre_kill_stats.wal_bytes > 0);
    assert!(pre_kill_stats.wal_segments >= 1);
    client.shutdown().expect("shutdown");
    join.join().expect("server thread");
    drop(client);

    // Second life: same directory, fresh process, fresh monitor.
    let (addr, join) = spawn_durable_server(&data_dir);
    let mut client = Client::connect(addr).expect("reconnect");
    assert_eq!(
        client.top_k(1 << 20).expect("topk post-recovery"),
        pre_kill_top,
        "recovered TOPK must be byte-identical"
    );
    assert_eq!(
        client.stats().expect("stats post-recovery"),
        pre_kill_stats,
        "recovered STATS (WAL counters included) must be byte-identical"
    );

    // The recovered monitor continues the stream exactly like one that
    // never crashed: compare the full transcript with an in-process
    // reference fed the same windows without interruption.
    let second_half = ingest_windows(&mut client, &rows[30..]);
    client.shutdown().expect("shutdown");
    join.join().expect("server thread");

    let schema = schema();
    let config = config();
    let mut reference = Served::from(FactMonitor::new(
        schema.clone(),
        STopDown::new(&schema, config.discovery),
        config,
    ));
    let expected = reports_in_process_windows(&mut reference, &rows);
    assert_eq!(
        first_half
            .iter()
            .chain(&second_half)
            .cloned()
            .collect::<Vec<_>>(),
        expected,
        "crash + recovery must not perturb a single report"
    );
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// A refused row interns nothing on a durable server: after an `INGEST` with
/// a `NaN` measure (a player never seen) and an `INGEST_BATCH` whose bad
/// second row follows a new team, a restart on the same data directory
/// answers `TOPK` and `STATS` as before, and the continuation equals an
/// in-process monitor that never crashed and was refused the same rows.
#[test]
fn refused_rows_do_not_perturb_recovery() {
    let data_dir = temp_data_dir("refused");
    let rows = raw_stream(30, 5);
    let fresh: Vec<(Vec<String>, Vec<f64>)> = (0..5)
        .map(|i| {
            let dims = vec![format!("Q{i}"), format!("U{}", i % 2), "M0".to_string()];
            (dims, vec![f64::from(i), 1.0])
        })
        .collect();
    let ghost = RawRow::new(&["Ghost", "T0", "M0"], &[f64::NAN, 1.0]);
    let bad_batch = vec![
        RawRow::new(&["P0", "Tnew", "M0"], &[1.0, 1.0]),
        RawRow::new(&["P1", "T1", "M1"], &[1.0]),
    ];

    // The never-crashed reference, refused the same rows.
    let mut reference = default_monitor();
    let mut expected = reports_in_process_windows(&mut reference, &rows[..10]);
    assert!(reference.encode_rows(std::slice::from_ref(&ghost)).is_err());
    assert!(reference.encode_rows(&bad_batch).is_err());
    expected.extend(reports_in_process_windows(&mut reference, &fresh));
    let continuation = reports_in_process_windows(&mut reference, &rows[10..]);

    let (addr, join) = spawn_durable_server(&data_dir);
    let mut client = Client::connect(addr).expect("connect");
    let mut served = ingest_windows(&mut client, &rows[..10]);
    match client.ingest(&ghost.dims, &ghost.measures).unwrap_err() {
        ServeError::Remote { kind, .. } => assert_eq!(kind, "InvalidTuple"),
        other => panic!("expected an InvalidTuple error, got {other}"),
    }
    assert!(client.ingest_batch(bad_batch).is_err());
    served.extend(ingest_windows(&mut client, &fresh));
    assert_eq!(served, expected);
    let pre_kill_top = client.top_k(1 << 20).expect("topk pre-kill");
    let pre_kill_stats = client.stats().expect("stats pre-kill");
    assert_eq!(pre_kill_stats.wal_synced, 15, "refused rows are not logged");
    client.shutdown().expect("shutdown");
    join.join().expect("server thread");
    drop(client);

    let (addr, join) = spawn_durable_server(&data_dir);
    let mut client = Client::connect(addr).expect("reconnect");
    assert_eq!(client.top_k(1 << 20).expect("topk"), pre_kill_top);
    assert_eq!(client.stats().expect("stats"), pre_kill_stats);
    assert_eq!(ingest_windows(&mut client, &rows[10..]), continuation);
    client.shutdown().expect("shutdown");
    join.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// Like [`reports_in_process`], but windows of 5 to match
/// [`ingest_windows`].
fn reports_in_process_windows(
    monitor: &mut Served,
    rows: &[(Vec<String>, Vec<f64>)],
) -> Vec<ArrivalReport> {
    let mut reports = Vec::with_capacity(rows.len());
    for window in rows.chunks(5) {
        reports.extend(ingest_in_process(monitor, window));
    }
    reports
}

#[test]
fn close_evicts_a_tenant_and_durable_state_survives_it() {
    let data_dir = temp_data_dir("close");
    let (addr, join) = spawn_durable_server(&data_dir);
    let mut client = Client::connect(addr).expect("connect");

    // CLOSE of a never-opened tenant is a typed error.
    match client.close("ghost").unwrap_err() {
        ServeError::Remote { kind, message } => {
            assert_eq!(kind, "Tenant");
            assert!(message.contains("ghost"), "{message}");
        }
        other => panic!("expected a Tenant error, got {other}"),
    }

    let spec = TenantSpec::new(
        "east",
        &["player", "team"],
        &[("points", Direction::HigherIsBetter)],
        1.0,
    );
    client.open(&spec).expect("open");
    client.use_tenant("east").expect("use");
    let report = client.ingest(&["Wes", "BOS"], &[31.0]).expect("ingest");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.len, 1);
    assert_eq!(stats.wal_synced, 1, "tenant WALs are per-tenant");

    client.close("east").expect("close");
    // The session still points at the evicted tenant: dispatch now yields
    // the same typed error an unknown tenant would.
    match client.stats().unwrap_err() {
        ServeError::Remote { kind, .. } => assert_eq!(kind, "Tenant"),
        other => panic!("expected a Tenant error, got {other}"),
    }
    match client.use_tenant("east").unwrap_err() {
        ServeError::Remote { kind, .. } => assert_eq!(kind, "Tenant"),
        other => panic!("expected a Tenant error, got {other}"),
    }

    // Re-OPEN recovers the tenant from its directory: the eviction freed
    // memory, not history.
    client.open(&spec).expect("re-open recovers");
    client.use_tenant("east").expect("use again");
    let stats = client.stats().expect("stats after recovery");
    assert_eq!(stats.len, 1);
    assert_eq!(stats.wal_synced, 1);
    assert_eq!(
        client.top_k(1 << 20).expect("topk after recovery"),
        report,
        "the recovered tenant's last report survives CLOSE"
    );

    client.shutdown().expect("shutdown");
    join.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn shutdown_is_not_blocked_by_idle_connections() {
    // An idle keep-alive client must not pin the server: shutdown half-closes
    // every live connection, so run()'s worker join completes immediately
    // instead of waiting for the idle peer to hang up.
    let schema = schema();
    let config = config();
    let monitor = Served::from(FactMonitor::new(
        schema.clone(),
        STopDown::new(&schema, config.discovery),
        config,
    ));
    let (addr, join) = spawn_server(monitor);
    let mut idle = Client::connect(addr).expect("idle client connects");
    idle.ping().expect("idle client is live");
    // …and now says nothing further, holding its connection open.
    let mut active = Client::connect(addr).expect("active client connects");
    active.shutdown().expect("shutdown acknowledged");
    // Must return promptly; before connection tracking this joined forever.
    join.join()
        .expect("server thread exits with an idle peer attached");
    // The idle client's connection was closed out from under it.
    assert!(idle.ping().is_err());
}
