//! Multi-tenant serving saturation experiment: the shared-nothing engine
//! (worker-owned tenant monitors, lock-free `TOPK` snapshots) on real
//! loopback TCP round trips. Results go to `BENCH_serve.json` (schema
//! documented in `crates/sitfact-bench/README.md`). Until PR 15 a second leg
//! ran the single-global-mutex engine; the checked-in `BENCH_serve.json` is
//! the record of that comparison and is not regenerated — every entry this
//! binary writes carries `"mode": "owned"`.
//!
//! Usage: `fig_serve [--n 600] [--batch 25] [--clients-max 4] [--reads 400]
//! [--reps 3] [--seed S] [--out BENCH_serve.json]`
//!
//! Two measured curves:
//!
//! * **ingest saturation** — 1..clients-max concurrent clients, each streaming
//!   `--n` rows into its *own* tenant in `--batch`-row windows; wall-clock of
//!   the slowest client, best of `--reps` runs with a fresh server each.
//! * **TOPK read latency** — one writer streaming large windows into a hot
//!   tenant while a reader times `TOPK` round trips against the same tenant.
//!   The read is answered from an epoch-published snapshot and never waits
//!   for an in-flight window.
//!
//! Before any timing, the served reports are asserted equal to a fresh
//! in-process [`FactMonitor`] fed the same windows, per tenant — a CI smoke
//! run doubles as a wire-fidelity test. The host's hardware thread
//! count is recorded in the output: on a single hardware thread the ingest
//! curve cannot show parallel speedup (everything is CPU-bound on one core)
//! and the read-latency leg is the meaningful number.

use sitfact_algos::STopDown;
use sitfact_bench::params::arg_value;
use sitfact_bench::{generate_rows, DatasetKind, ExperimentParams};
use sitfact_core::{Direction, DiscoveryConfig, Schema, ThreadPool};
use sitfact_datagen::Row;
use sitfact_prominence::{ArrivalReport, FactMonitor, MonitorConfig, StreamMonitor};
use sitfact_serve::{Client, FactServer, RawRow, TenantSpec};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const D: usize = 5;
const M: usize = 4;
const D_HAT: usize = 3;
const M_HAT: usize = 3;
const TAU: f64 = 100.0;
const KEEP_TOP: usize = 8;

/// The `mode` every output entry carries: the one engine's name in the
/// `BENCH_serve.json` schema.
const MODE: &str = "owned";

fn monitor_config() -> MonitorConfig {
    MonitorConfig::default()
        .with_discovery(DiscoveryConfig::capped(D_HAT, M_HAT))
        .with_tau(TAU)
        .with_keep_top(KEEP_TOP)
}

fn fresh_monitor(schema: &Schema) -> FactMonitor<STopDown> {
    let config = monitor_config();
    FactMonitor::new(
        schema.clone(),
        STopDown::new(schema, config.discovery),
        config,
    )
}

/// The tenant spec matching [`monitor_config`] on the NBA demo schema, so a
/// served tenant and an in-process reference discover identical facts.
fn spec_for(name: &str, schema: &Schema) -> TenantSpec {
    let dims: Vec<&str> = schema
        .dimension_names()
        .iter()
        .map(String::as_str)
        .collect();
    let measures: Vec<(&str, Direction)> = schema
        .measures()
        .iter()
        .map(|m| (m.name.as_str(), m.direction))
        .collect();
    let mut spec = TenantSpec::new(name, &dims, &measures, TAU);
    spec.keep_top = Some(KEEP_TOP as u64);
    spec.d_hat = Some(D_HAT as u64);
    spec.m_hat = Some(M_HAT as u64);
    spec
}

/// A server running on its own single-thread pool; dropping joins it.
struct RunningServer {
    runner: ThreadPool,
    handle: sitfact_serve::ServerHandle,
    addr: std::net::SocketAddr,
}

fn start_server(schema: &Schema, clients: usize) -> RunningServer {
    let monitor: Box<dyn StreamMonitor + Send> = Box::new(fresh_monitor(schema));
    let server = FactServer::builder()
        .with_workers(clients + 1)
        .with_owners(clients.max(1))
        .with_read_timeout(Some(Duration::from_secs(30)))
        .with_write_timeout(Some(Duration::from_secs(30)))
        .bind("127.0.0.1:0", monitor)
        .expect("bind loopback server");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = ThreadPool::new(1);
    runner.execute(move || server.run().expect("server exits cleanly"));
    RunningServer {
        runner,
        handle,
        addr,
    }
}

impl RunningServer {
    fn stop(self) {
        self.handle.shutdown();
        drop(self.runner); // joins the accept loop
    }
}

/// Streams rows in `batch`-row windows; returns total facts as checksum.
fn stream_rows(client: &mut Client, rows: &[Row], batch: usize) -> usize {
    let mut facts = 0;
    for window in rows.chunks(batch) {
        let window: Vec<RawRow> = window
            .iter()
            .map(|row| {
                let dims: Vec<&str> = row.dims.iter().map(String::as_str).collect();
                RawRow::new(&dims, &row.measures)
            })
            .collect();
        facts += client
            .ingest_batch(window)
            .expect("window round trip")
            .iter()
            .map(|r| r.facts.len())
            .sum::<usize>();
    }
    facts
}

/// The in-process ground truth: same config, same windows, no socket.
fn reference_reports(schema: &Schema, rows: &[Row], batch: usize) -> Vec<ArrivalReport> {
    let mut monitor = fresh_monitor(schema);
    let mut reports = Vec::with_capacity(rows.len());
    for window in rows.chunks(batch) {
        let tuples: Vec<_> = window
            .iter()
            .map(|row| {
                let dims: Vec<&str> = row.dims.iter().map(String::as_str).collect();
                monitor
                    .encode_raw(&dims, row.measures.clone())
                    .expect("row matches schema")
            })
            .collect();
        reports.extend(monitor.ingest_batch(tuples).expect("ingest window"));
    }
    reports
}

/// Asserts each tenant's served reports equal its in-process reference,
/// before anything is timed.
fn assert_wire_fidelity(schema: &Schema, streams: &[Vec<Row>], batch: usize) {
    let server = start_server(schema, streams.len());
    for (i, rows) in streams.iter().enumerate() {
        let name = format!("t{i}");
        let spec = spec_for(&name, schema);
        let mut client = Client::connect(server.addr).expect("connect");
        client.open(&spec).expect("open tenant");
        client.use_tenant(&name).expect("use tenant");
        let mut served = Vec::new();
        for window in rows.chunks(batch) {
            let window: Vec<RawRow> = window
                .iter()
                .map(|row| {
                    let dims: Vec<&str> = row.dims.iter().map(String::as_str).collect();
                    RawRow::new(&dims, &row.measures)
                })
                .collect();
            served.extend(client.ingest_batch(window).expect("window round trip"));
        }
        let reference = reference_reports(schema, rows, batch);
        assert_eq!(
            served, reference,
            "tenant {name} drifted from the in-process monitor"
        );
        let stats = client.stats().expect("stats");
        assert_eq!(stats.len as usize, rows.len());
        assert_eq!(stats.schema, name);
    }
    server.stop();
}

/// One ingest-saturation point: `clients` concurrent clients, each streaming
/// its own tenant; returns the best wall-clock seconds over `reps` runs.
fn timed_ingest(schema: &Schema, streams: &[Vec<Row>], batch: usize, reps: usize) -> f64 {
    let clients = streams.len();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let server = start_server(schema, clients);
        // Connect and OPEN/USE outside the timed region: the curve is about
        // steady-state ingest, not connection setup.
        let conns: Vec<Client> = (0..clients)
            .map(|i| {
                let name = format!("t{i}");
                let mut c = Client::connect(server.addr).expect("connect");
                c.open(&spec_for(&name, schema)).expect("open tenant");
                c.use_tenant(&name).expect("use tenant");
                c
            })
            .collect();
        let drivers = ThreadPool::new(clients.max(1));
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = conns
            .into_iter()
            .zip(streams.iter().cloned())
            .map(|(mut c, rows)| -> Box<dyn FnOnce() -> usize + Send> {
                Box::new(move || stream_rows(&mut c, &rows, batch))
            })
            .collect();
        let start = Instant::now();
        let facts: usize = drivers.run_all(tasks).into_iter().sum();
        best = best.min(start.elapsed().as_secs_f64());
        std::hint::black_box(facts);
        server.stop();
    }
    best
}

struct ReadLeg {
    reads: usize,
    avg_us: f64,
    p95_us: f64,
    max_us: f64,
    writer_rows: usize,
    writer_seconds: f64,
}

/// Times `TOPK` round trips against a tenant while a writer streams large
/// windows into it. The reader keeps going until the writer finishes *and*
/// at least `reads_min` samples exist.
fn read_latency_leg(
    schema: &Schema,
    rows: &[Row],
    write_batch: usize,
    reads_min: usize,
) -> ReadLeg {
    let server = start_server(schema, 2);
    let spec = spec_for("hot", schema);
    let mut writer = Client::connect(server.addr).expect("connect writer");
    writer.open(&spec).expect("open tenant");
    writer.use_tenant("hot").expect("use tenant");
    // Prime with one window so TOPK always has a last arrival to answer.
    let (prime, rest) = rows.split_at(write_batch.min(rows.len()));
    std::hint::black_box(stream_rows(&mut writer, prime, write_batch));
    let mut reader = Client::connect(server.addr).expect("connect reader");
    reader.use_tenant("hot").expect("use tenant");

    let writing = Arc::new(AtomicBool::new(true));
    let writer_flag = Arc::clone(&writing);
    let rest: Vec<Row> = rest.to_vec();
    let writer_rows = rest.len();
    let drivers = ThreadPool::new(2);
    let sample_cap = reads_min * 64;
    let tasks: Vec<Box<dyn FnOnce() -> Vec<f64> + Send>> = vec![
        Box::new(move || {
            let start = Instant::now();
            std::hint::black_box(stream_rows(&mut writer, &rest, write_batch));
            let seconds = start.elapsed().as_secs_f64();
            writer_flag.store(false, Ordering::SeqCst);
            vec![seconds]
        }),
        Box::new(move || {
            let mut lat = Vec::with_capacity(reads_min);
            while (writing.load(Ordering::SeqCst) || lat.len() < reads_min)
                && lat.len() < sample_cap
            {
                let start = Instant::now();
                let report = reader.top_k(1 << 20).expect("TOPK round trip");
                lat.push(start.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(report.facts.len());
            }
            lat
        }),
    ];
    let mut results = drivers.run_all(tasks);
    let mut lat = results.pop().expect("reader samples");
    let writer_seconds = results.pop().expect("writer seconds")[0];
    server.stop();

    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let reads = lat.len();
    ReadLeg {
        reads,
        avg_us: lat.iter().sum::<f64>() / reads.max(1) as f64,
        p95_us: lat[(reads * 95 / 100).min(reads - 1)],
        max_us: lat.last().copied().unwrap_or(0.0),
        writer_rows,
        writer_seconds,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = arg_value(&args, "--n", 600);
    let batch: usize = arg_value(&args, "--batch", 25).max(1);
    let clients_max: usize = arg_value(&args, "--clients-max", 4).max(1);
    let reads_min: usize = arg_value(&args, "--reads", 400).max(1);
    let reps: usize = arg_value(&args, "--reps", 3).max(1);
    let seed: u64 = arg_value(&args, "--seed", 42);
    let out: String = arg_value(&args, "--out", "BENCH_serve.json".to_string());
    let hardware_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    eprintln!(
        "fig_serve: n={n}/client, batch={batch}, clients≤{clients_max}, reps={reps}, \
         {hardware_threads} hardware thread(s)"
    );

    // One schema shape; each client gets its own stream (distinct seed) so
    // tenants hold genuinely different data.
    let params = |i: u64| ExperimentParams {
        d: D,
        m: M,
        d_hat: D_HAT,
        m_hat: M_HAT,
        n,
        sample_points: 1,
        seed: seed + i,
    };
    let (schema, _) = generate_rows(DatasetKind::Nba, &params(0));
    let streams: Vec<Vec<Row>> = (0..clients_max)
        .map(|i| generate_rows(DatasetKind::Nba, &params(i as u64)).1)
        .collect();

    let check = 2.min(clients_max);
    assert_wire_fidelity(&schema, &streams[..check], batch);
    eprintln!("  wire fidelity passed ({check} tenants, {n} rows each)");

    // Clients ladder: powers of two up to the cap.
    let mut ladder = Vec::new();
    let mut c = 1;
    while c < clients_max {
        ladder.push(c);
        c *= 2;
    }
    ladder.push(clients_max);

    struct IngestPoint {
        clients: usize,
        rows_total: usize,
        seconds: f64,
        rows_per_sec: f64,
    }
    println!("\n=== Multi-tenant serving saturation (n={n}/client) ===");
    let mut ingest_points = Vec::new();
    for &clients in &ladder {
        let seconds = timed_ingest(&schema, &streams[..clients], batch, reps);
        let rows_total = clients * n;
        let rows_per_sec = rows_total as f64 / seconds.max(1e-12);
        println!(
            "{MODE:>6} ingest, {clients} client(s): {rows_total:>6} rows in {seconds:.4} s ({rows_per_sec:>9.0} rows/s)"
        );
        println!("csv,fig_serve,ingest_{MODE}_{clients}c,{rows_total},{rows_per_sec:.0}");
        ingest_points.push(IngestPoint {
            clients,
            rows_total,
            seconds,
            rows_per_sec,
        });
    }

    let write_batch = (n / 4).max(batch);
    let leg = read_latency_leg(&schema, &streams[0], write_batch, reads_min);
    println!(
        "{MODE:>6} TOPK reads vs {write_batch}-row windows: {} reads, avg {:.1} µs, p95 {:.1} µs, max {:.1} µs",
        leg.reads, leg.avg_us, leg.p95_us, leg.max_us
    );
    println!("csv,fig_serve,topk_{MODE},{},{:.2}", leg.reads, leg.avg_us);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"serve_saturation\",\n");
    json.push_str(&format!(
        "  \"params\": {{\"n\": {n}, \"batch\": {batch}, \"clients_max\": {clients_max}, \"reads_min\": {reads_min}, \"reps\": {reps}, \"seed\": {seed}, \"hardware_threads\": {hardware_threads}, \"d\": {D}, \"m\": {M}, \"d_hat\": {D_HAT}, \"m_hat\": {M_HAT}, \"tau\": {TAU}, \"keep_top\": {KEEP_TOP}}},\n"
    ));
    json.push_str("  \"ingest\": [\n");
    for (i, p) in ingest_points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{MODE}\", \"clients\": {}, \"rows_total\": {}, \"seconds\": {:.6}, \"rows_per_sec\": {:.1}}}{}\n",
            p.clients,
            p.rows_total,
            p.seconds,
            p.rows_per_sec,
            if i + 1 < ingest_points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"topk_reads\": [\n");
    json.push_str(&format!(
        "    {{\"mode\": \"{MODE}\", \"reads\": {}, \"avg_us\": {:.2}, \"p95_us\": {:.2}, \"max_us\": {:.2}, \"writer_rows\": {}, \"writer_seconds\": {:.6}}}\n",
        leg.reads, leg.avg_us, leg.p95_us, leg.max_us, leg.writer_rows, leg.writer_seconds
    ));
    json.push_str("  ]\n");
    json.push_str("}\n");
    std::fs::write(&out, json).expect("write results file");
    eprintln!("wrote {out}");
}
