//! Criterion micro-benchmark of the TCP service front-end against the
//! in-process monitor on the same synthetic NBA stream: what does crossing
//! the framed loopback socket cost, per arrival and per batched window?
//!
//! Five legs, all starting from the same raw string rows (interning happens
//! inside the timed region on both sides, mirroring what a news feed pays):
//!
//! * `in_process_per_row` / `in_process_batched` — a fresh [`FactMonitor`]
//!   fed directly through the `StreamMonitor` trait;
//! * `served_per_row` / `served_batched` — the same monitor config behind a
//!   fresh [`FactServer`] on an ephemeral loopback port, fed through the
//!   blocking [`Client`] (`INGEST` vs `INGEST_BATCH` verbs). Server
//!   start-up/shutdown is inside the loop, so treat the numbers as the cost
//!   of a short-lived session; the steady-state gap is per-row vs batched.
//! * `served_batched_tenant` — the same batched session streaming into a
//!   named tenant via `OPEN`/`USE` instead of the default tenant, so the
//!   tenant-verb overhead stays on the scoreboard.
//!
//! Headline numbers are recorded in `crates/sitfact-bench/README.md`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sitfact_algos::STopDown;
use sitfact_bench::{generate_rows, DatasetKind, ExperimentParams};
use sitfact_core::{Direction, DiscoveryConfig};
use sitfact_datagen::Row;
use sitfact_prominence::{FactMonitor, MonitorConfig, StreamMonitor};
use sitfact_serve::{Client, FactServer, RawRow, TenantSpec};

const ROWS: usize = 400;
const BATCH: usize = 50;

fn fixture() -> (sitfact_core::Schema, Vec<Row>) {
    let params = ExperimentParams {
        d: 5,
        m: 4,
        d_hat: 3,
        m_hat: 3,
        n: ROWS,
        sample_points: 1,
        seed: 42,
    };
    generate_rows(DatasetKind::Nba, &params)
}

fn monitor_config() -> MonitorConfig {
    MonitorConfig::default()
        .with_discovery(DiscoveryConfig::capped(3, 3))
        .with_tau(100.0)
        .with_keep_top(8)
}

fn fresh_monitor(schema: &sitfact_core::Schema) -> FactMonitor<STopDown> {
    let config = monitor_config();
    FactMonitor::new(
        schema.clone(),
        STopDown::new(schema, config.discovery),
        config,
    )
}

/// Feeds raw rows straight into a monitor; returns total facts as checksum.
fn in_process(schema: &sitfact_core::Schema, rows: &[Row], batch: usize) -> usize {
    let mut monitor = fresh_monitor(schema);
    let mut facts = 0;
    for window in rows.chunks(batch) {
        let tuples: Vec<_> = window
            .iter()
            .map(|row| {
                let dims: Vec<&str> = row.dims.iter().map(String::as_str).collect();
                monitor.encode_raw(&dims, row.measures.clone()).unwrap()
            })
            .collect();
        facts += monitor
            .ingest_batch(tuples)
            .unwrap()
            .iter()
            .map(|r| r.facts.len())
            .sum::<usize>();
    }
    facts
}

/// Feeds the same raw rows through a fresh server + client round trip.
fn served(schema: &sitfact_core::Schema, rows: &[Row], batch: usize) -> usize {
    let monitor: Box<dyn StreamMonitor + Send> = Box::new(fresh_monitor(schema));
    let server = FactServer::bind("127.0.0.1:0", monitor).expect("bind");
    let addr = server.local_addr();
    let join = std::thread::spawn(move || server.run().expect("clean exit"));
    let mut client = Client::connect(addr).expect("connect");
    let mut facts = 0;
    if batch <= 1 {
        for row in rows {
            let dims: Vec<&str> = row.dims.iter().map(String::as_str).collect();
            facts += client.ingest(&dims, &row.measures).unwrap().facts.len();
        }
    } else {
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
                .unwrap()
                .iter()
                .map(|r| r.facts.len())
                .sum::<usize>();
        }
    }
    client.shutdown().expect("shutdown");
    join.join().expect("server thread");
    facts
}

/// The same batched session against a named tenant: `OPEN` one matching the
/// monitor config, `USE` it, then stream windows.
fn served_tenant(schema: &sitfact_core::Schema, rows: &[Row], batch: usize) -> usize {
    let monitor: Box<dyn StreamMonitor + Send> = Box::new(fresh_monitor(schema));
    let server = FactServer::bind("127.0.0.1:0", monitor).expect("bind");
    let addr = server.local_addr();
    let join = std::thread::spawn(move || server.run().expect("clean exit"));
    let mut client = Client::connect(addr).expect("connect");
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
    let mut spec = TenantSpec::new("bench", &dims, &measures, 100.0);
    spec.keep_top = Some(8);
    spec.d_hat = Some(3);
    spec.m_hat = Some(3);
    client.open(&spec).expect("open tenant");
    client.use_tenant("bench").expect("use tenant");
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
            .unwrap()
            .iter()
            .map(|r| r.facts.len())
            .sum::<usize>();
    }
    client.shutdown().expect("shutdown");
    join.join().expect("server thread");
    facts
}

fn bench_serve(c: &mut Criterion) {
    let (schema, rows) = fixture();
    // Both paths must report the same facts — equality is asserted before
    // anything is timed, so the bench doubles as a wire-fidelity check.
    assert_eq!(
        in_process(&schema, &rows, BATCH),
        served(&schema, &rows, BATCH)
    );
    assert_eq!(in_process(&schema, &rows, 1), served(&schema, &rows, 1));
    // A named tenant must agree with the in-process monitor too.
    assert_eq!(
        in_process(&schema, &rows, BATCH),
        served_tenant(&schema, &rows, BATCH)
    );

    let mut group = c.benchmark_group("serve_throughput");
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.bench_with_input(
        BenchmarkId::new("in_process_per_row", ROWS),
        &rows,
        |b, rows| b.iter(|| black_box(in_process(&schema, rows, 1))),
    );
    group.bench_with_input(
        BenchmarkId::new("in_process_batched", ROWS),
        &rows,
        |b, rows| b.iter(|| black_box(in_process(&schema, rows, BATCH))),
    );
    group.bench_with_input(
        BenchmarkId::new("served_per_row", ROWS),
        &rows,
        |b, rows| b.iter(|| black_box(served(&schema, rows, 1))),
    );
    group.bench_with_input(
        BenchmarkId::new("served_batched", ROWS),
        &rows,
        |b, rows| b.iter(|| black_box(served(&schema, rows, BATCH))),
    );
    group.bench_with_input(
        BenchmarkId::new("served_batched_tenant", ROWS),
        &rows,
        |b, rows| b.iter(|| black_box(served_tenant(&schema, rows, BATCH))),
    );
    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
