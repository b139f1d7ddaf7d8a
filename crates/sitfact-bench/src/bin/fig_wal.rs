//! Durability experiment: what the write-ahead arrival log costs on ingest
//! and what snapshots buy on recovery, with machine-readable results written
//! to `BENCH_wal.json` (schema documented in `crates/sitfact-bench/README.md`).
//!
//! Usage: `fig_wal [--n 4000] [--batch 32] [--reps 3] [--seed S]
//! [--out BENCH_wal.json]`
//!
//! Two curves on the synthetic NBA workload (`d = 5`, `m = 4`,
//! `d̂ = m̂ = 3`, `STopDown`):
//!
//! * **ingest** — windowed `ingest_batch_slice` throughput of a bare
//!   [`FactMonitor`] vs the same monitor behind a logged [`ArrivalPipeline`]
//!   under both sync policies (`SyncPolicy::Os`: append + OS flushing;
//!   `SyncPolicy::Always`: fsync before every window ack).
//! * **recovery** — wall-clock to rebuild the monitor from its data
//!   directory as a function of the snapshot interval (0 = log-only, i.e.
//!   full replay). Every recovered monitor is asserted to report the same
//!   facts as an uninterrupted reference monitor, so a CI smoke run of this
//!   binary doubles as an end-to-end recovery-fidelity test.

use sitfact_bench::params::arg_value;
use sitfact_bench::{generate_rows, DatasetKind, ExperimentParams};
use sitfact_core::{DiscoveryConfig, Schema, Tuple};
use sitfact_prominence::{
    ArrivalPipeline, FactMonitor, MonitorConfig, StreamMonitor, WalOptions, WindowPolicy,
};
use sitfact_storage::SyncPolicy;
use std::path::{Path, PathBuf};
use std::time::Instant;

const TAU: f64 = 100.0;
const KEEP_TOP: usize = 8;

/// One measured ingest leg.
struct IngestLeg {
    mode: &'static str,
    sync: &'static str,
    rows: usize,
    seconds: f64,
    rows_per_sec: f64,
}

/// One measured recovery point.
struct RecoveryLeg {
    snapshot_every: u64,
    log_bytes: u64,
    snapshot_rows: u64,
    replayed_rows: u64,
    recovery_seconds: f64,
    rows_per_sec: f64,
}

/// Runs `run` `reps` times and keeps the best wall-clock time; the closure
/// returns a checksum so the work cannot be optimised away.
fn measure(reps: usize, mut run: impl FnMut() -> usize) -> f64 {
    let mut best = f64::INFINITY;
    let mut checksum = 0usize;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        checksum = checksum.wrapping_add(run());
        best = best.min(start.elapsed().as_secs_f64());
    }
    std::hint::black_box(checksum);
    best
}

fn encode(schema: &mut Schema, rows: &[sitfact_datagen::Row]) -> Vec<Tuple> {
    rows.iter()
        .map(|row| {
            let dims: Vec<&str> = row.dims.iter().map(String::as_str).collect();
            let ids = schema.intern_dims(&dims).expect("row matches schema");
            Tuple::new(ids, row.measures.clone())
        })
        .collect()
}

fn fresh_dir(root: &Path, tag: &str) -> PathBuf {
    let dir = root.join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = arg_value(&args, "--n", 4_000);
    let batch: usize = arg_value(&args, "--batch", 32).max(1);
    let reps: usize = arg_value(&args, "--reps", 3);
    let seed: u64 = arg_value(&args, "--seed", 42);
    let out: String = arg_value(&args, "--out", "BENCH_wal.json".to_string());

    let params = ExperimentParams {
        d: 5,
        m: 4,
        d_hat: 3,
        m_hat: 3,
        n,
        sample_points: 1,
        seed,
    };
    let (mut schema, rows) = generate_rows(DatasetKind::Nba, &params);
    let tuples = encode(&mut schema, &rows);
    let discovery = DiscoveryConfig::capped(params.d_hat, params.m_hat);
    let config = MonitorConfig::default()
        .with_discovery(discovery)
        .with_tau(TAU)
        .with_keep_top(KEEP_TOP);
    let fresh_monitor = || {
        let algo = sitfact_algos::STopDown::new(&schema, discovery);
        FactMonitor::new(schema.clone(), algo, config)
    };
    let open = |dir: &Path, opts: WalOptions| {
        ArrivalPipeline::new(fresh_monitor(), WindowPolicy::Unbounded).open_log(dir, opts)
    };
    let root = std::env::temp_dir().join(format!("fig_wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    eprintln!(
        "fig_wal: n={n}, batch={batch}, reps={reps}, data under {}",
        root.display()
    );

    // --- Reference: the uninterrupted monitor every recovery must match ---
    let mut reference = fresh_monitor();
    let mut expected_report = None;
    for window in tuples.chunks(batch) {
        let reports = reference
            .ingest_batch_slice(window)
            .expect("reference ingest");
        expected_report = reports.into_iter().last().or(expected_report);
    }
    let expected_report = expected_report.expect("n > 0 produces a report");

    // --- Ingest legs ------------------------------------------------------
    let mut ingest_legs: Vec<IngestLeg> = Vec::new();
    let mut push_ingest = |mode: &'static str, sync: &'static str, seconds: f64| {
        ingest_legs.push(IngestLeg {
            mode,
            sync,
            rows: n,
            seconds,
            rows_per_sec: n as f64 / seconds.max(1e-12),
        });
    };
    push_ingest(
        "unlogged",
        "none",
        measure(reps, || {
            let mut monitor = fresh_monitor();
            for window in tuples.chunks(batch) {
                monitor.ingest_batch_slice(window).expect("ingest");
            }
            monitor.len()
        }),
    );
    for sync in [SyncPolicy::Os, SyncPolicy::Always] {
        let mode = match sync {
            SyncPolicy::Os => "wal_os",
            SyncPolicy::Always => "wal_always",
        };
        let opts = WalOptions::default().with_sync(sync).without_snapshots();
        let seconds = measure(reps, || {
            let dir = fresh_dir(&root, mode);
            let (mut durable, _) = open(&dir, opts).expect("open wal");
            for window in tuples.chunks(batch) {
                durable.ingest_batch_slice(window).expect("logged ingest");
            }
            durable.len()
        });
        push_ingest(mode, sync.name(), seconds);
    }

    // --- Recovery curve ---------------------------------------------------
    // 0 = log-only (full replay); the other points bound replay by
    // snapshotting every n/2 and n/8 rows.
    let intervals: Vec<u64> = vec![0, (n as u64 / 2).max(1), (n as u64 / 8).max(1)];
    let mut recovery_legs: Vec<RecoveryLeg> = Vec::new();
    for &snapshot_every in &intervals {
        let opts = if snapshot_every == 0 {
            WalOptions::default()
                .with_sync(SyncPolicy::Os)
                .without_snapshots()
        } else {
            WalOptions::default()
                .with_sync(SyncPolicy::Os)
                .with_snapshot_every(snapshot_every)
        };
        let dir = fresh_dir(&root, &format!("recover-{snapshot_every}"));
        let (mut durable, _) = open(&dir, opts).expect("open wal");
        for window in tuples.chunks(batch) {
            durable.ingest_batch_slice(window).expect("logged ingest");
        }
        let log_bytes = durable.stats().wal.bytes;
        drop(durable);

        // Recovery fidelity first (recovered ≡ uninterrupted, asserted with
        // ==), then best-of-reps recovery wall-clock on the same directory.
        let (recovered, report) = open(&dir, opts).expect("recover");
        assert_eq!(recovered.len(), n, "recovered row count");
        assert_eq!(
            recovered.last_report(),
            Some(&expected_report),
            "recovered monitor drifted from the uninterrupted reference"
        );
        drop(recovered);
        let seconds = measure(reps, || {
            let (recovered, _) = open(&dir, opts).expect("recover");
            recovered.len()
        });
        recovery_legs.push(RecoveryLeg {
            snapshot_every,
            log_bytes,
            snapshot_rows: report.snapshot_rows,
            replayed_rows: report.replayed_rows,
            recovery_seconds: seconds,
            rows_per_sec: n as f64 / seconds.max(1e-12),
        });
    }
    let _ = std::fs::remove_dir_all(&root);

    // --- Report ----------------------------------------------------------
    println!("\n=== WAL durability: ingest overhead & recovery (NBA, d=5 m=4) ===");
    println!(
        "{:>12} {:>8} {:>8} {:>12} {:>12} {:>10}",
        "mode", "sync", "rows", "seconds", "rows/sec", "overhead"
    );
    let unlogged_seconds = ingest_legs[0].seconds;
    for l in &ingest_legs {
        let overhead = l.seconds / unlogged_seconds.max(1e-12);
        println!(
            "{:>12} {:>8} {:>8} {:>12.6} {:>12.0} {:>9.2}x",
            l.mode, l.sync, l.rows, l.seconds, l.rows_per_sec, overhead
        );
        println!(
            "csv,fig_wal,ingest_{},{},{}",
            l.mode, l.rows, l.rows_per_sec
        );
    }
    println!(
        "\n{:>14} {:>10} {:>12} {:>13} {:>14} {:>12}",
        "snapshot_every", "log_bytes", "snap_rows", "replay_rows", "recovery_s", "rows/sec"
    );
    for l in &recovery_legs {
        println!(
            "{:>14} {:>10} {:>12} {:>13} {:>14.6} {:>12.0}",
            l.snapshot_every,
            l.log_bytes,
            l.snapshot_rows,
            l.replayed_rows,
            l.recovery_seconds,
            l.rows_per_sec
        );
        println!(
            "csv,fig_wal,recover_{},{},{}",
            l.snapshot_every, l.replayed_rows, l.rows_per_sec
        );
    }

    // --- Machine-readable results (schema: crates/sitfact-bench/README.md)
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"wal_durability\",\n");
    json.push_str(&format!(
        "  \"params\": {{\"n\": {n}, \"batch\": {batch}, \"reps\": {reps}, \"seed\": {seed}, \"dataset\": \"nba\", \"d\": {}, \"m\": {}, \"d_hat\": {}, \"m_hat\": {}, \"tau\": {TAU}, \"keep_top\": {KEEP_TOP}}},\n",
        params.d, params.m, params.d_hat, params.m_hat
    ));
    json.push_str("  \"ingest\": [\n");
    for (i, l) in ingest_legs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"sync\": \"{}\", \"rows\": {}, \"seconds\": {:.6}, \"rows_per_sec\": {:.0}, \"overhead\": {:.3}}}{}\n",
            l.mode,
            l.sync,
            l.rows,
            l.seconds,
            l.rows_per_sec,
            l.seconds / unlogged_seconds.max(1e-12),
            if i + 1 < ingest_legs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"recovery\": [\n");
    for (i, l) in recovery_legs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"snapshot_every\": {}, \"log_bytes\": {}, \"snapshot_rows\": {}, \"replayed_rows\": {}, \"recovery_seconds\": {:.6}, \"rows_per_sec\": {:.0}}}{}\n",
            l.snapshot_every,
            l.log_bytes,
            l.snapshot_rows,
            l.replayed_rows,
            l.recovery_seconds,
            l.rows_per_sec,
            if i + 1 < recovery_legs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");
    std::fs::write(&out, json).expect("write results file");
    eprintln!("wrote {out}");
}
