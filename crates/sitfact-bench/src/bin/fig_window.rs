//! Sliding-window experiment: steady-state memory of a `CountWindow` monitor
//! under sustained ingest vs. the unbounded growth of the append-only
//! monitor, with machine-readable results written to `BENCH_window.json`
//! (schema documented in `crates/sitfact-bench/README.md`).
//!
//! Usage: `fig_window [--window 400] [--mult 5] [--batch 16] [--reps 3]
//! [--seed S] [--out BENCH_window.json]`
//!
//! Three legs on the synthetic NBA workload (`d = 5`, `m = 4`,
//! `d̂ = m̂ = 3`, `STopDown`):
//!
//! * **fidelity** — before anything is timed, the binary asserts the
//!   subsystem's load-bearing equivalence: a windowed `ArrivalPipeline` that ingested
//!   the whole stream produces byte-identical reports for a continuation to
//!   a fresh monitor (id space aligned via `FactMonitor::with_base`) fed
//!   only the surviving suffix. A CI smoke run of this binary therefore
//!   doubles as an end-to-end retraction-correctness test.
//! * **memory** — `window * mult` rows (`mult ≥ 4` required) are streamed
//!   through a windowed and an unbounded monitor side by side, sampling
//!   resident heap bytes (table + discovery store) at every half-window
//!   checkpoint. The windowed curve must stay bounded once the window has
//!   filled — retraction plus amortised compaction keeps the resident set
//!   within a small constant of the window length — while the unbounded
//!   curve grows with the stream. Both properties are asserted, not just
//!   reported.
//! * **ingest** — windowed vs. unbounded `ingest_batch_slice` throughput,
//!   best-of-`reps`, so the retraction overhead is visible next to the
//!   memory it buys back.

use sitfact_algos::Discovery;
use sitfact_bench::params::arg_value;
use sitfact_bench::{generate_rows, DatasetKind, ExperimentParams};
use sitfact_core::{DiscoveryConfig, Schema, Tuple, TupleId};
use sitfact_prominence::{
    ArrivalPipeline, FactMonitor, MonitorConfig, StreamMonitor, WindowPolicy,
};
use std::time::Instant;

const TAU: f64 = 100.0;
const KEEP_TOP: usize = 8;

/// One memory checkpoint: resident heap bytes after `rows` arrivals.
struct MemoryPoint {
    rows: usize,
    windowed_bytes: usize,
    unbounded_bytes: usize,
}

/// One measured ingest leg.
struct IngestLeg {
    mode: &'static str,
    rows: usize,
    seconds: f64,
    rows_per_sec: f64,
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

/// Resident heap of a monitor: table columns + postings + dictionaries, plus
/// the discovery algorithm's skyline store.
fn heap_bytes(monitor: &FactMonitor<sitfact_algos::STopDown>) -> usize {
    monitor.table().approx_heap_bytes() + monitor.algorithm().store_stats().approx_bytes as usize
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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let window: usize = arg_value(&args, "--window", 400).max(1);
    let mult: usize = arg_value(&args, "--mult", 5);
    let batch: usize = arg_value(&args, "--batch", 16).max(1);
    let reps: usize = arg_value(&args, "--reps", 3);
    let seed: u64 = arg_value(&args, "--seed", 42);
    let out: String = arg_value(&args, "--out", "BENCH_window.json".to_string());
    assert!(
        mult >= 4,
        "--mult must be >= 4: steady state only shows once the stream has \
         sustained several window lengths"
    );
    let n = window * mult;

    let params = ExperimentParams {
        d: 5,
        m: 4,
        d_hat: 3,
        m_hat: 3,
        n: n + 2 * batch, // the tail feeds the fidelity continuation
        sample_points: 1,
        seed,
    };
    let (mut schema, rows) = generate_rows(DatasetKind::Nba, &params);
    let tuples = encode(&mut schema, &rows);
    let (stream, continuation) = tuples.split_at(n);
    let discovery = DiscoveryConfig::capped(params.d_hat, params.m_hat);
    let config = MonitorConfig::default()
        .with_discovery(discovery)
        .with_tau(TAU)
        .with_keep_top(KEEP_TOP);
    let fresh = || {
        let algo = sitfact_algos::STopDown::new(&schema, discovery);
        FactMonitor::new(schema.clone(), algo, config)
    };
    let policy = WindowPolicy::count(window).expect("window >= 1");
    eprintln!("fig_window: window={window}, n={n} ({mult}x), batch={batch}, reps={reps}");

    // --- Fidelity: windowed ≡ rebuild-from-suffix, asserted before timing --
    let mut windowed = ArrivalPipeline::new(fresh(), policy);
    for chunk in stream.chunks(batch) {
        windowed.ingest_batch_slice(chunk).expect("windowed ingest");
    }
    assert_eq!(
        windowed.stats().live_rows,
        window.min(n),
        "window not enforced"
    );
    let start = windowed.len() - windowed.stats().live_rows;
    let algo = sitfact_algos::STopDown::new(&schema, discovery);
    let rebuilt_inner = FactMonitor::with_base(schema.clone(), algo, config, start as TupleId);
    let mut rebuilt = ArrivalPipeline::new(rebuilt_inner, policy);
    rebuilt
        .ingest_batch_slice(&stream[start..])
        .expect("rebuild ingest");
    for chunk in continuation.chunks(batch) {
        let expected = windowed.ingest_batch_slice(chunk).expect("windowed");
        let actual = rebuilt.ingest_batch_slice(chunk).expect("rebuilt");
        assert_eq!(
            actual, expected,
            "windowed monitor drifted from the rebuild-from-suffix reference"
        );
    }
    eprintln!(
        "fidelity: {} continuation reports byte-identical to the rebuild",
        continuation.len()
    );

    // --- Memory curve -----------------------------------------------------
    let checkpoint_every = (window / 2).max(1);
    let mut windowed = ArrivalPipeline::new(fresh(), policy);
    let mut unbounded = fresh();
    let mut memory: Vec<MemoryPoint> = Vec::new();
    let mut since_checkpoint = 0usize;
    for chunk in stream.chunks(batch) {
        windowed.ingest_batch_slice(chunk).expect("windowed ingest");
        unbounded
            .ingest_batch_slice(chunk)
            .expect("unbounded ingest");
        since_checkpoint += chunk.len();
        if since_checkpoint >= checkpoint_every {
            since_checkpoint = 0;
            memory.push(MemoryPoint {
                rows: unbounded.len(),
                windowed_bytes: heap_bytes(windowed.inner()),
                unbounded_bytes: heap_bytes(&unbounded),
            });
        }
    }
    // Boundedness: once the window has filled and the first compactions have
    // run (2x window), the windowed resident set must stay within a small
    // constant of its level at that point — compaction halves the tombstoned
    // prefix whenever it reaches the live count, so the resident set
    // oscillates below ~2 windows of rows and never tracks the stream.
    let fill_level = memory
        .iter()
        .find(|p| p.rows >= 2 * window)
        .map(|p| p.windowed_bytes)
        .expect("mult >= 4 guarantees a 2x-window checkpoint");
    let steady_max = memory
        .iter()
        .filter(|p| p.rows >= 2 * window)
        .map(|p| p.windowed_bytes)
        .max()
        .unwrap_or(fill_level);
    assert!(
        steady_max <= 3 * fill_level,
        "windowed memory grew past steady state: {steady_max} bytes vs {fill_level} at 2x window"
    );
    let final_point = memory.last().expect("at least one checkpoint");
    assert!(
        final_point.unbounded_bytes > final_point.windowed_bytes,
        "unbounded monitor should out-grow the windowed one at {mult}x window"
    );

    // --- Ingest legs ------------------------------------------------------
    let mut ingest_legs: Vec<IngestLeg> = Vec::new();
    for (mode, is_windowed) in [("unbounded", false), ("windowed", true)] {
        let seconds = measure(reps, || {
            if is_windowed {
                let mut monitor = ArrivalPipeline::new(fresh(), policy);
                for chunk in stream.chunks(batch) {
                    monitor.ingest_batch_slice(chunk).expect("ingest");
                }
                monitor.stats().live_rows
            } else {
                let mut monitor = fresh();
                for chunk in stream.chunks(batch) {
                    monitor.ingest_batch_slice(chunk).expect("ingest");
                }
                monitor.len()
            }
        });
        ingest_legs.push(IngestLeg {
            mode,
            rows: n,
            seconds,
            rows_per_sec: n as f64 / seconds.max(1e-12),
        });
    }

    // --- Report ----------------------------------------------------------
    println!("\n=== Sliding window: steady-state memory & ingest (NBA, d=5 m=4) ===");
    println!(
        "{:>8} {:>16} {:>16} {:>8}",
        "rows", "windowed_bytes", "unbounded_bytes", "ratio"
    );
    for p in &memory {
        println!(
            "{:>8} {:>16} {:>16} {:>7.2}x",
            p.rows,
            p.windowed_bytes,
            p.unbounded_bytes,
            p.unbounded_bytes as f64 / p.windowed_bytes.max(1) as f64
        );
        println!(
            "csv,fig_window,memory,{},{},{}",
            p.rows, p.windowed_bytes, p.unbounded_bytes
        );
    }
    println!(
        "\n{:>10} {:>8} {:>12} {:>12} {:>10}",
        "mode", "rows", "seconds", "rows/sec", "overhead"
    );
    let unbounded_seconds = ingest_legs[0].seconds;
    for l in &ingest_legs {
        println!(
            "{:>10} {:>8} {:>12.6} {:>12.0} {:>9.2}x",
            l.mode,
            l.rows,
            l.seconds,
            l.rows_per_sec,
            l.seconds / unbounded_seconds.max(1e-12)
        );
        println!(
            "csv,fig_window,ingest_{},{},{}",
            l.mode, l.rows, l.rows_per_sec
        );
    }

    // --- Machine-readable results (schema: crates/sitfact-bench/README.md)
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"window_retraction\",\n");
    json.push_str(&format!(
        "  \"params\": {{\"window\": {window}, \"mult\": {mult}, \"n\": {n}, \"batch\": {batch}, \"reps\": {reps}, \"seed\": {seed}, \"dataset\": \"nba\", \"d\": {}, \"m\": {}, \"d_hat\": {}, \"m_hat\": {}, \"tau\": {TAU}, \"keep_top\": {KEEP_TOP}}},\n",
        params.d, params.m, params.d_hat, params.m_hat
    ));
    json.push_str("  \"memory\": [\n");
    for (i, p) in memory.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"rows\": {}, \"windowed_bytes\": {}, \"unbounded_bytes\": {}}}{}\n",
            p.rows,
            p.windowed_bytes,
            p.unbounded_bytes,
            if i + 1 < memory.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"steady_state\": {{\"fill_bytes\": {fill_level}, \"max_bytes\": {steady_max}, \"final_unbounded_bytes\": {}, \"unbounded_over_windowed\": {:.2}}},\n",
        final_point.unbounded_bytes,
        final_point.unbounded_bytes as f64 / final_point.windowed_bytes.max(1) as f64
    ));
    json.push_str("  \"ingest\": [\n");
    for (i, l) in ingest_legs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"rows\": {}, \"seconds\": {:.6}, \"rows_per_sec\": {:.0}, \"overhead\": {:.3}}}{}\n",
            l.mode,
            l.rows,
            l.seconds,
            l.rows_per_sec,
            l.seconds / unbounded_seconds.max(1e-12),
            if i + 1 < ingest_legs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");
    std::fs::write(&out, json).expect("write results file");
    eprintln!("wrote {out}");
}
