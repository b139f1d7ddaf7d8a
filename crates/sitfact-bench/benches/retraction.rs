//! Micro-benchmark of expiry, on the stream of `bench_e2e`'s `nba_window`
//! workload: NBA box scores with 5 dimensions and 4 measures, `STopDown`
//! under `d̂ = m̂ = 3`, batches of 8 rows and a 400-row sliding window.
//!
//! The stream is driven as a windowed monitor drives it — a batch is
//! appended and discovered, then the rows past the window are tombstoned
//! and retracted one by one in ascending order, with tombstones compacted
//! once they outnumber the live rows — and only `Discovery::retract` is
//! timed, per expired row (a retraction changes the store, so it cannot be
//! repeated under `Bencher::iter`). Beside the time it prints the Fig. 11
//! counters `retract` added per expired row: dominance tests and store
//! reads.
//!
//! Run with `cargo bench -p sitfact-bench --bench retraction` (a few
//! seconds).

use sitfact_algos::{Discovery, STopDown};
use sitfact_core::{DiscoveryConfig, Tuple, TupleId};
use sitfact_datagen::nba::{NbaConfig, NbaGenerator};
use sitfact_datagen::DataGenerator;
use sitfact_storage::Table;
use std::time::{Duration, Instant};

/// Rows in the stream: `nba_window`'s 600 requests of 8 rows.
const ROWS: usize = 4_800;
/// Rows per ingest batch.
const BATCH: usize = 8;
/// The sliding window.
const WINDOW: usize = 400;

fn main() {
    for seed in [42, 43] {
        run(seed);
    }
}

fn run(seed: u64) {
    let mut gen = NbaGenerator::new(NbaConfig {
        dimensions: 5,
        measures: 4,
        players: 600,
        teams: 29,
        seasons: 8,
        games_per_season: ROWS / 8,
        seed,
    });
    let schema = gen.schema().clone();
    let mut table = Table::new(schema.clone());
    let tuples: Vec<Tuple> = gen
        .take_rows(ROWS)
        .into_iter()
        .map(|row| {
            let ids = table.schema_mut().intern_dims(&row.dims).expect("nba row");
            Tuple::validated(ids, row.measures, table.schema()).expect("nba row")
        })
        .collect();
    let mut algo = STopDown::new(&schema, DiscoveryConfig::capped(3, 3));
    let (mut total, mut best, mut expired) = (Duration::ZERO, Duration::MAX, 0u64);
    let (mut comparisons, mut store_reads) = (0u64, 0u64);
    for batch in tuples.chunks(BATCH) {
        let ids = table.append_batch_slice(batch).expect("nba batch");
        algo.begin_batch(batch.len());
        for (tuple, id) in batch.iter().zip(ids) {
            criterion::black_box(algo.discover_at(&table, tuple, id));
        }
        algo.end_batch();
        if table.live_rows() <= WINDOW {
            continue;
        }
        let start = table.watermark();
        let newly = table.retract_prefix(table.len() - WINDOW);
        for id in start..start + newly as TupleId {
            let before = algo.work_stats();
            let clock = Instant::now();
            algo.retract(&table, id).expect("lattice kinds retract");
            let elapsed = clock.elapsed();
            let after = algo.work_stats();
            total += elapsed;
            best = best.min(elapsed);
            expired += 1;
            comparisons += after.comparisons - before.comparisons;
            store_reads += after.store_reads - before.store_reads;
        }
        if table.tombstone_rows() >= table.live_rows() {
            table.compact_retracted();
        }
    }
    println!(
        "retraction/nba_window_seed{seed}: {expired} iters, mean {:?}, best {best:?}, \
         {:.0} comparisons and {:.0} store reads per expired row",
        total / expired as u32,
        comparisons as f64 / expired as f64,
        store_reads as f64 / expired as f64
    );
}
