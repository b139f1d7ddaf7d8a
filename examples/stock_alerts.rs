//! Situational facts over a stock-tick stream — "stock A becomes the first
//! stock in history with price over $300 and market cap over $400B" (the
//! paper's introduction, example 1) — and a demonstration of the file-backed
//! skyline store for long-running monitors.
//!
//! Run with `cargo run --release --example stock_alerts [-- n_ticks]`.

use situational_facts::datagen::stocks::{StockConfig, StockGenerator};
use situational_facts::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(10_000);

    let mut generator = StockGenerator::new(StockConfig {
        tickers: 150,
        ticks_per_day: 150,
        seed: 1987,
    });
    let schema = generator.schema().clone();
    let discovery = DiscoveryConfig::capped(2, 3);

    // Long-running monitors can spill the skyline cells to disk: FSTopDown is
    // STopDown over the file-backed store (Section VI-C of the paper).
    let store_dir = std::env::temp_dir().join("sitfact-stock-alerts-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = FileSkylineStore::new(&store_dir)?;
    let algo = FsTopDown::with_store(&schema, discovery, store);

    let mut monitor = FactMonitor::new(
        schema,
        algo,
        MonitorConfig::default()
            .with_discovery(discovery)
            .with_tau(75.0)
            .with_keep_top(4),
    );

    println!("processing {n} ticks with a file-backed skyline store …\n");
    let mut alerts = 0usize;
    for _ in 0..n {
        let row = generator.next_row();
        let report = monitor.ingest_raw(&row.dims, row.measures.clone())?;
        if report.prominent_count > 0 && alerts < 12 {
            alerts += 1;
            let schema = monitor.table().schema();
            let tuple = monitor.table().tuple(report.tuple_id);
            let ticker = schema.resolve_dim(0, tuple.dim(0)).unwrap_or("?");
            let sector = schema.resolve_dim(1, tuple.dim(1)).unwrap_or("?");
            println!("📈 {ticker} ({sector}) sets a record:");
            for fact in report.prominent().iter().take(1) {
                println!("    {}", narrate(schema, tuple, fact));
            }
        }
    }

    let store_stats = monitor.algorithm().store_stats();
    println!("\n=== store summary (file-backed) ===");
    println!("skyline entries stored: {}", store_stats.stored_entries);
    println!("non-empty (C, M) cells: {}", store_stats.non_empty_cells);
    println!(
        "file reads / writes:    {} / {}",
        store_stats.file_reads, store_stats.file_writes
    );
    let _ = std::fs::remove_dir_all(&store_dir);
    Ok(())
}
