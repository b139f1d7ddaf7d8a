//! Streaming discovery over a synthetic NBA season, in the style of the
//! paper's case study (Section VII): report each game that produces a
//! prominent fact, narrated in English. Box scores arrive in windows (a
//! night's worth of games at a time) and are ingested through the batched
//! fast path — `FactMonitor::ingest_batch` appends each window once and
//! still reports every game against exactly the games that preceded it.
//!
//! Run with `cargo run --release --example nba_live_facts [-- n_tuples tau]`.

use situational_facts::datagen::encode_row;
use situational_facts::datagen::nba::{NbaConfig, NbaGenerator};
use situational_facts::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let tau: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(100.0);

    // The paper's case-study setting: d = 5, m = 7, d̂ = 3, m̂ = 3.
    let mut generator = NbaGenerator::new(NbaConfig {
        dimensions: 5,
        measures: 7,
        players: 400,
        seasons: 6,
        games_per_season: n / 6 + 1,
        seed: 7,
        ..NbaConfig::default()
    });
    let schema = generator.schema().clone();
    let discovery = DiscoveryConfig::capped(3, 3);
    let algo = SBottomUp::new(&schema, discovery);
    let config = MonitorConfig::default()
        .with_discovery(discovery)
        .with_tau(tau)
        .with_keep_top(8);
    let mut monitor = FactMonitor::new(schema, algo, config);
    let mut distribution = DistributionStats::new(1_000, 3, 3);

    const WINDOW: usize = 256;
    println!("streaming {n} synthetic box scores (τ = {tau}, windows of {WINDOW}) …\n");
    let mut prominent_games = 0usize;
    let mut ingested = 0usize;
    while ingested < n {
        // A window of arrivals, encoded against the monitor's schema …
        let window: Vec<Tuple> = (0..WINDOW.min(n - ingested))
            .map(|_| {
                let row = generator.next_row();
                let dims: Vec<&str> = row.dims.iter().map(String::as_str).collect();
                monitor.encode_raw(&dims, row.measures.clone())
            })
            .collect::<Result<_, _>>()?;
        ingested += window.len();
        // … ingested in one amortised batch: one report per game, each
        // ranked against its true prefix.
        for report in monitor.ingest_batch_slice(&window)? {
            distribution.record(&report);
            if report.prominent_count > 0 && prominent_games < 25 {
                prominent_games += 1;
                let schema = monitor.table().schema();
                let tuple = monitor.table().tuple(report.tuple_id);
                let player = schema
                    .resolve_dim(0, tuple.dim(0))
                    .unwrap_or("?")
                    .to_string();
                println!("game #{}: {player}", report.tuple_id);
                for fact in report.prominent().iter().take(2) {
                    println!("    {}", narrate(schema, tuple, fact));
                }
            }
        }
    }

    println!("\n=== summary ===");
    println!("tuples processed:        {}", distribution.tuples_seen);
    println!("prominent facts total:   {}", distribution.total_prominent);
    println!(
        "prominent facts / 1K:    {:.1}",
        distribution.mean_per_window()
    );
    println!("by bound(C):             {:?}", distribution.by_bound);
    println!(
        "by |M|:                  {:?}",
        distribution.by_measure_dims
    );

    // Ensure unused helper does not bit-rot: encode_row is the lower-level
    // path examples can use when they keep their own Table.
    let mut scratch = Table::new(generator.schema().clone());
    let _ = encode_row(&mut scratch, &generator.next_row())?;
    Ok(())
}
