//! Streaming discovery over a synthetic NBA season through a **sharded**
//! monitor: box scores are routed by team across independent `FactMonitor`
//! shards, and each window is fanned out to the shards in parallel.
//!
//! Routing soundness: sharding by team anchors the constraint space on the
//! `team` attribute — every reported fact is of the form "… within team X
//! games …", and for those facts the merged reports are provably identical
//! to an unsharded monitor (the example spot-checks this against a reference
//! monitor on the first windows). League-wide facts (team unbound) are
//! outside the sharded space by construction; serve those unsharded.
//!
//! Run with `cargo run --release --example nba_sharded [-- n_tuples shards tau]`.
#![allow(
    clippy::expect_used,
    clippy::disallowed_methods,
    reason = "a demo program: it times its own run and stops on a broken one"
)]

use situational_facts::datagen::nba::{NbaConfig, NbaGenerator};
use situational_facts::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(12_000);
    let shards: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let tau: f64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(50.0);

    let mut generator = NbaGenerator::new(NbaConfig {
        dimensions: 5,
        measures: 4,
        players: 400,
        seasons: 6,
        games_per_season: n / 6 + 1,
        seed: 7,
        ..NbaConfig::default()
    });
    let schema = generator.schema().clone();
    let config = MonitorConfig::default()
        .with_discovery(DiscoveryConfig::capped(3, 3))
        .with_tau(tau);
    // The config is auto-anchored on `team` — the routing attribute must be
    // bound in every reported fact for sharding to be sound.
    let mut monitor =
        ShardedMonitor::by_attribute(schema.clone(), "team", shards, config, STopDown::new)?;
    // Unsharded reference running the same anchored config, for the
    // equivalence spot-check on the first windows.
    let anchored = *monitor.config();
    let mut reference = FactMonitor::new(
        schema.clone(),
        STopDown::new(&schema, anchored.discovery),
        anchored,
    );

    const WINDOW: usize = 512;
    const CHECK_WINDOWS: usize = 4;
    println!(
        "streaming {n} synthetic box scores through {shards} team-routed shards \
         (τ = {tau}, windows of {WINDOW}) …\n"
    );
    let start = std::time::Instant::now();
    let mut prominent_games = 0usize;
    let mut total_prominent = 0usize;
    let mut ingested = 0usize;
    let mut windows_seen = 0usize;
    while ingested < n {
        let window: Vec<Tuple> = (0..WINDOW.min(n - ingested))
            .map(|_| {
                let row = generator.next_row();
                let dims: Vec<&str> = row.dims.iter().map(String::as_str).collect();
                monitor.encode_raw(&dims, row.measures.clone())
            })
            .collect::<Result<_, _>>()?;
        ingested += window.len();
        windows_seen += 1;
        let reports = monitor.ingest_batch_slice(&window)?;
        if windows_seen <= CHECK_WINDOWS {
            // Sharded ≡ unsharded over the anchored constraint space —
            // byte-identical, order included.
            let expected = reference.ingest_batch_slice(&window)?;
            assert_eq!(
                reports, expected,
                "sharded reports drifted from the unsharded monitor"
            );
        }
        for report in &reports {
            total_prominent += report.prominent_count;
            if report.prominent_count > 0 && prominent_games < 20 {
                prominent_games += 1;
                let schema = monitor.schema();
                let tuple = monitor.tuple(report.tuple_id).expect("ingested tuple");
                let (shard, _) = monitor.locate(report.tuple_id).expect("ingested tuple");
                let player = schema.resolve_dim(0, tuple.dim(0)).unwrap_or("?");
                println!("game #{} (shard {shard}): {player}", report.tuple_id);
                for fact in report.prominent().iter().take(2) {
                    println!("    {}", narrate(schema, tuple, fact));
                }
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();

    println!("\n=== summary ===");
    println!("tuples processed:        {}", monitor.len());
    println!("shards:                  {shards} (routed by team)");
    for (i, shard) in monitor.shards().iter().enumerate() {
        println!("  shard {i}: {:>6} tuples", shard.table().len());
    }
    println!("prominent facts total:   {total_prominent}");
    println!(
        "window-ingest throughput: {:.0} rows/sec ({:.2}s total)",
        monitor.len() as f64 / elapsed.max(1e-9),
        elapsed
    );
    println!(
        "equivalence spot-check:  first {CHECK_WINDOWS} windows matched the unsharded monitor"
    );
    Ok(())
}
