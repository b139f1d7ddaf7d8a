//! The paper's deployment story as a running program: a news organisation's
//! box-score feed on one side of a TCP connection, the fact monitor on the
//! other. The server end holds one [`Served`] monitor — pass a shard count
//! as the second argument and the *same* server code serves a team-routed
//! [`ShardedMonitor`] instead of a flat [`FactMonitor`]; nothing but monitor
//! construction changes.
//!
//! Run with `cargo run --release --example serve_nba [-- n_tuples shards]`.
#![allow(
    clippy::expect_used,
    clippy::disallowed_methods,
    reason = "a demo program: it serves from a plain thread and stops on a broken run"
)]

use situational_facts::datagen::nba::{NbaConfig, NbaGenerator};
use situational_facts::datagen::DataGenerator;
use situational_facts::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2_000);
    let shards: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0);

    let mut generator = NbaGenerator::new(NbaConfig {
        dimensions: 5,
        measures: 4,
        players: 200,
        seasons: 3,
        games_per_season: n / 3 + 1,
        seed: 7,
        ..NbaConfig::default()
    });
    let schema = generator.schema().clone();
    let discovery = DiscoveryConfig::capped(3, 3);
    let config = MonitorConfig::default()
        .with_discovery(discovery)
        .with_tau(50.0)
        .with_keep_top(8);

    // The only sharded-vs-flat branch in the whole program.
    let monitor: Served = if shards == 0 {
        FactMonitor::new(schema.clone(), STopDown::new(&schema, discovery), config).into()
    } else {
        ShardedMonitor::by_attribute(schema, "team", shards, config, STopDown::new)?.into()
    };

    let server = FactServer::bind("127.0.0.1:0", monitor)?;
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run());
    println!(
        "serving a {} monitor on {addr}; streaming {n} box scores …\n",
        if shards == 0 {
            "flat".to_string()
        } else {
            format!("{shards}-shard team-routed")
        }
    );

    let mut client = Client::connect(addr)?;
    client.ping()?;
    const WINDOW: usize = 128;
    let mut ingested = 0usize;
    let mut total_facts = 0usize;
    let mut prominent_games = 0usize;
    while ingested < n {
        let window: Vec<RawRow> = (0..WINDOW.min(n - ingested))
            .map(|_| generator.next_row())
            .collect();
        ingested += window.len();
        for report in client.ingest_batch(window)? {
            total_facts += report.facts.len();
            if report.prominent_count > 0 {
                prominent_games += 1;
                if prominent_games <= 10 {
                    println!(
                        "game #{}: {} prominent fact(s), max prominence {:.1}",
                        report.tuple_id,
                        report.prominent_count,
                        report.max_prominence().unwrap_or(0.0)
                    );
                }
            }
        }
    }

    let stats = client.stats()?;
    let top = client.top_k(3)?;
    println!("\n=== summary (over the wire) ===");
    println!("server len:           {}", stats.len);
    println!("schema:               {}", stats.schema);
    println!("anchored dimension:   {:?}", stats.anchor_dim);
    println!("facts received:       {total_facts}");
    println!("prominent games:      {prominent_games}");
    println!("last arrival's top-3: {} facts", top.facts.len());

    client.shutdown()?;
    server_thread.join().expect("server thread")?;
    Ok(())
}
