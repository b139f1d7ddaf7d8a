//! Monitoring a stream of weather forecasts for extreme-condition facts —
//! "city B has never encountered such high wind speed and humidity in March"
//! (the paper's introduction, example 2).
//!
//! Run with `cargo run --release --example weather_watch [-- n_tuples]`.

use situational_facts::datagen::weather::{WeatherConfig, WeatherGenerator};
use situational_facts::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(15_000);

    let mut generator = WeatherGenerator::new(WeatherConfig {
        dimensions: 5,
        measures: 4, // wind day/night, temperature day/night
        locations: 250,
        records_per_day: 250,
        seed: 2012,
    });
    let schema = generator.schema().clone();
    let discovery = DiscoveryConfig::capped(2, 2);
    let algo = STopDown::new(&schema, discovery);
    let mut monitor = FactMonitor::new(
        schema,
        algo,
        MonitorConfig::default()
            .with_discovery(discovery)
            .with_tau(50.0)
            .with_keep_top(4),
    );

    println!("watching {n} forecasts for record-setting conditions …\n");
    let mut alerts = 0usize;
    for _ in 0..n {
        let row = generator.next_row();
        let report = monitor.ingest_raw(&row.dims, row.measures.clone())?;
        if report.prominent_count > 0 && alerts < 15 {
            alerts += 1;
            let schema = monitor.table().schema();
            let tuple = monitor.table().tuple(report.tuple_id);
            let location = schema.resolve_dim(0, tuple.dim(0)).unwrap_or("?");
            let month = schema.resolve_dim(2, tuple.dim(2)).unwrap_or("?");
            println!("⚠ record conditions at {location} in {month}:");
            for fact in report.prominent().iter().take(2) {
                println!("    {}", narrate(schema, tuple, fact));
            }
        }
    }
    println!(
        "\nprocessed {} forecasts, raised {alerts} alerts (capped at 15 shown)",
        n
    );

    let stats = monitor.algorithm().work_stats();
    println!(
        "algorithm work: {} comparisons, {} constraints traversed",
        stats.comparisons, stats.traversed_constraints
    );
    Ok(())
}
