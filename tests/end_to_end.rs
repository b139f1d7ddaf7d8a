//! End-to-end integration tests: schema → generator → monitor → ranked facts,
//! exercising every crate of the workspace together.

use situational_facts::datagen::nba::{NbaConfig, NbaGenerator};
use situational_facts::datagen::{csv, DataGenerator};
use situational_facts::prelude::*;

fn nba_generator(seed: u64) -> NbaGenerator {
    NbaGenerator::new(NbaConfig {
        dimensions: 5,
        measures: 5,
        players: 60,
        teams: 8,
        seasons: 3,
        games_per_season: 500,
        seed,
    })
}

#[test]
fn monitor_reports_are_internally_consistent() {
    let mut generator = nba_generator(1);
    let schema = generator.schema().clone();
    let discovery = DiscoveryConfig::capped(3, 3);
    let algo = SBottomUp::new(&schema, discovery);
    let mut monitor = FactMonitor::new(
        schema,
        algo,
        MonitorConfig::default()
            .with_discovery(discovery)
            .with_tau(5.0),
    );
    let mut distribution = DistributionStats::new(100, 3, 3);

    for _ in 0..1_200 {
        let row = generator.next_row();
        let dims: Vec<&str> = row.dims.iter().map(String::as_str).collect();
        let report = monitor.ingest_raw(&dims, row.measures.clone()).unwrap();
        distribution.record(&report);

        // Ranked in non-increasing prominence.
        for window in report.facts.windows(2) {
            assert!(window[0].prominence() >= window[1].prominence() - 1e-9);
        }
        for fact in &report.facts {
            // The new tuple itself is in every reported skyline, so the ratio
            // is well defined and at least 1.
            assert!(fact.skyline_size >= 1);
            assert!(fact.context_size >= fact.skyline_size);
            assert!(fact.prominence() >= 1.0);
            // The d̂ / m̂ caps hold.
            assert!(fact.pair.constraint.bound_count() <= 3);
            assert!((1..=3).contains(&fact.pair.subspace.len()));
        }
        // Prominent facts all reach τ and the maximum.
        if let Some(max) = report.max_prominence() {
            for fact in report.prominent() {
                assert!(fact.prominence() >= 5.0);
                assert!((fact.prominence() - max).abs() < 1e-9);
            }
        } else {
            assert_eq!(report.prominent_count, 0);
        }
    }

    assert_eq!(distribution.tuples_seen, 1_200);
    assert_eq!(monitor.table().len(), 1_200);
    // The stream is long enough that at least some prominent facts appear.
    assert!(distribution.total_prominent > 0);
    // Fig. 15a's shape: no prominent fact binds more attributes than d̂.
    assert!(distribution.by_bound.len() == 4);
    // Work was actually done and recorded.
    let work = monitor.algorithm().work_stats();
    assert!(work.comparisons > 0 && work.traversed_constraints > 0);
}

#[test]
fn context_counter_and_table_agree_after_streaming() {
    let mut generator = nba_generator(2);
    let schema = generator.schema().clone();
    let mut counter = ContextCounter::new(schema.num_dimensions(), 3);
    let mut table = Table::new(schema);
    for _ in 0..800 {
        let row = generator.next_row();
        let dims: Vec<&str> = row.dims.iter().map(String::as_str).collect();
        let id = table.append_raw(&dims, row.measures.clone()).unwrap();
        counter.observe(table.tuple(id));
    }
    // Cross-check the incremental counts against scans for a sample of
    // constraints drawn from actual tuples.
    let lattice = ConstraintLattice::new(table.schema().num_dimensions(), 3);
    for sample_id in [0u32, 250, 500, 799] {
        let tuple = table.tuple(sample_id);
        for mask in lattice.enumerate_top_down().into_iter().step_by(7) {
            let constraint = Constraint::from_tuple_mask(tuple, mask);
            assert_eq!(
                counter.cardinality(&constraint),
                table.context(&constraint).count() as u64,
                "constraint {constraint:?}"
            );
        }
    }
}

#[test]
fn csv_round_trip_preserves_discovery_results() {
    let mut generator = nba_generator(3);
    let table = generator.table_of(300).unwrap();
    let path = std::env::temp_dir().join(format!("sitfact-e2e-{}.csv", std::process::id()));
    csv::write_csv(&table, &path).unwrap();
    let reloaded = csv::read_csv(&nba_generator(3).schema().clone(), &path).unwrap();
    assert_eq!(reloaded.len(), table.len());

    // Discovering the same new tuple against both tables yields the same facts.
    let config = DiscoveryConfig::capped(3, 3);
    let mut on_original = BruteForce::new(table.schema(), config);
    let mut on_reloaded = BruteForce::new(reloaded.schema(), config);
    let probe = table.tuple(120).to_tuple();
    let mut a = on_original.discover(&table, &probe);
    let mut b = on_reloaded.discover(&reloaded, &probe);
    sitfact_core::pair::canonical_sort(&mut a);
    sitfact_core::pair::canonical_sort(&mut b);
    assert_eq!(a.len(), b.len());
    // Constraint value ids can differ between dictionaries; compare rendered
    // forms, which are id-independent.
    let rendered = |facts: &[SkylinePair], schema: &Schema| -> Vec<String> {
        let mut v: Vec<String> = facts.iter().map(|f| f.display(schema)).collect();
        v.sort();
        v
    };
    assert_eq!(
        rendered(&a, table.schema()),
        rendered(&b, reloaded.schema())
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn file_backed_monitor_survives_many_tuples() {
    let mut generator = nba_generator(4);
    let schema = generator.schema().clone();
    let discovery = DiscoveryConfig::capped(2, 2);
    let dir = std::env::temp_dir().join(format!("sitfact-e2e-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FileSkylineStore::new(&dir).unwrap();
    let algo = FsTopDown::with_store(&schema, discovery, store);
    let mut monitor = FactMonitor::new(
        schema,
        algo,
        MonitorConfig::default()
            .with_discovery(discovery)
            .with_tau(10.0),
    );
    for _ in 0..400 {
        let row = generator.next_row();
        let dims: Vec<&str> = row.dims.iter().map(String::as_str).collect();
        let report = monitor.ingest_raw(&dims, row.measures.clone()).unwrap();
        assert!(report.facts.iter().all(|f| f.prominence() >= 1.0));
    }
    let stats = monitor.algorithm().store_stats();
    assert!(stats.stored_entries > 0);
    assert!(stats.file_writes > 0);
    drop(monitor);
    let _ = std::fs::remove_dir_all(&dir);
}
