//! The `StreamMonitor` trait-object contract: one generic driver feeds both
//! monitor types through `Box<dyn StreamMonitor>`, and every provided method
//! (`ingest_raw`, `ingest_batch`, `ingest_all`) agrees with the required
//! core, sharded or not.
#![allow(
    clippy::unwrap_used,
    reason = "test code: a failed unwrap is a failed test"
)]

use rand::prelude::*;
use situational_facts::prelude::*;

fn schema() -> Schema {
    SchemaBuilder::new("gamelog")
        .dimension("player")
        .dimension("team")
        .measure("points", Direction::HigherIsBetter)
        .measure("assists", Direction::HigherIsBetter)
        .build()
        .unwrap()
}

/// Both monitor shapes behind the same trait object, on the *same anchored
/// config* (the space over which sharded ≡ unsharded is provable).
fn monitors() -> Vec<(&'static str, Box<dyn StreamMonitor>)> {
    let schema = schema();
    let config = MonitorConfig::default()
        .with_tau(1.0)
        .with_keep_top(8)
        .with_discovery(DiscoveryConfig::unrestricted().with_anchor(1));
    let flat: Box<dyn StreamMonitor> = Box::new(FactMonitor::new(
        schema.clone(),
        STopDown::new(&schema, config.discovery),
        config,
    ));
    let sharded: Box<dyn StreamMonitor> =
        Box::new(ShardedMonitor::by_attribute(schema, "team", 3, config, STopDown::new).unwrap());
    vec![("FactMonitor", flat), ("ShardedMonitor", sharded)]
}

fn raw_rows(n: usize, seed: u64) -> Vec<(Vec<String>, Vec<f64>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (
                vec![
                    format!("P{}", rng.gen_range(0..5u32)),
                    format!("T{}", rng.gen_range(0..3u32)),
                ],
                vec![rng.gen_range(0..7) as f64, rng.gen_range(0..7) as f64],
            )
        })
        .collect()
}

/// The generic driver of this test file: everything it does is expressed
/// against `dyn StreamMonitor`, so it cannot know (or care) which monitor
/// shape it is feeding.
fn drive(monitor: &mut dyn StreamMonitor, rows: &[(Vec<String>, Vec<f64>)]) -> Vec<ArrivalReport> {
    assert!(monitor.is_empty());
    let mut reports = Vec::new();
    // A few per-arrival raw ingests …
    for (dims, measures) in &rows[..3] {
        let dims: Vec<&str> = dims.iter().map(String::as_str).collect();
        reports.push(monitor.ingest_raw(&dims, measures.clone()).unwrap());
    }
    // … then pre-encoded batched windows.
    for window in rows[3..].chunks(9) {
        let window: Vec<Tuple> = window
            .iter()
            .map(|(dims, measures)| {
                let dims: Vec<&str> = dims.iter().map(String::as_str).collect();
                monitor.encode_raw(&dims, measures.clone()).unwrap()
            })
            .collect();
        reports.extend(monitor.ingest_batch(window).unwrap());
    }
    assert_eq!(monitor.len(), rows.len());
    reports
}

#[test]
fn trait_object_drives_both_monitor_types_identically() {
    let rows = raw_rows(30, 17);
    let mut transcripts = Vec::new();
    for (name, mut monitor) in monitors() {
        let reports = drive(monitor.as_mut(), &rows);
        assert_eq!(reports.len(), rows.len(), "{name}: one report per arrival");
        // Reports expose their tuples back through the trait.
        for report in &reports {
            assert!(monitor.tuple(report.tuple_id).is_some(), "{name}");
        }
        assert!(monitor.tuple(rows.len() as TupleId).is_none(), "{name}");
        assert_eq!(monitor.config().discovery.anchor_dim, Some(1), "{name}");
        transcripts.push(reports);
    }
    // Same anchored config, same stream ⇒ the sharded transcript is
    // byte-identical to the unsharded one — through the trait object, too.
    assert_eq!(transcripts[0], transcripts[1]);
}

#[test]
fn ingest_all_is_the_sequential_ground_truth_for_both_types() {
    let rows = raw_rows(24, 91);
    for (name, mut monitor) in monitors() {
        // Encode through the same monitor that will ingest (interning is
        // deterministic in arrival order, so a second identically-configured
        // monitor sees the same ids).
        let tuples: Vec<Tuple> = rows
            .iter()
            .map(|(dims, measures)| {
                let dims: Vec<&str> = dims.iter().map(String::as_str).collect();
                monitor.encode_raw(&dims, measures.clone()).unwrap()
            })
            .collect();
        let sequential = monitor.ingest_all(tuples.clone()).unwrap();
        assert_eq!(sequential.len(), rows.len(), "{name}");

        let (_, mut batched) = monitors()
            .into_iter()
            .find(|(n, _)| *n == name)
            .expect("same shape again");
        let tuples2: Vec<Tuple> = rows
            .iter()
            .map(|(dims, measures)| {
                let dims: Vec<&str> = dims.iter().map(String::as_str).collect();
                batched.encode_raw(&dims, measures.clone()).unwrap()
            })
            .collect();
        assert_eq!(tuples, tuples2, "{name}: interning is deterministic");
        let fast = batched.ingest_batch(tuples2).unwrap();
        // ingest_all (per-arrival loop) ≡ ingest_batch (fast path), exactly.
        assert_eq!(sequential, fast, "{name}");
    }
}

#[test]
fn ingest_all_propagates_errors_at_the_failing_tuple() {
    let (_, mut monitor) = monitors().into_iter().next().unwrap();
    let good = monitor.encode_raw(&["P0", "T0"], vec![1.0, 2.0]).unwrap();
    let bad = Tuple::new(vec![0], vec![1.0, 2.0]); // wrong arity
    let result = monitor.ingest_all(vec![good, bad]);
    assert!(result.is_err());
    // Sequential semantics: tuples before the failure were ingested.
    assert_eq!(monitor.len(), 1);
}
