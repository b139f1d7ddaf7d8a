//! The served monitor contract: one driver feeds both arms of [`Served`]
//! (unsharded and sharded), batch and sequential ingest agree on each, and
//! a sequential loop stops at the failing tuple.
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

/// Both arms of the served type, on the *same anchored config* (the space
/// over which sharded ≡ unsharded is provable).
fn monitors() -> Vec<(&'static str, Served)> {
    let schema = schema();
    let config = MonitorConfig::default()
        .with_tau(1.0)
        .with_keep_top(8)
        .with_discovery(DiscoveryConfig::unrestricted().with_anchor(1));
    let flat = FactMonitor::new(
        schema.clone(),
        STopDown::new(&schema, config.discovery),
        config,
    );
    let sharded = ShardedMonitor::by_attribute(schema, "team", 3, config, STopDown::new).unwrap();
    vec![
        ("FactMonitor", flat.into()),
        ("ShardedMonitor", sharded.into()),
    ]
}

fn raw_rows(n: usize, seed: u64) -> Vec<RawRow> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            RawRow::new(
                &[
                    format!("P{}", rng.gen_range(0..5u32)),
                    format!("T{}", rng.gen_range(0..3u32)),
                ],
                &[rng.gen_range(0..7) as f64, rng.gen_range(0..7) as f64],
            )
        })
        .collect()
}

fn encode(monitor: &mut Served, rows: &[RawRow]) -> Vec<Tuple> {
    monitor.encode_rows(rows).unwrap()
}

/// One window of one per tuple, stopping at the first error: the
/// sequential ground truth.
fn ingest_one_by_one(
    monitor: &mut Served,
    tuples: Vec<Tuple>,
) -> Result<Vec<ArrivalReport>, situational_facts::core::SitFactError> {
    let mut reports = Vec::with_capacity(tuples.len());
    for tuple in tuples {
        reports.extend(monitor.ingest_batch_slice(&[tuple])?);
    }
    Ok(reports)
}

/// Whether the monitor resolves `id` to a live tuple.
fn resolves(monitor: &Served, id: TupleId) -> bool {
    match monitor {
        Served::Plain(m) => m.tuple(id).is_some(),
        Served::Sharded(m) => m.tuple(id).is_some(),
    }
}

/// The driver of this test file: it goes through `Served` alone, so it
/// cannot know (or care) which arm it is feeding.
fn drive(monitor: &mut Served, rows: &[RawRow]) -> Vec<ArrivalReport> {
    assert!(monitor.is_empty());
    let mut reports = Vec::new();
    // A few windows of one …
    for row in &rows[..3] {
        let window = encode(monitor, std::slice::from_ref(row));
        reports.extend(monitor.ingest_batch_slice(&window).unwrap());
    }
    // … then pre-encoded batched windows.
    for window in rows[3..].chunks(9) {
        let window = encode(monitor, window);
        reports.extend(monitor.ingest_batch_slice(&window).unwrap());
    }
    assert_eq!(monitor.len(), rows.len());
    reports
}

#[test]
fn trait_object_drives_both_monitor_types_identically() {
    let rows = raw_rows(30, 17);
    let mut transcripts = Vec::new();
    for (name, mut monitor) in monitors() {
        let reports = drive(&mut monitor, &rows);
        assert_eq!(reports.len(), rows.len(), "{name}: one report per arrival");
        // Reports name tuples the monitor resolves.
        for report in &reports {
            assert!(resolves(&monitor, report.tuple_id), "{name}");
        }
        assert!(!resolves(&monitor, rows.len() as TupleId), "{name}");
        assert_eq!(monitor.stats().anchor_dim, Some(1), "{name}");
        transcripts.push(reports);
    }
    // Same anchored config, same stream ⇒ the sharded transcript is
    // byte-identical to the unsharded one.
    assert_eq!(transcripts[0], transcripts[1]);
}

#[test]
fn ingest_all_is_the_sequential_ground_truth_for_both_types() {
    let rows = raw_rows(24, 91);
    for (name, mut monitor) in monitors() {
        // Encode through the same monitor that will ingest (interning is
        // deterministic in arrival order, so a second identically-configured
        // monitor sees the same ids).
        let tuples = encode(&mut monitor, &rows);
        let sequential = ingest_one_by_one(&mut monitor, tuples.clone()).unwrap();
        assert_eq!(sequential.len(), rows.len(), "{name}");

        let (_, mut batched) = monitors()
            .into_iter()
            .find(|(n, _)| *n == name)
            .expect("same shape again");
        let tuples2 = encode(&mut batched, &rows);
        assert_eq!(tuples, tuples2, "{name}: interning is deterministic");
        let fast = batched.ingest_batch_slice(&tuples2).unwrap();
        // The per-arrival loop ≡ the batched fast path, exactly.
        assert_eq!(sequential, fast, "{name}");
    }
}

#[test]
fn ingest_all_propagates_errors_at_the_failing_tuple() {
    let (_, mut monitor) = monitors().into_iter().next().unwrap();
    let good = encode(&mut monitor, &[RawRow::new(&["P0", "T0"], &[1.0, 2.0])]).remove(0);
    let bad = Tuple::new(vec![0], vec![1.0, 2.0]); // wrong arity
    let result = ingest_one_by_one(&mut monitor, vec![good, bad]);
    assert!(result.is_err());
    // Sequential semantics: tuples before the failure were ingested.
    assert_eq!(monitor.len(), 1);
}
