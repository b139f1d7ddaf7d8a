//! Edge-case integration tests: degenerate schemas, pathological streams and
//! configuration extremes that the randomized equivalence tests are unlikely
//! to hit densely.
#![allow(
    clippy::unwrap_used,
    reason = "test code: a failed unwrap is a failed test"
)]

use sitfact_core::pair::canonical_sort;
use situational_facts::prelude::*;

fn single_attr_schema() -> Schema {
    SchemaBuilder::new("tiny")
        .dimension("d")
        .measure("m", Direction::HigherIsBetter)
        .build()
        .unwrap()
}

/// With one dimension and one measure the problem degenerates to "is this the
/// best value ever seen (a) overall and (b) for its own dimension value" —
/// easy to reason about by hand.
#[test]
fn single_dimension_single_measure_stream() {
    let schema = single_attr_schema();
    let config = DiscoveryConfig::unrestricted();
    let mut table = Table::new(schema.clone());
    let mut algo = STopDown::new(&schema, config);

    // Values arrive: (a, 5), (b, 7), (a, 6), (a, 4).
    let rows = [("a", 5.0), ("b", 7.0), ("a", 6.0), ("a", 4.0)];
    let mut last_facts = Vec::new();
    for (dim, value) in rows {
        let ids = table.schema_mut().intern_dims(&[dim]).unwrap();
        let t = Tuple::new(ids, vec![value]);
        last_facts = algo.discover(&table, &t);
        table.append(t).unwrap();
    }
    // The last tuple (a, 4) is beaten overall (7) and within d=a (6): no facts.
    assert!(last_facts.is_empty());

    // A record-setting arrival produces both facts (⊤ and d=a).
    let ids = table.schema_mut().intern_dims(&["a"]).unwrap();
    let t = Tuple::new(ids, vec![99.0]);
    let facts = algo.discover(&table, &t);
    assert_eq!(facts.len(), 2);
}

/// Streams where every tuple is identical: everyone stays in every skyline
/// (equal tuples never dominate each other), so every constraint–measure pair
/// is a fact for every arrival.
#[test]
fn identical_tuples_never_dominate_each_other() {
    let schema = SchemaBuilder::new("same")
        .dimension("d0")
        .dimension("d1")
        .measure("m0", Direction::HigherIsBetter)
        .measure("m1", Direction::LowerIsBetter)
        .build()
        .unwrap();
    let config = DiscoveryConfig::unrestricted();
    let mut table = Table::new(schema.clone());
    let mut bottom_up = BottomUp::new(&schema, config);
    let mut top_down = TopDown::new(&schema, config);
    for _ in 0..20 {
        let t = Tuple::new(vec![0, 0], vec![3.0, 3.0]);
        let a = bottom_up.discover(&table, &t);
        let b = top_down.discover(&table, &t);
        // 4 constraints × 3 subspaces.
        assert_eq!(a.len(), 12);
        assert_eq!(b.len(), 12);
        table.append(t).unwrap();
    }
    // BottomUp stores every copy at every cell; TopDown should also keep all
    // 20 copies but only at the single maximal constraint ⊤ per subspace.
    assert_eq!(bottom_up.store_stats().stored_entries, 20 * 12);
    assert_eq!(top_down.store_stats().stored_entries, 20 * 3);
}

/// A strictly improving stream: each arrival dominates all history, so each
/// arrival is a fact everywhere and evicts the previous skyline tuple.
#[test]
fn strictly_improving_stream_keeps_stores_minimal() {
    let schema = SchemaBuilder::new("mono")
        .dimension("d0")
        .measure("m0", Direction::HigherIsBetter)
        .measure("m1", Direction::HigherIsBetter)
        .build()
        .unwrap();
    let config = DiscoveryConfig::unrestricted();
    let mut table = Table::new(schema.clone());
    let mut algo = SBottomUp::new(&schema, config);
    for i in 0..30 {
        let t = Tuple::new(vec![0], vec![i as f64, i as f64]);
        let facts = algo.discover(&table, &t);
        assert_eq!(facts.len(), 2 * 3); // 2 constraints × 3 subspaces
        table.append(t).unwrap();
    }
    // Only the latest tuple remains anywhere: 2 constraints × 3 subspaces.
    assert_eq!(algo.store_stats().stored_entries, 6);
}

/// A strictly worsening stream: after the first tuple, later arrivals only
/// stand out in contexts they newly create (none here, single dimension value).
#[test]
fn strictly_worsening_stream_produces_no_new_facts() {
    let schema = SchemaBuilder::new("down")
        .dimension("d0")
        .measure("m0", Direction::HigherIsBetter)
        .build()
        .unwrap();
    let config = DiscoveryConfig::unrestricted();
    let mut table = Table::new(schema.clone());
    let mut algo = STopDown::new(&schema, config);
    let mut last = Vec::new();
    for i in 0..10 {
        let t = Tuple::new(vec![0], vec![(100 - i) as f64]);
        last = algo.discover(&table, &t);
        table.append(t).unwrap();
    }
    assert!(last.is_empty());
}

/// `d̂ = 1`, `m̂ = 1`: only single-attribute constraints and single measures
/// are reported, yet the shared variants still maintain the full space
/// internally. All algorithms must agree under these caps.
#[test]
fn tightest_caps_still_agree_across_algorithms() {
    use rand::prelude::*;
    let mut rng = StdRng::seed_from_u64(4_040);
    let schema = SchemaBuilder::new("caps")
        .dimension("d0")
        .dimension("d1")
        .dimension("d2")
        .measure("m0", Direction::HigherIsBetter)
        .measure("m1", Direction::LowerIsBetter)
        .measure("m2", Direction::HigherIsBetter)
        .build()
        .unwrap();
    let config = DiscoveryConfig::capped(1, 1);
    let mut table = Table::new(schema.clone());
    let mut reference = BruteForce::new(&schema, config);
    let mut subjects: Vec<Box<dyn Discovery>> = vec![
        Box::new(BaselineSeq::new(&schema, config)),
        Box::new(CCsc::new(&schema, config)),
        Box::new(BottomUp::new(&schema, config)),
        Box::new(TopDown::new(&schema, config)),
        Box::new(SBottomUp::new(&schema, config)),
        Box::new(STopDown::new(&schema, config)),
    ];
    for _ in 0..60 {
        let t = Tuple::new(
            vec![
                rng.gen_range(0..3),
                rng.gen_range(0..3),
                rng.gen_range(0..2),
            ],
            vec![
                rng.gen_range(0..5) as f64,
                rng.gen_range(0..5) as f64,
                rng.gen_range(0..5) as f64,
            ],
        );
        let mut expected = reference.discover(&table, &t);
        canonical_sort(&mut expected);
        assert!(expected
            .iter()
            .all(|f| f.constraint.bound_count() <= 1 && f.subspace.len() == 1));
        for algo in subjects.iter_mut() {
            let mut actual = algo.discover(&table, &t);
            canonical_sort(&mut actual);
            assert_eq!(expected, actual, "{} under caps (1,1)", algo.name());
        }
        table.append(t).unwrap();
    }
}

/// The file-backed store persists across algorithm instances: a restarted
/// monitor sees the skyline state its predecessor wrote.
#[test]
fn file_store_state_survives_restart() {
    let dir = std::env::temp_dir().join(format!("sitfact-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let schema = SchemaBuilder::new("persist")
        .dimension("d0")
        .measure("m0", Direction::HigherIsBetter)
        .build()
        .unwrap();
    let constraint = Constraint::top(1);
    let full = SubspaceMask::full(1);

    {
        let mut store = FileSkylineStore::new(&dir).unwrap();
        let mut row = store.find(constraint.values());
        store.insert(&mut row, constraint.values(), full, 0);
        store.flush();
    }
    // A fresh store over the same directory starts from an empty index by
    // design (see module docs), but the file itself is still on disk; a new
    // monitor therefore starts cleanly without tripping over stale state.
    {
        let mut algo = FsTopDown::with_store(
            &schema,
            DiscoveryConfig::unrestricted(),
            FileSkylineStore::new(&dir).unwrap(),
        );
        let table = Table::new(schema.clone());
        let t = Tuple::new(vec![0], vec![1.0]);
        let facts = algo.discover(&table, &t);
        assert_eq!(facts.len(), 2);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Very wide contexts: many tuples share every dimension value, so contexts
/// grow large while the number of distinct constraints stays tiny. Exercises
/// skyline eviction (BottomUp deletions / TopDown demotions) heavily.
#[test]
fn wide_context_eviction_consistency() {
    use rand::prelude::*;
    let mut rng = StdRng::seed_from_u64(31_415);
    let schema = SchemaBuilder::new("wide")
        .dimension("d0")
        .measure("m0", Direction::HigherIsBetter)
        .measure("m1", Direction::HigherIsBetter)
        .build()
        .unwrap();
    let config = DiscoveryConfig::unrestricted();
    let mut table = Table::new(schema.clone());
    let mut bottom_up = BottomUp::new(&schema, config);
    let mut top_down = TopDown::new(&schema, config);
    for _ in 0..200 {
        let t = Tuple::new(
            vec![0],
            vec![rng.gen_range(0..30) as f64, rng.gen_range(0..30) as f64],
        );
        let mut a = bottom_up.discover(&table, &t);
        let mut b = top_down.discover(&table, &t);
        canonical_sort(&mut a);
        canonical_sort(&mut b);
        assert_eq!(a, b);
        table.append(t).unwrap();
    }
    // Ground truth for the full space on the single context ⊤.
    let dirs = table.schema().directions().to_vec();
    let expected =
        sitfact_core::dominance::skyline_of(table.iter(), SubspaceMask::full(2), &dirs).len();
    let mut check_bu = bottom_up;
    assert_eq!(
        check_bu.skyline_cardinality(&table, &Constraint::top(1), SubspaceMask::full(2)),
        expected
    );
    let mut check_td = top_down;
    assert_eq!(
        check_td.skyline_cardinality(&table, &Constraint::top(1), SubspaceMask::full(2)),
        expected
    );
}

/// Prominence monitoring with τ = 1 surfaces something for every arrival that
/// enters any contextual skyline at all (prominence is always ≥ 1, so the
/// threshold never filters), an arrival dominated in every context reports
/// nothing, and keep_top never drops prominent facts.
#[test]
fn monitor_with_minimal_threshold_always_reports() {
    let schema = single_attr_schema();
    let algo = SBottomUp::new(&schema, DiscoveryConfig::unrestricted());
    let mut monitor = FactMonitor::new(
        schema,
        algo,
        MonitorConfig::default().with_tau(1.0).with_keep_top(1),
    );
    let (mut with_facts, mut dominated) = (0, 0);
    for i in 0..25 {
        let report = monitor
            .ingest_raw(&[if i % 2 == 0 { "a" } else { "b" }], vec![(i % 7) as f64])
            .unwrap();
        if report.facts.is_empty() {
            // Dominated in both its contexts (⊤ and its own dimension value):
            // nothing to report, prominent or otherwise.
            assert_eq!(report.prominent_count, 0);
            dominated += 1;
        } else {
            assert!(report.prominent_count >= 1);
            assert!(report.facts.len() >= report.prominent_count);
            with_facts += 1;
        }
    }
    // The cycling stream exercises both outcomes: record-setters near the top
    // of each 0..7 cycle, dominated arrivals near its bottom.
    assert!(with_facts > 0, "stream never produced a fact");
    assert!(dominated > 0, "stream never produced a dominated arrival");
}
