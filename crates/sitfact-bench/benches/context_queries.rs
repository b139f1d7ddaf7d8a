//! Criterion micro-benchmark of context retrieval: the naive predicate scan
//! (`Table::context_scan`) against the inverted posting-list intersection
//! (`Table::context`), on the synthetic NBA workload.
//!
//! The indexed path is what every `table.context(...)` call in the discovery
//! algorithms now takes; the scan leg is kept as the before/after baseline so
//! a regression in the index shows up as the two legs converging.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sitfact_bench::{generate_rows, DatasetKind, ExperimentParams};
use sitfact_core::{Constraint, Tuple};
use sitfact_storage::Table;

const ROWS: usize = 20_000;

/// NBA-scale table plus a mix of constraints drawn from real rows: one bound
/// attribute (player), two bound attributes (player ∧ team) and the top
/// constraint.
fn fixture() -> (Table, Vec<(&'static str, Constraint)>) {
    let params = ExperimentParams {
        d: 5,
        m: 4,
        d_hat: 3,
        m_hat: 3,
        n: ROWS,
        sample_points: 1,
        seed: 42,
    };
    let (schema, rows) = generate_rows(DatasetKind::Nba, &params);
    let mut table = Table::with_capacity(schema, ROWS);
    for row in &rows {
        let ids = table.schema_mut().intern_dims(&row.dims).unwrap();
        table.append(Tuple::new(ids, row.measures.clone())).unwrap();
    }
    let probe = table.tuple((ROWS / 2) as u32);
    let n_dims = probe.num_dims();
    let one = Constraint::from_tuple_mask(probe, sitfact_core::BoundMask::from_indices([0]));
    let two = Constraint::from_tuple_mask(probe, sitfact_core::BoundMask::from_indices([0, 3]));
    let constraints = vec![
        ("player", one),
        ("player_and_team", two),
        ("top", Constraint::top(n_dims)),
    ];
    (table, constraints)
}

fn bench_context(c: &mut Criterion) {
    let (table, constraints) = fixture();
    let mut group = c.benchmark_group("context_retrieval");
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_secs(2));
    for (name, constraint) in &constraints {
        group.bench_with_input(
            BenchmarkId::new("context_scan", name),
            constraint,
            |b, c| b.iter(|| black_box(table.context_scan(c).count())),
        );
        group.bench_with_input(
            BenchmarkId::new("context_indexed", name),
            constraint,
            |b, c| b.iter(|| black_box(table.context(c).count())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_context);
criterion_main!(benches);
