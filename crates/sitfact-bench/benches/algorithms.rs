//! Criterion micro-benchmarks: per-tuple discovery latency of each algorithm
//! against a warm history, on the synthetic NBA workload (d=5, m=4, d̂=4).
//!
//! These complement the figure binaries: Criterion gives statistically robust
//! per-call timings for the steady state, while the binaries chart growth
//! along the stream.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sitfact_algos::{
    AlgorithmKind, BaselineIdx, BaselineSeq, BottomUp, CCsc, Discovery, SBottomUp, STopDown,
    TopDown,
};
use sitfact_bench::{generate_rows, DatasetKind, ExperimentParams};
use sitfact_core::{DiscoveryConfig, RawRow, Schema, Tuple};
use sitfact_storage::Table;

const HISTORY: usize = 2_000;
const PROBES: usize = 32;

struct Fixture {
    schema: Schema,
    table: Table,
    probes: Vec<Tuple>,
    discovery: DiscoveryConfig,
}

fn fixture() -> Fixture {
    let params = ExperimentParams {
        d: 5,
        m: 4,
        d_hat: 4,
        m_hat: 4,
        n: HISTORY + PROBES,
        sample_points: 1,
        seed: 7,
    };
    let (schema, rows) = generate_rows(DatasetKind::Nba, &params);
    let mut table = Table::with_capacity(schema.clone(), HISTORY);
    let encode = |table: &mut Table, row: &RawRow| {
        let ids = table.schema_mut().intern_dims(&row.dims).unwrap();
        Tuple::new(ids, row.measures.clone())
    };
    for row in &rows[..HISTORY] {
        let t = encode(&mut table, row);
        table.append(t).unwrap();
    }
    let probes = rows[HISTORY..]
        .iter()
        .map(|row| encode(&mut table, row))
        .collect();
    Fixture {
        schema,
        table,
        probes,
        discovery: DiscoveryConfig::unrestricted(),
    }
}

/// Warms an incremental algorithm by replaying the history through it.
fn warm(algo: &mut dyn Discovery, table: &Table) {
    let mut warm_table = Table::new(table.schema().clone());
    for (_, t) in table.iter() {
        let t = t.to_tuple();
        let _ = algo.discover(&warm_table, &t);
        warm_table.append(t).unwrap();
    }
}

fn bench_discover(c: &mut Criterion) {
    let fixture = fixture();
    let mut group = c.benchmark_group("discover_per_tuple");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));

    let kinds = [
        AlgorithmKind::BaselineSeq,
        AlgorithmKind::BaselineIdx,
        AlgorithmKind::CCsc,
        AlgorithmKind::BottomUp,
        AlgorithmKind::TopDown,
        AlgorithmKind::SBottomUp,
        AlgorithmKind::STopDown,
    ];
    for kind in kinds {
        let mut algo = kind
            .build(&fixture.schema, fixture.discovery, None)
            .expect("an in-memory kind");
        if kind.is_incremental() {
            warm(algo.as_mut(), &fixture.table);
        }
        group.bench_function(BenchmarkId::from_parameter(kind.name()), |b| {
            b.iter(|| {
                let mut facts = 0usize;
                for probe in &fixture.probes {
                    facts += algo.discover(&fixture.table, probe).len();
                }
                facts
            })
        });
    }
    group.finish();
}

fn bench_construction(c: &mut Criterion) {
    let fixture = fixture();
    let schema = &fixture.schema;
    let config = fixture.discovery;
    let mut c = c.benchmark_group("construction");
    c.warm_up_time(std::time::Duration::from_millis(500));
    c.measurement_time(std::time::Duration::from_secs(2));
    c.bench_function("construct_all_algorithms", |b| {
        b.iter(|| {
            let algos: Vec<Box<dyn Discovery>> = vec![
                Box::new(BaselineSeq::new(schema, config)),
                Box::new(BaselineIdx::new(schema, config)),
                Box::new(CCsc::new(schema, config)),
                Box::new(BottomUp::new(schema, config)),
                Box::new(TopDown::new(schema, config)),
                Box::new(SBottomUp::new(schema, config)),
                Box::new(STopDown::new(schema, config)),
            ];
            algos.len()
        })
    });
    c.finish();
}

criterion_group!(benches, bench_discover, bench_construction);
criterion_main!(benches);
