//! Micro-benchmarks of a full report, on the stream of `bench_e2e`'s
//! `zipf_paced` workload (no `keep_top`, so every fact is ranked and sent):
//! ranking one arrival's facts, and encoding and decoding one ≈ 190-fact
//! `REPORT` payload.
//!
//! Ranking is timed per arrival by hand rather than through `Bencher::iter`:
//! each arrival must first be discovered, untimed, because the store reads
//! its cells of `C^t` once per arrival and a repeated ranking of the same
//! arrival would time only the second, cheaper pass. The timed part is what
//! `FactMonitor::rank_arrival` does without a `keep_top`: every fact's
//! context size (recorded by the counter), skyline cardinality and
//! prominence, and the sort.

use criterion::{criterion_group, criterion_main, Criterion};
use sitfact_algos::{Discovery, STopDown};
use sitfact_core::{DiscoveryConfig, Schema, SkylinePair, Tuple, TupleId};
use sitfact_datagen::zipf::{ZipfConfig, ZipfGenerator};
use sitfact_datagen::{DataGenerator, Row};
use sitfact_prominence::{ArrivalReport, RankedFact};
use sitfact_serve::Response;
use sitfact_storage::{ContextCounter, Table};
use std::time::{Duration, Instant};

/// Rows discovered before the first timed arrival.
const WARM_ROWS: usize = 3_000;

/// Arrivals ranked under the clock.
const TIMED_ARRIVALS: usize = 1_000;

/// The `zipf_paced` stream and discovery caps (`d̂ = m̂ = 3`).
fn zipf(seed: u64, n: usize) -> (Schema, Vec<Row>, DiscoveryConfig) {
    let mut gen = ZipfGenerator::new(ZipfConfig {
        dim_cardinalities: vec![5_000, 500, 32, 8, 2_000],
        exponent: 1.2,
        measures: 4,
        seed,
    });
    let rows = gen.take_rows(n);
    (gen.schema().clone(), rows, DiscoveryConfig::capped(3, 3))
}

/// The monitor's state for the stream, minus the monitor.
struct Stream {
    table: Table,
    counter: ContextCounter,
    algo: STopDown,
}

impl Stream {
    fn new(schema: &Schema, config: DiscoveryConfig) -> Self {
        Stream {
            table: Table::new(schema.clone()),
            counter: ContextCounter::new(schema.num_dimensions(), config.effective_d_hat(schema)),
            algo: STopDown::new(schema, config),
        }
    }

    /// Discovers, appends and observes one row: everything before ranking.
    fn arrive(&mut self, row: &Row) -> (TupleId, Vec<SkylinePair>) {
        let dims: Vec<&str> = row.dims.iter().map(String::as_str).collect();
        let ids = self
            .table
            .schema_mut()
            .intern_dims(&dims)
            .expect("zipf row");
        let tuple =
            Tuple::validated(ids, row.measures.clone(), self.table.schema()).expect("zipf row");
        let pairs = self.algo.discover(&self.table, &tuple);
        let id = self.table.append(tuple).expect("zipf row");
        self.counter.observe(self.table.tuple(id));
        (id, pairs)
    }

    /// The report of the arrival `id`, ranked as the monitor ranks it.
    fn rank(&mut self, id: TupleId, pairs: Vec<SkylinePair>) -> ArrivalReport {
        let mut facts: Vec<(f64, RankedFact)> = pairs
            .into_iter()
            .map(|pair| {
                let context_size = self.counter.last_observed(pair.constraint.bound_mask());
                let skyline_size = self.algo.skyline_cardinality_at(
                    &self.table,
                    &pair.constraint,
                    pair.subspace,
                    id + 1,
                ) as u64;
                let fact = RankedFact {
                    pair,
                    context_size,
                    skyline_size,
                };
                (fact.prominence(), fact)
            })
            .collect();
        facts.sort_unstable_by(RankedFact::ranking_cmp_keyed);
        ArrivalReport {
            tuple_id: id,
            facts: facts.into_iter().map(|(_, fact)| fact).collect(),
            prominent_count: 0,
        }
    }
}

/// Ranks `TIMED_ARRIVALS` arrivals after `WARM_ROWS`, timing each ranking,
/// and returns the report closest to 190 facts.
fn bench_ranking() -> ArrivalReport {
    let (schema, rows, config) = zipf(42, WARM_ROWS + TIMED_ARRIVALS);
    let mut stream = Stream::new(&schema, config);
    for row in &rows[..WARM_ROWS] {
        stream.arrive(row);
    }
    let (mut total, mut best, mut facts) = (Duration::ZERO, Duration::MAX, 0);
    let mut sample: Option<ArrivalReport> = None;
    for row in &rows[WARM_ROWS..] {
        let (id, pairs) = stream.arrive(row);
        let start = Instant::now();
        let report = criterion::black_box(stream.rank(id, pairs));
        let elapsed = start.elapsed();
        total += elapsed;
        best = best.min(elapsed);
        facts += report.facts.len();
        let distance = |r: &ArrivalReport| r.facts.len().abs_diff(190);
        if sample
            .as_ref()
            .is_none_or(|s| distance(&report) < distance(s))
        {
            sample = Some(report);
        }
    }
    println!(
        "reports/rank_zipf_arrival: {TIMED_ARRIVALS} iters, mean {:?}, best {best:?}, {} facts per arrival",
        total / TIMED_ARRIVALS as u32,
        facts / TIMED_ARRIVALS
    );
    sample.expect("timed arrivals")
}

fn bench_codec(c: &mut Criterion) {
    let report = bench_ranking();
    let response = Response::Report(report);
    let payload = response.encode();
    let facts = match &response {
        Response::Report(report) => report.facts.len(),
        _ => 0,
    };
    println!("reports/payload: {facts} facts, {} bytes", payload.len());
    let mut group = c.benchmark_group("reports");
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("encode", |b| b.iter(|| response.encode()));
    group.bench_function("decode", |b| {
        b.iter(|| Response::decode(&payload).expect("own encoding"))
    });
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
