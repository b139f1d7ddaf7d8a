//! Criterion micro-benchmarks of the substrates: constraint-lattice
//! enumeration, the Proposition-4 partition, k-d-tree dominator queries and
//! skyline-store cell operations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use sitfact_core::{
    BoundMask, ConstraintLattice, Direction, DominancePartition, SubspaceMask, Tuple,
};
use sitfact_storage::{KdTree, MemorySkylineStore, SkylineStore};

/// Shared quick-run settings so `cargo bench` stays snappy on small machines.
fn quick(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_secs(2));
}

fn bench_lattice(c: &mut Criterion) {
    let mut group = c.benchmark_group("lattice_enumeration");
    quick(&mut group);
    for d in [5usize, 7, 8] {
        let lattice = ConstraintLattice::new(d, 4);
        group.bench_with_input(BenchmarkId::new("top_down", d), &lattice, |b, l| {
            b.iter(|| l.enumerate_top_down().len())
        });
        group.bench_with_input(BenchmarkId::new("algorithm1", d), &lattice, |b, l| {
            b.iter(|| l.enumerate_algorithm1().len())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("masks");
    quick(&mut group);
    group.bench_function("agreement_submask_pruning", |b| {
        let t1 = Tuple::new(vec![1, 2, 3, 4, 5, 6, 7], vec![1.0]);
        let t2 = Tuple::new(vec![1, 9, 3, 9, 5, 9, 7], vec![1.0]);
        b.iter(|| {
            let agreement = BoundMask::agreement(&t1, &t2);
            agreement.submasks().count()
        })
    });
    group.finish();
}

fn bench_dominance(c: &mut Criterion) {
    let dirs = vec![Direction::HigherIsBetter; 7];
    let mut rng = StdRng::seed_from_u64(3);
    let tuples: Vec<Tuple> = (0..256)
        .map(|_| {
            Tuple::new(
                vec![0],
                (0..7).map(|_| rng.gen_range(0..50) as f64).collect(),
            )
        })
        .collect();
    let mut group = c.benchmark_group("dominance");
    quick(&mut group);
    group.bench_function("dominance_partition_7_measures", |b| {
        b.iter(|| {
            let mut dominated = 0usize;
            for pair in tuples.windows(2) {
                let p = DominancePartition::compute(&pair[0], &pair[1], &dirs);
                if p.left_dominated_in(SubspaceMask::full(7)) {
                    dominated += 1;
                }
            }
            dominated
        })
    });
    group.finish();
}

fn bench_kdtree(c: &mut Criterion) {
    let dirs = vec![Direction::HigherIsBetter; 7];
    let mut rng = StdRng::seed_from_u64(5);
    let mut tree = KdTree::new(&dirs);
    for i in 0..20_000u32 {
        let t = Tuple::new(
            vec![0],
            (0..7).map(|_| rng.gen_range(0..60) as f64).collect(),
        );
        tree.insert(i, &t);
    }
    let probe = Tuple::new(vec![0], vec![45.0; 7]);
    let mut group = c.benchmark_group("kdtree");
    quick(&mut group);
    group.bench_function("kdtree_dominator_query_20k_points", |b| {
        b.iter(|| {
            tree.candidates_at_least(&probe, SubspaceMask::full(7))
                .len()
        })
    });
    group.finish();
}

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    quick(&mut group);
    group.bench_function("memory_store_insert_read_remove", |b| {
        b.iter(|| {
            let mut store = MemorySkylineStore::new();
            let subspace = SubspaceMask::full(4);
            for i in 0..200u32 {
                let constraint = [i % 8, u32::MAX, i % 3];
                let mut row = store.find(&constraint);
                store.insert(&mut row, &constraint, subspace, i);
            }
            let (mut total, mut ids) = (0usize, Vec::new());
            for i in 0..200u32 {
                let constraint = [i % 8, u32::MAX, i % 3];
                let mut row = store.find(&constraint);
                store.read(row, subspace, &mut ids);
                total += ids.len();
                store.remove(&mut row, &constraint, subspace, i);
            }
            total
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_lattice,
    bench_dominance,
    bench_kdtree,
    bench_store
);
criterion_main!(benches);
