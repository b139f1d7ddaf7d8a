//! The one incremental `retract` of the four lattice kinds under the calling
//! protocol of `Discovery::retract`: each check drives every kind through
//! evictions and compares its store, cell for cell, with that of a fresh
//! instance fed only the surviving suffix. Every check runs over a small
//! matrix of shapes that includes the benchmark's.
#![allow(
    clippy::unwrap_used,
    reason = "test code: a failed unwrap is a failed test"
)]

mod common;

use common::{audit_cells, random_tuple, schema, shapes};
use rand::prelude::*;
use sitfact_algos::common::AlgoParams;
use sitfact_algos::{AlgorithmKind, Discovery};
use sitfact_core::{DiscoveryConfig, Schema, Tuple, TupleId};
use sitfact_storage::{StoreCell, Table, WorkStats};

const KINDS: [AlgorithmKind; 4] = [
    AlgorithmKind::BottomUp,
    AlgorithmKind::TopDown,
    AlgorithmKind::SBottomUp,
    AlgorithmKind::STopDown,
];

/// The algorithm's skyline store in a canonical order.
fn sorted(algo: &dyn Discovery) -> Vec<StoreCell> {
    let mut cells = algo.export_store_cells().unwrap();
    for cell in &mut cells {
        cell.entries.sort_unstable();
    }
    cells.sort_by(|a, b| (&a.constraint, a.subspace).cmp(&(&b.constraint, b.subspace)));
    cells
}

/// One algorithm and the table it is driven against.
struct Windowed {
    table: Table,
    algo: Box<dyn Discovery>,
}

impl Windowed {
    /// A fresh instance whose first arrival gets id `base`.
    fn new(kind: AlgorithmKind, schema: &Schema, config: DiscoveryConfig, base: TupleId) -> Self {
        Windowed {
            table: Table::with_base(schema.clone(), base),
            algo: kind.build(schema, config, None).unwrap(),
        }
    }

    fn arrive(&mut self, tuples: &[Tuple]) {
        for t in tuples {
            let _ = self.algo.discover(&self.table, t);
            self.table.append(t.clone()).unwrap();
        }
    }

    /// The monitor's eviction: tombstone the whole prefix, then retract its
    /// ids one by one in ascending order.
    fn evict(&mut self, up_to: usize) {
        let start = self.table.watermark();
        let newly = self.table.retract_prefix(up_to);
        for id in start..start + newly as TupleId {
            self.algo.retract(&self.table, id).unwrap();
        }
    }
}

/// Every `(kind, case, measures, config)` of the matrix.
fn matrix() -> impl Iterator<Item = (AlgorithmKind, usize, usize, DiscoveryConfig)> {
    KINDS.into_iter().flat_map(|kind| {
        let cases = shapes().into_iter().enumerate();
        cases.map(move |(case, (m, config))| (kind, case, m, config))
    })
}

/// Rolling evictions in irregular steps, arrivals and (every other step)
/// `compact_retracted` in between: after every eviction the store equals a
/// rebuild from the surviving suffix.
#[test]
fn rolling_evictions_match_rebuild() {
    for (kind, case, m, config) in matrix() {
        let mut rng = StdRng::seed_from_u64(1201 + case as u64);
        let schema = schema(m);
        let mut tuples: Vec<Tuple> = (0..40).map(|_| random_tuple(&mut rng, m)).collect();
        let mut subject = Windowed::new(kind, &schema, config, 0);
        subject.arrive(&tuples);
        let mut evicted = 0;
        for (step, width) in [1usize, 6, 2, 11, 1, 4, 9].into_iter().enumerate() {
            evicted += width;
            subject.evict(evicted);
            if step % 2 == 1 {
                subject.table.compact_retracted();
            }
            subject.table.audit().unwrap();
            audit_cells(&subject.algo.export_store_cells().unwrap(), &subject.table);
            let mut rebuilt = Windowed::new(kind, &schema, config, evicted as TupleId);
            rebuilt.arrive(&tuples[evicted..]);
            assert_eq!(
                sorted(&*subject.algo),
                sorted(&*rebuilt.algo),
                "{kind}, case {case}: diverged after evicting {evicted} rows"
            );
            let arrivals: Vec<Tuple> = (0..3).map(|_| random_tuple(&mut rng, m)).collect();
            subject.arrive(&arrivals);
            tuples.extend(arrivals);
        }
    }
}

/// Pending tombstones: `retract_prefix(k)` followed by `k` calls of
/// `retract` — during which the later ids are dead in the table but still
/// stored — ends where `k` single-row evictions end.
#[test]
fn whole_prefix_eviction_matches_single_row_evictions() {
    for (kind, case, m, config) in matrix() {
        let mut rng = StdRng::seed_from_u64(1301 + case as u64);
        let schema = schema(m);
        let tuples: Vec<Tuple> = (0..45).map(|_| random_tuple(&mut rng, m)).collect();
        let mut at_once = Windowed::new(kind, &schema, config, 0);
        let mut one_by_one = Windowed::new(kind, &schema, config, 0);
        at_once.arrive(&tuples);
        one_by_one.arrive(&tuples);
        let mut evicted = 0;
        for k in [8usize, 2, 13] {
            at_once.evict(evicted + k);
            for _ in 0..k {
                evicted += 1;
                one_by_one.evict(evicted);
            }
            let mut rebuilt = Windowed::new(kind, &schema, config, evicted as TupleId);
            rebuilt.arrive(&tuples[evicted..]);
            let expected = sorted(&*rebuilt.algo);
            assert_eq!(
                sorted(&*at_once.algo),
                expected,
                "{kind}, case {case}, k {k}"
            );
            assert_eq!(
                sorted(&*one_by_one.algo),
                expected,
                "{kind}, case {case}, k {k}"
            );
        }
    }
}

/// The frozen path: a row that is in no maintained skyline costs one probe
/// per maintained cell and nothing else.
#[test]
fn dominated_row_costs_one_probe_per_cell() {
    for (kind, case, m, config) in matrix() {
        let mut rng = StdRng::seed_from_u64(1401);
        let schema = schema(m);
        // The second row matches every context of the first and beats it on
        // every measure (`m1` is lower-is-better), so the first is in no
        // skyline of any subspace from then on.
        let mut tuples = vec![
            Tuple::new(vec![0, 0, 0], [1.0, 3.0, 1.0][..m].to_vec()),
            Tuple::new(vec![0, 0, 0], [2.0, 2.0, 2.0][..m].to_vec()),
        ];
        tuples.extend((0..20).map(|_| random_tuple(&mut rng, m)));
        let mut subject = Windowed::new(kind, &schema, config, 0);
        subject.arrive(&tuples);
        let stored = sorted(&*subject.algo);
        let before = subject.algo.work_stats();
        subject.evict(1);
        let after = subject.algo.work_stats();
        // A sharing kind also keeps the full space when `m̂ < m` hides it.
        let params = AlgoParams::new(&schema, config);
        let sharing = matches!(kind, AlgorithmKind::SBottomUp | AlgorithmKind::STopDown);
        let family = if sharing {
            params.maintained.len()
        } else {
            params.subspaces.len()
        };
        assert_eq!(
            after,
            WorkStats {
                store_reads: before.store_reads + (params.top_down.len() * family) as u64,
                ..before
            },
            "{kind}, case {case}"
        );
        assert_eq!(sorted(&*subject.algo), stored, "{kind}, case {case}");
    }
}

/// `export_store_cells` → a fresh instance's `import_store_cells` → both keep
/// discovering: the same facts, the same store, evictions included.
#[test]
fn exported_store_continues_in_a_fresh_instance() {
    for (kind, case, m, config) in matrix() {
        let mut rng = StdRng::seed_from_u64(1501 + case as u64);
        let schema = schema(m);
        let tuples: Vec<Tuple> = (0..60).map(|_| random_tuple(&mut rng, m)).collect();
        let mut original = Windowed::new(kind, &schema, config, 0);
        original.arrive(&tuples[..30]);
        original.evict(10);
        let mut restored = Windowed::new(kind, &schema, config, 0);
        restored.table.append_batch_slice(&tuples[..30]).unwrap();
        restored.table.retract_prefix(10);
        let cells = original.algo.export_store_cells().unwrap();
        restored.algo.import_store_cells(cells).unwrap();
        assert_eq!(sorted(&*restored.algo), sorted(&*original.algo));
        for (step, t) in tuples[30..].iter().enumerate() {
            let a = original.algo.discover(&original.table, t);
            let b = restored.algo.discover(&restored.table, t);
            assert_eq!(a, b, "{kind}, case {case}: arrival {step} diverged");
            original.table.append(t.clone()).unwrap();
            restored.table.append(t.clone()).unwrap();
            if step % 10 == 9 {
                original.evict(20 + step);
                restored.evict(20 + step);
            }
        }
        assert_eq!(
            sorted(&*restored.algo),
            sorted(&*original.algo),
            "{kind}, case {case}"
        );
    }
}
