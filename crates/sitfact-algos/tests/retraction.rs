//! The two incremental `retract` overrides (`SBottomUp`, `STopDown`) under
//! the calling protocol of `Discovery::retract`: each check drives one
//! algorithm through evictions and compares its store, cell for cell, with
//! that of a fresh instance fed only the surviving suffix. Every check runs
//! over a small matrix of shapes that includes the benchmark's.

use rand::prelude::*;
use sitfact_algos::common::AlgoParams;
use sitfact_algos::{Discovery, SBottomUp, STopDown};
use sitfact_core::{Direction, DiscoveryConfig, Schema, SchemaBuilder, Tuple, TupleId};
use sitfact_storage::{SkylineStore, StoreCell, Table, WorkStats};

/// Constructor of the algorithm under test.
type Build<A> = fn(&Schema, DiscoveryConfig) -> A;
/// Dump of its skyline store.
type Dump<A> = fn(&A) -> Vec<StoreCell>;

fn bottom_up_cells(algo: &SBottomUp) -> Vec<StoreCell> {
    algo.store().dump_cells().unwrap()
}

fn top_down_cells(algo: &STopDown) -> Vec<StoreCell> {
    algo.store().dump_cells().unwrap()
}

/// Three dimensions, `m` measures of mixed direction.
fn schema(m: usize) -> Schema {
    let mut b = SchemaBuilder::new("s")
        .dimension("d1")
        .dimension("d2")
        .dimension("d3");
    for i in 0..m {
        let dir = if i % 3 == 1 {
            Direction::LowerIsBetter
        } else {
            Direction::HigherIsBetter
        };
        b = b.measure(format!("m{i}"), dir);
    }
    b.build().unwrap()
}

/// `(measures, config)`: the single case the first retraction tests pinned,
/// the benchmark's shape (`d̂ < d`, and `m̂ < m`: the full space is
/// maintained but not reported), and three measures unrestricted.
fn shapes() -> [(usize, DiscoveryConfig); 3] {
    [
        (2, DiscoveryConfig::unrestricted()),
        (3, DiscoveryConfig::capped(2, 2)),
        (3, DiscoveryConfig::unrestricted()),
    ]
}

fn random_tuple(rng: &mut StdRng, m: usize) -> Tuple {
    let dims = vec![
        rng.gen_range(0..3u32),
        rng.gen_range(0..2u32),
        rng.gen_range(0..3u32),
    ];
    Tuple::new(dims, (0..m).map(|_| rng.gen_range(0..5) as f64).collect())
}

fn sorted<A>(dump: Dump<A>, algo: &A) -> Vec<StoreCell> {
    let mut cells = dump(algo);
    for cell in &mut cells {
        cell.entries.sort_by_key(|(id, _)| *id);
    }
    cells.sort_by(|a, b| (&a.constraint, a.subspace).cmp(&(&b.constraint, b.subspace)));
    cells
}

/// One algorithm and the table it is driven against.
struct Windowed<A> {
    table: Table,
    algo: A,
}

impl<A: Discovery> Windowed<A> {
    /// A fresh instance whose first arrival gets id `base`.
    fn new(build: Build<A>, schema: &Schema, config: DiscoveryConfig, base: TupleId) -> Self {
        Windowed {
            table: Table::with_base(schema.clone(), base),
            algo: build(schema, config),
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

/// Rolling evictions in irregular steps, arrivals and (every other step)
/// `compact_retracted` in between: after every eviction the store equals a
/// rebuild from the surviving suffix.
fn rolling_evictions_match_rebuild<A: Discovery>(build: Build<A>, dump: Dump<A>) {
    for (case, (m, config)) in shapes().into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(1201 + case as u64);
        let schema = schema(m);
        let mut tuples: Vec<Tuple> = (0..40).map(|_| random_tuple(&mut rng, m)).collect();
        let mut subject = Windowed::new(build, &schema, config, 0);
        subject.arrive(&tuples);
        let mut evicted = 0;
        for (step, width) in [1usize, 6, 2, 11, 1, 4, 9].into_iter().enumerate() {
            evicted += width;
            subject.evict(evicted);
            if step % 2 == 1 {
                subject.table.compact_retracted();
            }
            subject.table.audit().unwrap();
            let mut rebuilt = Windowed::new(build, &schema, config, evicted as TupleId);
            rebuilt.arrive(&tuples[evicted..]);
            assert_eq!(
                sorted(dump, &subject.algo),
                sorted(dump, &rebuilt.algo),
                "case {case}: diverged after evicting {evicted} rows"
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
fn whole_prefix_eviction_matches_single_row_evictions<A: Discovery>(
    build: Build<A>,
    dump: Dump<A>,
) {
    for (case, (m, config)) in shapes().into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(1301 + case as u64);
        let schema = schema(m);
        let tuples: Vec<Tuple> = (0..45).map(|_| random_tuple(&mut rng, m)).collect();
        let mut at_once = Windowed::new(build, &schema, config, 0);
        let mut one_by_one = Windowed::new(build, &schema, config, 0);
        at_once.arrive(&tuples);
        one_by_one.arrive(&tuples);
        let mut evicted = 0;
        for k in [8usize, 2, 13] {
            at_once.evict(evicted + k);
            for _ in 0..k {
                evicted += 1;
                one_by_one.evict(evicted);
            }
            let mut rebuilt = Windowed::new(build, &schema, config, evicted as TupleId);
            rebuilt.arrive(&tuples[evicted..]);
            let expected = sorted(dump, &rebuilt.algo);
            assert_eq!(sorted(dump, &at_once.algo), expected, "case {case}, k {k}");
            assert_eq!(
                sorted(dump, &one_by_one.algo),
                expected,
                "case {case}, k {k}"
            );
        }
    }
}

/// The frozen path: a row that is in no maintained skyline costs one probe
/// per maintained cell and nothing else.
fn dominated_row_costs_one_probe_per_cell<A: Discovery>(build: Build<A>, dump: Dump<A>) {
    for (m, config) in shapes() {
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
        let mut subject = Windowed::new(build, &schema, config, 0);
        subject.arrive(&tuples);
        let stored = sorted(dump, &subject.algo);
        let before = subject.algo.work_stats();
        subject.evict(1);
        let after = subject.algo.work_stats();
        let params = AlgoParams::new(&schema, config);
        let cells = (params.top_down.len() * params.maintained.len()) as u64;
        assert_eq!(
            after,
            WorkStats {
                store_reads: before.store_reads + cells,
                ..before
            }
        );
        assert_eq!(sorted(dump, &subject.algo), stored);
    }
}

#[test]
fn s_top_down_rolling_evictions_match_rebuild() {
    rolling_evictions_match_rebuild(STopDown::new, top_down_cells);
}

#[test]
fn s_bottom_up_rolling_evictions_match_rebuild() {
    rolling_evictions_match_rebuild(SBottomUp::new, bottom_up_cells);
}

#[test]
fn s_top_down_whole_prefix_eviction_matches_single_row_evictions() {
    whole_prefix_eviction_matches_single_row_evictions(STopDown::new, top_down_cells);
}

#[test]
fn s_bottom_up_whole_prefix_eviction_matches_single_row_evictions() {
    whole_prefix_eviction_matches_single_row_evictions(SBottomUp::new, bottom_up_cells);
}

#[test]
fn s_top_down_dominated_row_costs_one_probe_per_cell() {
    dominated_row_costs_one_probe_per_cell(STopDown::new, top_down_cells);
}

#[test]
fn s_bottom_up_dominated_row_costs_one_probe_per_cell() {
    dominated_row_costs_one_probe_per_cell(SBottomUp::new, bottom_up_cells);
}
