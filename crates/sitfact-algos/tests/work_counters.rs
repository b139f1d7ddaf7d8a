//! Pins the *work* of the six lattice kinds, not only their facts: a fixed
//! seeded stream is driven through alternating per-arrival and batched
//! windows (with the ranking's `skyline_cardinality(_at)` calls, and
//! optionally a rolling eviction), and the Fig. 11 counters, the store size,
//! the number of facts and the sum of the skyline cardinalities are compared
//! with literals. The literals were recorded before the four lattice files
//! became one module; a change that makes the traversal compare, visit, read
//! or write anything else shows up here even when every fact stays the same.
//! The evicting rows' `comparisons` and `store_reads` were re-recorded once
//! since, when `retract` came to share its repair across the subspaces of a
//! constraint: both fell, and every other column stayed as it was.
#![allow(
    clippy::unwrap_used,
    reason = "test code: a failed unwrap is a failed test"
)]

mod common;

use common::{audit_cells, random_tuple, schema, shapes};
use rand::prelude::*;
use sitfact_algos::AlgorithmKind;
use sitfact_core::{Constraint, SubspaceMask, Tuple, TupleId};
use sitfact_storage::Table;

/// `[comparisons, traversed_constraints, store_reads, store_writes,
/// stored_entries, non_empty_cells, facts, skyline cardinality sum]`.
type Work = [u64; 8];

/// `(algorithm, shape, evicting, work)`. A file-backed kind is held to the
/// row of its in-memory twin: the store backend must not change the work.
/// With and without eviction a plain kind and its sharing twin end with the
/// same store and the same facts wherever `m̂ = m` (shapes 0 and 2).
#[rustfmt::skip]
const PINNED: &[(&str, usize, bool, Work)] = &[
    ("BottomUp", 0, false, [1356, 881, 881, 910, 366, 144, 638, 1632]),
    ("BottomUp", 1, false, [2551, 1761, 1761, 1232, 506, 180, 869, 2379]),
    ("BottomUp", 2, false, [3019, 2047, 2047, 2069, 819, 336, 1444, 3444]),
    ("TopDown", 0, false, [1814, 1728, 2102, 421, 89, 34, 638, 1632]),
    ("TopDown", 1, false, [3332, 3024, 3443, 714, 152, 53, 869, 2379]),
    ("TopDown", 2, false, [4004, 4032, 5057, 1003, 233, 95, 1444, 3444]),
    ("SBottomUp", 0, false, [1256, 744, 744, 910, 366, 144, 638, 1632]),
    ("SBottomUp", 1, false, [2412, 1190, 1190, 1508, 592, 210, 869, 2379]),
    ("SBottomUp", 2, false, [2594, 1581, 1581, 2069, 819, 336, 1444, 3444]),
    ("STopDown", 0, false, [848, 1728, 1384, 421, 89, 34, 638, 1632]),
    ("STopDown", 1, false, [1680, 3528, 1904, 882, 194, 74, 869, 2379]),
    ("STopDown", 2, false, [1648, 4032, 2815, 1003, 233, 95, 1444, 3444]),
    ("SBottomUp", 0, true, [2891, 796, 2312, 1530, 192, 132, 692, 1511]),
    ("SBottomUp", 1, true, [5248, 1349, 4391, 2824, 356, 203, 1003, 2207]),
    ("SBottomUp", 2, true, [4813, 1759, 5258, 3495, 495, 315, 1640, 3298]),
    ("STopDown", 0, true, [2530, 1728, 2842, 738, 64, 45, 692, 1511]),
    ("STopDown", 1, true, [4612, 3528, 5057, 1665, 137, 74, 1003, 2207]),
    ("STopDown", 2, true, [3898, 4032, 6359, 1772, 148, 82, 1640, 3298]),
    // Recorded after: see `plain_kinds_do_the_pinned_work_under_eviction`.
    ("BottomUp", 0, true, [3017, 949, 2465, 1530, 192, 132, 692, 1511]),
    ("BottomUp", 1, true, [4840, 1827, 4390, 2310, 296, 174, 1003, 2207]),
    ("BottomUp", 2, true, [5333, 2291, 5790, 3495, 495, 315, 1640, 3298]),
    ("TopDown", 0, true, [3232, 1728, 3533, 738, 64, 45, 692, 1511]),
    ("TopDown", 1, true, [5250, 3024, 5997, 1390, 114, 62, 1003, 2207]),
    ("TopDown", 2, true, [5737, 4032, 8446, 1772, 148, 82, 1640, 3298]),
];

const WINDOW: usize = 24;

/// Drives `kind` over a shape; the work, under the name of the algorithm it
/// ran (a file-backed kind reports its in-memory twin's).
fn drive(kind: AlgorithmKind, shape: usize, evicting: bool) -> (&'static str, Work) {
    let (m, config) = shapes()[shape];
    let schema = schema(m);
    let dir = std::env::temp_dir().join(format!(
        "sitfact-work-{}-{kind}-{shape}-{evicting}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut algo = kind.build(&schema, config, Some(&dir)).unwrap();
    // One stream per shape, the same for every kind.
    let mut rng = StdRng::seed_from_u64(4100 + shape as u64);
    let tuples: Vec<Tuple> = (0..72).map(|_| random_tuple(&mut rng, m)).collect();
    let mut table = Table::new(schema.clone());
    // Beside every discovered pair, each arrival asks for `⊤` in the full
    // space: outside the family of a plain kind when `m̂ < m` (recomputed
    // from the table, truncated at the arrival), inside it for a shared one.
    let (top, full) = (Constraint::top(3), SubspaceMask::full(m));
    let (mut facts, mut skylines) = (0u64, 0u64);
    let mut rest = &tuples[..];
    for (step, width) in [5usize, 8, 3, 11].into_iter().cycle().enumerate() {
        if rest.is_empty() {
            break;
        }
        let (window, tail) = rest.split_at(width.min(rest.len()));
        rest = tail;
        if step % 2 == 0 {
            for t in window {
                let pairs = algo.discover(&table, t);
                table.append(t.clone()).unwrap();
                facts += pairs.len() as u64;
                for p in &pairs {
                    skylines += algo.skyline_cardinality(&table, &p.constraint, p.subspace) as u64;
                }
                skylines += algo.skyline_cardinality(&table, &top, full) as u64;
            }
        } else {
            let ids = table.append_batch_slice(window).unwrap();
            algo.begin_batch(window.len());
            for (t, id) in window.iter().zip(ids) {
                let pairs = algo.discover_at(&table, t, id);
                facts += pairs.len() as u64;
                for p in &pairs {
                    skylines +=
                        algo.skyline_cardinality_at(&table, &p.constraint, p.subspace, id + 1)
                            as u64;
                }
                skylines += algo.skyline_cardinality_at(&table, &top, full, id + 1) as u64;
            }
            algo.end_batch();
        }
        if evicting && table.live_rows() > WINDOW {
            // The monitor's eviction: tombstone the prefix, retract its ids
            // in ascending order, compact now and then.
            let start = table.watermark();
            let newly = table.retract_prefix(table.len() - WINDOW);
            for id in start..start + newly as TupleId {
                algo.retract(&table, id).unwrap();
            }
            if step % 4 >= 2 {
                table.compact_retracted();
            }
        }
    }
    // The in-memory kinds export their store: it must index the table.
    if let Some(cells) = algo.export_store_cells() {
        audit_cells(&cells, &table);
    }
    let (name, work, store) = (algo.name(), algo.work_stats(), algo.store_stats());
    drop(algo);
    let _ = std::fs::remove_dir_all(&dir);
    let work = [
        work.comparisons,
        work.traversed_constraints,
        work.store_reads,
        work.store_writes,
        store.stored_entries,
        store.non_empty_cells,
        facts,
        skylines,
    ];
    (name, work)
}

/// Drives every kind over every shape and lists the rows that differ from
/// [`PINNED`], in its syntax.
fn check(kinds: &[AlgorithmKind], evicting: bool) {
    let mut wrong = Vec::new();
    for &kind in kinds {
        for shape in 0..shapes().len() {
            let (name, got) = drive(kind, shape, evicting);
            let pinned = PINNED
                .iter()
                .find(|row| (row.0, row.1, row.2) == (name, shape, evicting));
            if pinned.map(|row| row.3) != Some(got) {
                wrong.push(format!(
                    "    (\"{name}\", {shape}, {evicting}, {got:?}), // measured with {kind}"
                ));
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "work differs from the pinned rows:\n{}",
        wrong.join("\n")
    );
}

const SHARED: [AlgorithmKind; 4] = [
    AlgorithmKind::SBottomUp,
    AlgorithmKind::STopDown,
    AlgorithmKind::FsBottomUp,
    AlgorithmKind::FsTopDown,
];
const PLAIN: [AlgorithmKind; 2] = [AlgorithmKind::BottomUp, AlgorithmKind::TopDown];

#[test]
fn plain_kinds_do_the_pinned_work() {
    check(&PLAIN, false);
}

#[test]
fn shared_and_file_backed_kinds_do_the_pinned_work() {
    check(&SHARED, false);
}

#[test]
fn shared_and_file_backed_kinds_do_the_pinned_work_under_eviction() {
    check(&SHARED, true);
}

/// The parent of the one-module change refused `retract` on the plain kinds,
/// so these rows of [`PINNED`] were first recorded with it.
#[test]
fn plain_kinds_do_the_pinned_work_under_eviction() {
    check(&PLAIN, true);
}
