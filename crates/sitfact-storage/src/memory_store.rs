//! In-memory skyline store: one flat row of `(subspace, id)` pairs per
//! constraint.
//!
//! A constraint has at most `2^m − 1` cells, typically a handful holding one
//! or two ids each, so the store keeps no per-cell allocation at all: the
//! row of a constraint is a single `Vec<(SubspaceMask, TupleId)>` (8 bytes a
//! pair) grouped by ascending subspace, and the cell `(C, M)` is the run of
//! `M`'s pairs in `C`'s row. A lookup binary-searches to the start of the
//! run and walks to its end. (Two alternatives were measured and rejected:
//! an unsorted row, which cost ranking reads a scan of the whole row, and
//! binary-searching for both ends of the run, which is slower than the walk
//! over runs this short.)
//!
//! Within a run the pairs follow the cell order of [`SkylineStore`]: an
//! insert goes to the end of its run, and a remove moves the run's last pair
//! into the hole before dropping that last slot.

use crate::stats::StoreStats;
use crate::store::{SkylineStore, StoreCell};
use sitfact_core::{Constraint, DimValueId, FxHashMap, SubspaceMask, TupleId};
use std::mem::size_of;
use std::ops::Range;

/// In-memory implementation of [`SkylineStore`].
///
/// A row is created on a constraint's first insert and dropped with its last
/// pair, so the map holds exactly the constraints with a non-empty cell.
#[derive(Debug, Default)]
pub struct MemorySkylineStore {
    rows: FxHashMap<Constraint, Row>,
}

/// One constraint's cells: `(subspace, id)` pairs grouped by ascending
/// subspace, each group in cell order.
type Row = Vec<(SubspaceMask, TupleId)>;

/// What one heap allocation costs beyond its payload: a glibc-style malloc
/// keeps an 8-byte size word in front of every chunk and rounds chunks up to
/// 16 bytes.
const ALLOC_OVERHEAD: usize = 16;

/// Control bytes hashbrown keeps beyond one per bucket (one SSE2 group).
const HASH_GROUP_WIDTH: usize = 16;

/// The positions of `subspace`'s run in `row` (empty when it has none).
fn run(row: &Row, subspace: SubspaceMask) -> Range<usize> {
    let start = row.partition_point(|&(s, _)| s < subspace);
    let len = row[start..]
        .iter()
        .take_while(|&&(s, _)| s == subspace)
        .count();
    start..start + len
}

/// The buckets behind a hash map of this `capacity()`: hashbrown fills at
/// most 7/8 of a table of 8 buckets or more, and all but one bucket of a
/// smaller one.
fn hash_buckets(capacity: usize) -> usize {
    match capacity {
        0 => 0,
        1..=7 => capacity + 1,
        _ => capacity / 7 * 8,
    }
}

impl MemorySkylineStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deep structural self-check; see [`sitfact_core::audit::Audit`].
    #[cfg(any(test, debug_assertions, feature = "deep-audit"))]
    pub fn audit(&self) -> Result<(), sitfact_core::AuditViolation> {
        sitfact_core::Audit::check(self)
    }
}

/// Checks the row layout every lookup relies on: no retained empty rows
/// (reads of absent cells must stay allocation-free), pairs grouped by
/// ascending subspace, and no id twice within a cell.
#[cfg(any(test, debug_assertions, feature = "deep-audit"))]
impl sitfact_core::Audit for MemorySkylineStore {
    fn check(&self) -> Result<(), sitfact_core::AuditViolation> {
        use sitfact_core::AuditViolation;
        let fail = |invariant: &'static str, detail: String| {
            Err(AuditViolation::new("MemorySkylineStore", invariant, detail))
        };
        for (constraint, row) in &self.rows {
            if row.is_empty() {
                return fail(
                    "no-empty-rows",
                    format!("constraint {constraint:?} maps to an empty row"),
                );
            }
            for pos in 1..row.len() {
                let ((prior, _), (subspace, id)) = (row[pos - 1], row[pos]);
                if prior > subspace {
                    return fail(
                        "row-grouped-by-subspace",
                        format!(
                            "constraint {constraint:?} holds {subspace:?} after {prior:?} \
                             at position {pos}"
                        ),
                    );
                }
                if row[run(row, subspace).start..pos]
                    .iter()
                    .any(|&(_, other)| other == id)
                {
                    return fail(
                        "unique-ids-per-cell",
                        format!("cell ({constraint:?}, {subspace:?}) stores id {id} twice"),
                    );
                }
            }
        }
        Ok(())
    }
}

impl SkylineStore for MemorySkylineStore {
    fn read(&mut self, constraint: &Constraint, subspace: SubspaceMask, out: &mut Vec<TupleId>) {
        out.clear();
        if let Some(row) = self.rows.get(constraint) {
            out.extend(row[run(row, subspace)].iter().map(|&(_, id)| id));
        }
    }

    fn insert(&mut self, constraint: &Constraint, subspace: SubspaceMask, id: TupleId) {
        // The key is cloned only for a constraint's first cell.
        let row = match self.rows.get_mut(constraint) {
            Some(row) => row,
            None => self.rows.entry(constraint.clone()).or_default(),
        };
        let end = row.partition_point(|&(s, _)| s <= subspace);
        row.insert(end, (subspace, id));
    }

    fn remove(&mut self, constraint: &Constraint, subspace: SubspaceMask, id: TupleId) -> bool {
        let Some(row) = self.rows.get_mut(constraint) else {
            return false;
        };
        let cell = run(row, subspace);
        let Some(hole) = cell.clone().find(|&pos| row[pos].1 == id) else {
            return false;
        };
        let last = cell.end - 1;
        row[hole] = row[last];
        row.remove(last);
        if row.is_empty() {
            self.rows.remove(constraint);
        }
        true
    }

    fn contains(&mut self, constraint: &Constraint, subspace: SubspaceMask, id: TupleId) -> bool {
        self.rows
            .get(constraint)
            .is_some_and(|row| row[run(row, subspace)].iter().any(|&(_, x)| x == id))
    }

    fn stats(&self) -> StoreStats {
        // Counted, not maintained: the served path never asks. Bytes are
        // what the layout allocates — the hash table's buckets and control
        // bytes, and per constraint its boxed key and its row's capacity —
        // plus the allocator's overhead on each of those allocations.
        let buckets = hash_buckets(self.rows.capacity());
        let mut bytes = if buckets == 0 {
            0
        } else {
            buckets * (size_of::<(Constraint, Row)>() + 1) + HASH_GROUP_WIDTH + ALLOC_OVERHEAD
        };
        let (mut stored_entries, mut non_empty_cells) = (0, 0);
        for (constraint, row) in &self.rows {
            bytes += constraint.num_dims() * size_of::<DimValueId>() + ALLOC_OVERHEAD;
            bytes += row.capacity() * size_of::<(SubspaceMask, TupleId)>() + ALLOC_OVERHEAD;
            stored_entries += row.len() as u64;
            non_empty_cells += row.chunk_by(|a, b| a.0 == b.0).count() as u64;
        }
        StoreStats {
            stored_entries,
            non_empty_cells,
            approx_bytes: bytes as u64,
            file_reads: 0,
            file_writes: 0,
        }
    }

    fn clear(&mut self) {
        self.rows.clear();
    }

    fn dump_cells(&self) -> Option<Vec<StoreCell>> {
        let mut cells = Vec::new();
        for (constraint, row) in &self.rows {
            for chunk in row.chunk_by(|a, b| a.0 == b.0) {
                cells.push(StoreCell {
                    constraint: constraint.values().to_vec(),
                    subspace: chunk[0].0 .0,
                    entries: chunk.iter().map(|&(_, id)| id).collect(),
                });
            }
        }
        Some(cells)
    }

    fn load_cells(&mut self, cells: Vec<StoreCell>) -> sitfact_core::Result<()> {
        self.clear();
        for cell in cells {
            let constraint = Constraint::from_values(cell.constraint);
            for id in cell.entries {
                self.insert(&constraint, SubspaceMask(cell.subspace), id);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constraint(values: Vec<u32>) -> Constraint {
        Constraint::from_values(values)
    }

    fn read(store: &mut MemorySkylineStore, c: &Constraint, m: SubspaceMask) -> Vec<TupleId> {
        let mut ids = Vec::new();
        store.read(c, m, &mut ids);
        ids
    }

    #[test]
    fn insert_read_remove_cycle() {
        let mut store = MemorySkylineStore::new();
        let c = constraint(vec![1, u32::MAX]);
        let m = SubspaceMask(0b11);
        assert!(read(&mut store, &c, m).is_empty());

        store.insert(&c, m, 0);
        store.insert(&c, m, 1);
        assert_eq!(read(&mut store, &c, m), vec![0, 1]);
        assert!(store.contains(&c, m, 0));
        assert!(store.contains(&c, m, 1));
        assert!(!store.contains(&c, m, 2));

        assert!(store.remove(&c, m, 0));
        assert!(!store.remove(&c, m, 0));
        assert_eq!(read(&mut store, &c, m), vec![1]);
        store.audit().unwrap();
    }

    #[test]
    fn remove_moves_the_cells_last_id_into_the_hole() {
        let mut store = MemorySkylineStore::new();
        let c = constraint(vec![5]);
        let (low, m, high) = (SubspaceMask(0b01), SubspaceMask(0b10), SubspaceMask(0b11));
        // Neighbouring runs on both sides must not move.
        store.insert(&c, high, 9);
        for id in 0..4 {
            store.insert(&c, m, id);
        }
        store.insert(&c, low, 8);
        assert!(store.remove(&c, m, 1));
        assert_eq!(read(&mut store, &c, m), vec![0, 3, 2]);
        store.insert(&c, m, 4);
        assert_eq!(read(&mut store, &c, m), vec![0, 3, 2, 4]);
        assert_eq!(read(&mut store, &c, low), vec![8]);
        assert_eq!(read(&mut store, &c, high), vec![9]);
        store.audit().unwrap();
    }

    #[test]
    fn cells_are_independent() {
        let mut store = MemorySkylineStore::new();
        let c1 = constraint(vec![1, u32::MAX]);
        let c2 = constraint(vec![u32::MAX, 2]);
        store.insert(&c1, SubspaceMask(0b01), 0);
        store.insert(&c1, SubspaceMask(0b10), 0);
        store.insert(&c2, SubspaceMask(0b01), 1);
        assert_eq!(read(&mut store, &c1, SubspaceMask(0b01)), vec![0]);
        assert_eq!(read(&mut store, &c1, SubspaceMask(0b10)), vec![0]);
        assert_eq!(read(&mut store, &c2, SubspaceMask(0b01)), vec![1]);
        assert!(read(&mut store, &c2, SubspaceMask(0b10)).is_empty());
        assert_eq!(store.stats().stored_entries, 3);
        assert_eq!(store.stats().non_empty_cells, 3);
    }

    #[test]
    fn stats_count_what_the_layout_allocates() {
        let mut store = MemorySkylineStore::new();
        let c = constraint(vec![0, 7]);
        assert_eq!(store.stats(), StoreStats::default());
        for i in 0..10 {
            store.insert(&c, SubspaceMask(1), i);
        }
        store.insert(&c, SubspaceMask(2), 10);
        let stats = store.stats();
        assert_eq!(stats.stored_entries, 11);
        assert_eq!(stats.non_empty_cells, 2);
        assert_eq!(stats.file_reads, 0);
        assert_eq!(stats.file_writes, 0);
        // The formula, term by term. The hash table: a bucket holds the key
        // and the row header, plus one control byte, and the table carries
        // one group of spare control bytes.
        let buckets = hash_buckets(store.rows.capacity());
        assert_eq!(buckets, 4, "the first insert allocates a 4-bucket table");
        let table = buckets * (size_of::<(Constraint, Row)>() + 1) + 16 + ALLOC_OVERHEAD;
        // The key: two boxed value ids.
        let key = 2 * size_of::<DimValueId>() + ALLOC_OVERHEAD;
        // The row: its capacity in 8-byte pairs, not its length.
        let capacity = store.rows[&c].capacity();
        assert!(capacity > 11);
        let row = capacity * 8 + ALLOC_OVERHEAD;
        assert_eq!(stats.approx_bytes, (table + key + row) as u64);

        // A reloaded dump holds the same cells; its rows are sized by
        // growth, so only the counts must agree.
        let mut reloaded = MemorySkylineStore::new();
        reloaded.load_cells(store.dump_cells().unwrap()).unwrap();
        assert_eq!(reloaded.stats().stored_entries, 11);
        assert_eq!(reloaded.stats().non_empty_cells, 2);
        assert_eq!(
            read(&mut reloaded, &c, SubspaceMask(1)),
            (0..10).collect::<Vec<_>>()
        );
        reloaded.audit().unwrap();
    }

    #[test]
    fn hash_buckets_follow_the_table_sizes() {
        let mut map: FxHashMap<u32, u32> = FxHashMap::default();
        assert_eq!(hash_buckets(map.capacity()), 0);
        let mut seen = Vec::new();
        for i in 0..2000 {
            map.insert(i, i);
            let buckets = hash_buckets(map.capacity());
            assert!(buckets.is_power_of_two(), "{} -> {buckets}", map.capacity());
            assert!(map.len() <= map.capacity() && map.capacity() < buckets);
            if seen.last() != Some(&buckets) {
                seen.push(buckets);
            }
        }
        assert_eq!(seen[..4], [4, 8, 16, 32]);
    }

    #[test]
    fn removing_last_entry_removes_the_row() {
        let mut store = MemorySkylineStore::new();
        let c = constraint(vec![0]);
        store.insert(&c, SubspaceMask(1), 0);
        assert_eq!(store.stats().non_empty_cells, 1);
        store.remove(&c, SubspaceMask(1), 0);
        assert_eq!(store.stats().non_empty_cells, 0);
        assert_eq!(store.stats().stored_entries, 0);
        assert!(store.rows.is_empty());
    }

    #[test]
    fn clear_empties_everything() {
        let mut store = MemorySkylineStore::new();
        let c = constraint(vec![0]);
        store.insert(&c, SubspaceMask(1), 0);
        store.clear();
        assert_eq!(store.stats().stored_entries, 0);
        assert_eq!(store.stats().non_empty_cells, 0);
        assert!(read(&mut store, &c, SubspaceMask(1)).is_empty());
    }

    #[test]
    fn dump_lists_every_cell_in_cell_order() {
        let mut store = MemorySkylineStore::new();
        let (c1, c2) = (constraint(vec![1]), constraint(vec![2]));
        store.insert(&c1, SubspaceMask(2), 5);
        store.insert(&c1, SubspaceMask(1), 4);
        store.insert(&c1, SubspaceMask(2), 3);
        store.insert(&c2, SubspaceMask(1), 1);
        let mut cells = store.dump_cells().unwrap();
        cells.sort_by(|a, b| (&a.constraint, a.subspace).cmp(&(&b.constraint, b.subspace)));
        let cell = |c: u32, subspace, entries| StoreCell {
            constraint: vec![c],
            subspace,
            entries,
        };
        assert_eq!(
            cells,
            vec![
                cell(1, 1, vec![4]),
                cell(1, 2, vec![5, 3]),
                cell(2, 1, vec![1])
            ]
        );
    }
}
