//! In-memory skyline store: one flat row of `(subspace, id)` pairs per
//! constraint, the rows in an arena addressed by [`RowId`].
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
//! The rows live in a `RowIndex`: an arena with a free list of emptied
//! slots, and an index `FxHashMap<Constraint, RowId>` mapping each
//! constraint with a non-empty cell to its slot. [`SkylineStore::find`] is
//! the only probe of that index a visit pays: every cell operation after it
//! indexes the arena directly. The index is touched again only when a row
//! is created (its first insert) or freed (its last remove).
//!
//! Within a run the pairs follow the cell order of [`SkylineStore`]: an
//! insert goes to the end of its run, and a remove moves the run's last pair
//! into the hole before dropping that last slot.

use crate::heap::vec_bytes;
use crate::stats::StoreStats;
use crate::store::{RowId, RowIndex, SkylineStore, StoreCell};
use sitfact_core::{DimValueId, SubspaceMask, TupleId};
use std::ops::Range;

/// In-memory implementation of [`SkylineStore`].
///
/// A row is created on a constraint's first insert and freed with its last
/// pair — its slot goes to the free list with its allocation released — so
/// the index holds exactly the constraints with a non-empty cell.
#[derive(Debug, Default)]
pub struct MemorySkylineStore {
    rows: RowIndex<Row>,
}

/// One constraint's cells: `(subspace, id)` pairs grouped by ascending
/// subspace, each group in cell order.
type Row = Vec<(SubspaceMask, TupleId)>;

/// The positions of `subspace`'s run in `row` (empty when it has none).
fn run(row: &[(SubspaceMask, TupleId)], subspace: SubspaceMask) -> Range<usize> {
    let start = row.partition_point(|&(s, _)| s < subspace);
    let len = row[start..]
        .iter()
        .take_while(|&&(s, _)| s == subspace)
        .count();
    start..start + len
}

impl MemorySkylineStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The row behind a handle (an absent row reads as empty).
    fn row(&self, row: Option<RowId>) -> &[(SubspaceMask, TupleId)] {
        row.map_or(&[], |row| self.rows.row(row))
    }

    /// Deep structural self-check; see [`sitfact_core::audit::Audit`].
    pub fn audit(&self) -> Result<(), sitfact_core::AuditViolation> {
        sitfact_core::Audit::check(self)
    }
}

/// Checks the arena every handle relies on — every slot is either indexed
/// (once, and non-empty: reads of absent cells must stay allocation-free) or
/// free (once, and without an allocation), and nothing else — and the row
/// layout every lookup relies on: pairs grouped by ascending subspace, no id
/// twice within a cell.
impl sitfact_core::Audit for MemorySkylineStore {
    fn check(&self) -> Result<(), sitfact_core::AuditViolation> {
        use sitfact_core::AuditViolation;
        let fail = |invariant: &'static str, detail: String| {
            Err(AuditViolation::new("MemorySkylineStore", invariant, detail))
        };
        self.rows
            .audit("MemorySkylineStore", |row| row.capacity() == 0)?;
        for (constraint, slot) in self.rows.indexed() {
            let row = self.rows.row(slot);
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
    fn find(&self, constraint: &[DimValueId]) -> Option<RowId> {
        self.rows.find(constraint)
    }

    fn read(&mut self, row: Option<RowId>, subspace: SubspaceMask, out: &mut Vec<TupleId>) {
        out.clear();
        let row = self.row(row);
        out.extend(row[run(row, subspace)].iter().map(|&(_, id)| id));
    }

    fn insert(
        &mut self,
        row: &mut Option<RowId>,
        constraint: &[DimValueId],
        subspace: SubspaceMask,
        id: TupleId,
    ) {
        let slot = *row.get_or_insert_with(|| self.rows.create(constraint, Row::new()));
        let row = self.rows.row_mut(slot);
        let end = row.partition_point(|&(s, _)| s <= subspace);
        row.insert(end, (subspace, id));
    }

    fn remove(
        &mut self,
        row: &mut Option<RowId>,
        constraint: &[DimValueId],
        subspace: SubspaceMask,
        id: TupleId,
    ) -> bool {
        let Some(slot) = *row else {
            return false;
        };
        let pairs = self.rows.row_mut(slot);
        let cell = run(pairs, subspace);
        let Some(hole) = cell.clone().find(|&pos| pairs[pos].1 == id) else {
            return false;
        };
        let last = cell.end - 1;
        pairs[hole] = pairs[last];
        pairs.remove(last);
        if pairs.is_empty() {
            // Release the allocation with the row: a free slot costs only
            // its arena entry.
            self.rows.free(slot, constraint);
            *row = None;
        }
        true
    }

    fn contains(&mut self, row: Option<RowId>, subspace: SubspaceMask, id: TupleId) -> bool {
        let row = self.row(row);
        row[run(row, subspace)].iter().any(|&(_, x)| x == id)
    }

    fn stats(&self) -> StoreStats {
        // Counted, not maintained: the served path never asks. Bytes are
        // what the layout allocates — the row index (see
        // [`RowIndex::heap_bytes`]) and each row's pairs at capacity — plus
        // the allocator's overhead on each of those allocations.
        let mut bytes = self.rows.heap_bytes();
        let (mut stored_entries, mut non_empty_cells) = (0, 0);
        for row in self.rows.slots() {
            bytes += vec_bytes(row);
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
        for (constraint, slot) in self.rows.indexed() {
            for chunk in self.rows.row(slot).chunk_by(|a, b| a.0 == b.0) {
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
            let mut row = self.find(&cell.constraint);
            for id in cell.entries {
                self.insert(&mut row, &cell.constraint, SubspaceMask(cell.subspace), id);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::ALLOC_OVERHEAD;
    use sitfact_core::Constraint;

    fn constraint(values: Vec<u32>) -> Constraint {
        Constraint::from_values(values)
    }

    fn read(store: &mut MemorySkylineStore, c: &Constraint, m: SubspaceMask) -> Vec<TupleId> {
        let mut ids = Vec::new();
        store.read(store.find(c.values()), m, &mut ids);
        ids
    }

    fn insert(store: &mut MemorySkylineStore, c: &Constraint, m: SubspaceMask, id: TupleId) {
        let mut row = store.find(c.values());
        store.insert(&mut row, c.values(), m, id);
    }

    fn remove(
        store: &mut MemorySkylineStore,
        c: &Constraint,
        m: SubspaceMask,
        id: TupleId,
    ) -> bool {
        let mut row = store.find(c.values());
        store.remove(&mut row, c.values(), m, id)
    }

    fn contains(
        store: &mut MemorySkylineStore,
        c: &Constraint,
        m: SubspaceMask,
        id: TupleId,
    ) -> bool {
        store.contains(store.find(c.values()), m, id)
    }

    #[test]
    fn insert_read_remove_cycle() {
        let mut store = MemorySkylineStore::new();
        let c = constraint(vec![1, u32::MAX]);
        let m = SubspaceMask(0b11);
        assert!(read(&mut store, &c, m).is_empty());

        insert(&mut store, &c, m, 0);
        insert(&mut store, &c, m, 1);
        assert_eq!(read(&mut store, &c, m), vec![0, 1]);
        assert!(contains(&mut store, &c, m, 0));
        assert!(contains(&mut store, &c, m, 1));
        assert!(!contains(&mut store, &c, m, 2));

        assert!(remove(&mut store, &c, m, 0));
        assert!(!remove(&mut store, &c, m, 0));
        assert_eq!(read(&mut store, &c, m), vec![1]);
        store.audit().unwrap();
    }

    #[test]
    fn remove_moves_the_cells_last_id_into_the_hole() {
        let mut store = MemorySkylineStore::new();
        let c = constraint(vec![5]);
        let (low, m, high) = (SubspaceMask(0b01), SubspaceMask(0b10), SubspaceMask(0b11));
        // Neighbouring runs on both sides must not move.
        insert(&mut store, &c, high, 9);
        for id in 0..4 {
            insert(&mut store, &c, m, id);
        }
        insert(&mut store, &c, low, 8);
        assert!(remove(&mut store, &c, m, 1));
        assert_eq!(read(&mut store, &c, m), vec![0, 3, 2]);
        insert(&mut store, &c, m, 4);
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
        insert(&mut store, &c1, SubspaceMask(0b01), 0);
        insert(&mut store, &c1, SubspaceMask(0b10), 0);
        insert(&mut store, &c2, SubspaceMask(0b01), 1);
        assert_eq!(read(&mut store, &c1, SubspaceMask(0b01)), vec![0]);
        assert_eq!(read(&mut store, &c1, SubspaceMask(0b10)), vec![0]);
        assert_eq!(read(&mut store, &c2, SubspaceMask(0b01)), vec![1]);
        assert!(read(&mut store, &c2, SubspaceMask(0b10)).is_empty());
        assert_eq!(store.stats().stored_entries, 3);
        assert_eq!(store.stats().non_empty_cells, 3);
    }

    /// One handle serves every cell of its row; the remove that empties the
    /// row clears the handle it went through, and the next row created
    /// takes the freed slot.
    #[test]
    fn a_handle_addresses_its_row_until_the_row_empties() {
        let mut store = MemorySkylineStore::new();
        let (a, b) = (constraint(vec![1, 2]), constraint(vec![3, 4]));
        let (m1, m2) = (SubspaceMask(0b01), SubspaceMask(0b10));
        let mut row = None;
        store.insert(&mut row, a.values(), m1, 7);
        assert_eq!(row, store.find(a.values()));
        store.insert(&mut row, a.values(), m2, 8);
        assert!(store.contains(row, m2, 8));
        assert!(store.remove(&mut row, a.values(), m1, 7));
        assert!(row.is_some(), "the row still holds a pair");
        let freed = row;
        assert!(store.remove(&mut row, a.values(), m2, 8));
        assert_eq!(row, None);
        assert_eq!(store.find(a.values()), None);
        assert!(!store.remove(&mut row, a.values(), m2, 8));
        store.audit().unwrap();

        let mut other = None;
        store.insert(&mut other, b.values(), m1, 9);
        assert_eq!(other, freed, "the freed slot is reused");
        assert_eq!(store.rows.slots().len(), 1);
        assert_eq!(read(&mut store, &b, m1), vec![9]);
        assert!(read(&mut store, &a, m1).is_empty());
        store.audit().unwrap();
    }

    #[test]
    fn stats_count_what_the_layout_allocates() {
        let mut store = MemorySkylineStore::new();
        let c = constraint(vec![0, 7]);
        assert_eq!(store.stats(), StoreStats::default());
        for i in 0..10 {
            insert(&mut store, &c, SubspaceMask(1), i);
        }
        insert(&mut store, &c, SubspaceMask(2), 10);
        let stats = store.stats();
        assert_eq!(stats.stored_entries, 11);
        assert_eq!(stats.non_empty_cells, 2);
        assert_eq!(stats.file_reads, 0);
        assert_eq!(stats.file_writes, 0);
        // The row index (its formula is pinned in `store.rs`) plus the
        // row: its capacity in 8-byte pairs, not its length.
        let capacity = store.rows.row(RowId::new(0)).capacity();
        assert!(capacity > 11);
        let row = capacity * 8 + ALLOC_OVERHEAD;
        assert_eq!(stats.approx_bytes, (store.rows.heap_bytes() + row) as u64);

        // Emptying the row frees its slot and the row's pairs with it.
        for i in 0..10 {
            assert!(remove(&mut store, &c, SubspaceMask(1), i));
        }
        assert!(remove(&mut store, &c, SubspaceMask(2), 10));
        assert_eq!(store.stats().approx_bytes, store.rows.heap_bytes() as u64);
        store.audit().unwrap();
    }

    #[test]
    fn a_reloaded_dump_holds_the_same_cells() {
        let mut store = MemorySkylineStore::new();
        let c = constraint(vec![0, 7]);
        for i in 0..10 {
            insert(&mut store, &c, SubspaceMask(1), i);
        }
        insert(&mut store, &c, SubspaceMask(2), 10);
        // Its rows are sized by growth, so only the counts must agree.
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
    fn removing_last_entry_removes_the_row() {
        let mut store = MemorySkylineStore::new();
        let c = constraint(vec![0]);
        insert(&mut store, &c, SubspaceMask(1), 0);
        assert_eq!(store.stats().non_empty_cells, 1);
        remove(&mut store, &c, SubspaceMask(1), 0);
        assert_eq!(store.stats().non_empty_cells, 0);
        assert_eq!(store.stats().stored_entries, 0);
        assert_eq!(store.rows.indexed().count(), 0);
        assert_eq!(store.rows.slots().len(), 1);
        store.audit().unwrap();
    }

    #[test]
    fn clear_empties_everything() {
        let mut store = MemorySkylineStore::new();
        let c = constraint(vec![0]);
        insert(&mut store, &c, SubspaceMask(1), 0);
        store.clear();
        assert_eq!(store.stats().stored_entries, 0);
        assert_eq!(store.stats().non_empty_cells, 0);
        assert!(read(&mut store, &c, SubspaceMask(1)).is_empty());
        store.audit().unwrap();
    }

    #[test]
    fn dump_lists_every_cell_in_cell_order() {
        let mut store = MemorySkylineStore::new();
        let (c1, c2) = (constraint(vec![1]), constraint(vec![2]));
        insert(&mut store, &c1, SubspaceMask(2), 5);
        insert(&mut store, &c1, SubspaceMask(1), 4);
        insert(&mut store, &c1, SubspaceMask(2), 3);
        insert(&mut store, &c2, SubspaceMask(1), 1);
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
