//! In-memory skyline store: one flat row per constraint, each stored tuple
//! in it once with the set of subspaces it is stored in, the rows in an
//! arena addressed by [`RowId`].
//!
//! A store serves one *family* of measure subspaces, fixed when it is built
//! (a lattice kind passes every subspace it keeps cells for), and slot `k`
//! of the family is bit `k` of a tuple's subspace words. A row is a single
//! `Vec<u32>` of strided pairs: each id, in ascending [`TupleId`] order,
//! followed by its `family.len().div_ceil(32)` words, so a pair is 8 bytes
//! for a family of up to 32 subspaces and one word more for each 32 beyond.
//! A tuple stored at a constraint in six subspaces costs one pair, not six:
//! the cell `(C, M)` is the ids of `C`'s row whose words hold `M`'s bit, in
//! ascending id order (the cell order of [`SkylineStore`]).
//!
//! * [`SkylineStore::read`] filters the row by `M`'s bit, without a branch
//!   per pair;
//! * [`SkylineStore::insert`] sets the bit, and adds a pair only for an id
//!   new to the row, at its sorted position;
//! * [`SkylineStore::remove`] and [`SkylineStore::contains`] find the id by
//!   binary search; a remove clears the bit and drops the pair when its
//!   words empty.
//!
//! The rows live in a `RowIndex`: an arena with a free list of emptied
//! slots, and an index `FxHashMap<Constraint, RowId>` mapping each
//! constraint with a non-empty cell to its slot. [`SkylineStore::find`] is
//! the only probe of that index a visit pays: every cell operation after it
//! indexes the arena directly. The index is touched again only when a row
//! is created (its first insert) or freed (its last remove).

use crate::heap::vec_bytes;
use crate::stats::StoreStats;
use crate::store::{RowId, RowIndex, SkylineStore, StoreCell};
use sitfact_core::{DimValueId, SitFactError, SubspaceMask, TupleId};
use std::cmp::Ordering;

/// In-memory implementation of [`SkylineStore`] over one subspace family.
///
/// A row is created on a constraint's first insert and freed with its last
/// pair — its slot goes to the free list with its allocation released — so
/// the index holds exactly the constraints with a non-empty cell.
#[derive(Debug)]
pub struct MemorySkylineStore {
    rows: RowIndex<Row>,
    /// The subspaces this store keeps cells for, by slot.
    family: Vec<SubspaceMask>,
    /// `slots[subspace.0]`: the family slot of each subspace, [`NO_SLOT`]
    /// for one outside the family.
    slots: Vec<u32>,
    /// The family's slots in ascending subspace order, as cells are dumped.
    by_mask: Vec<usize>,
    /// `u32` words of subspace bits after each id.
    words: usize,
}

/// One constraint's cells: `id word*` pairs in ascending id order, every
/// pair with at least one bit set.
type Row = Vec<u32>;

/// The `slots` entry of a subspace outside the family.
const NO_SLOT: u32 = u32::MAX;

/// The pair index of `id` in a row of `stride`-word pairs, or where it
/// would be inserted.
fn search(row: &[u32], stride: usize, id: TupleId) -> Result<usize, usize> {
    let (mut low, mut high) = (0, row.len() / stride);
    while low < high {
        let mid = (low + high) / 2;
        match row[mid * stride].cmp(&id) {
            Ordering::Less => low = mid + 1,
            Ordering::Greater => high = mid,
            Ordering::Equal => return Ok(mid),
        }
    }
    Err(low)
}

/// Replaces `out` with the ids of `row` (pairs of `stride` words) whose word
/// `word` holds `bit`: one cell, in ascending id order.
fn read_cell(row: &[u32], stride: usize, word: usize, bit: u32, out: &mut Vec<TupleId>) {
    // Branch-free: every id is written, and the next one overwrites it
    // unless the cell holds it. A cell is often a small part of its row, so
    // a filter that branches per pair mispredicts often.
    out.resize(row.len() / stride, 0);
    let mut kept = 0;
    for pair in row.chunks_exact(stride) {
        out[kept] = pair[0];
        kept += usize::from(pair[word] & bit != 0);
    }
    out.truncate(kept);
}

impl MemorySkylineStore {
    /// Creates an empty store keeping cells for the subspaces of `family`,
    /// each listed once (slot `k` is `family[k]`). A subspace outside the
    /// family is never stored: it reads as empty.
    pub fn new(family: &[SubspaceMask]) -> Self {
        let top = family.iter().map(|s| s.0 as usize + 1).max().unwrap_or(0);
        let mut slots = vec![NO_SLOT; top];
        for (slot, subspace) in family.iter().enumerate() {
            slots[subspace.0 as usize] = slot as u32;
        }
        let mut by_mask: Vec<usize> = (0..family.len()).collect();
        by_mask.sort_by_key(|&slot| family[slot]);
        MemorySkylineStore {
            rows: RowIndex::default(),
            family: family.to_vec(),
            slots,
            by_mask,
            words: family.len().div_ceil(32),
        }
    }

    /// `u32`s per pair: the id and its words.
    fn stride(&self) -> usize {
        1 + self.words
    }

    /// The word offset (after the id) and bit of `subspace`'s slot, or
    /// `None` outside the family.
    fn bit(&self, subspace: SubspaceMask) -> Option<(usize, u32)> {
        let slot = *self.slots.get(subspace.0 as usize)?;
        (slot != NO_SLOT).then(|| (1 + slot as usize / 32, 1 << (slot % 32)))
    }

    /// The row behind a handle (an absent row reads as empty).
    fn row(&self, row: Option<RowId>) -> &[u32] {
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
/// layout every lookup relies on: whole pairs, ids strictly ascending (so no
/// id twice in a row), every pair's words non-empty, and no bit past the
/// family's last slot.
impl sitfact_core::Audit for MemorySkylineStore {
    fn check(&self) -> Result<(), sitfact_core::AuditViolation> {
        use sitfact_core::AuditViolation;
        let fail = |invariant: &'static str, detail: String| {
            Err(AuditViolation::new("MemorySkylineStore", invariant, detail))
        };
        self.rows
            .audit("MemorySkylineStore", |row| row.capacity() == 0)?;
        let stride = self.stride();
        // The bits the last word may hold.
        let last = match self.family.len() % 32 {
            0 => u32::MAX,
            used => (1 << used) - 1,
        };
        for (constraint, slot) in self.rows.indexed() {
            let row = self.rows.row(slot);
            if row.is_empty() || !row.len().is_multiple_of(stride) {
                return fail(
                    "rows-of-whole-pairs",
                    format!(
                        "constraint {constraint:?} maps to a row of {} words, not a non-empty                          multiple of {stride}",
                        row.len()
                    ),
                );
            }
            let mut prior = None;
            for pair in row.chunks_exact(stride) {
                let (id, words) = (pair[0], &pair[1..]);
                if prior.is_some_and(|prior| prior >= id) {
                    return fail(
                        "ids-ascending",
                        format!("constraint {constraint:?} holds id {id} after {prior:?}"),
                    );
                }
                prior = Some(id);
                if words.iter().all(|&word| word == 0) {
                    return fail(
                        "no-empty-words",
                        format!("constraint {constraint:?} keeps id {id} in no subspace"),
                    );
                }
                if words.last().is_some_and(|&word| word & !last != 0) {
                    return fail(
                        "bits-within-family",
                        format!(
                            "constraint {constraint:?} stores id {id} in a slot past the                              family's {}",
                            self.family.len()
                        ),
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
        let Some((word, bit)) = self.bit(subspace) else {
            return;
        };
        read_cell(self.row(row), self.stride(), word, bit, out);
    }

    fn insert(
        &mut self,
        row: &mut Option<RowId>,
        constraint: &[DimValueId],
        subspace: SubspaceMask,
        id: TupleId,
    ) {
        let bit = self.bit(subspace);
        debug_assert!(bit.is_some(), "{subspace:?} is outside the store's family");
        let Some((word, bit)) = bit else {
            return;
        };
        let stride = self.stride();
        let slot = *row.get_or_insert_with(|| self.rows.create(constraint, Row::new()));
        let pairs = self.rows.row_mut(slot);
        match search(pairs, stride, id) {
            Ok(at) => pairs[at * stride + word] |= bit,
            Err(at) => {
                let at = at * stride;
                let words = (1..stride).map(|w| if w == word { bit } else { 0 });
                pairs.splice(at..at, std::iter::once(id).chain(words));
            }
        }
    }

    fn remove(
        &mut self,
        row: &mut Option<RowId>,
        constraint: &[DimValueId],
        subspace: SubspaceMask,
        id: TupleId,
    ) -> bool {
        let (Some(slot), Some((word, bit))) = (*row, self.bit(subspace)) else {
            return false;
        };
        let stride = self.stride();
        let pairs = self.rows.row_mut(slot);
        let Ok(at) = search(pairs, stride, id) else {
            return false;
        };
        let pair = at * stride..(at + 1) * stride;
        if pairs[pair.start + word] & bit == 0 {
            return false;
        }
        pairs[pair.start + word] &= !bit;
        if pairs[pair.start + 1..pair.end].iter().all(|&w| w == 0) {
            pairs.drain(pair);
            if pairs.is_empty() {
                // Release the allocation with the row: a free slot costs
                // only its arena entry.
                self.rows.free(slot, constraint);
                *row = None;
            }
        }
        true
    }

    fn contains(&mut self, row: Option<RowId>, subspace: SubspaceMask, id: TupleId) -> bool {
        let Some((word, bit)) = self.bit(subspace) else {
            return false;
        };
        let (pairs, stride) = (self.row(row), self.stride());
        search(pairs, stride, id).is_ok_and(|at| pairs[at * stride + word] & bit != 0)
    }

    fn stats(&self) -> StoreStats {
        // Counted, not maintained: the served path never asks. An entry is
        // a set bit, a non-empty cell a slot some id of its row holds. Bytes
        // are what the layout allocates — the row index (see
        // [`RowIndex::heap_bytes`]) and each row's pairs at capacity — plus
        // the allocator's overhead on each of those allocations.
        let stride = self.stride();
        let mut bytes = self.rows.heap_bytes();
        let (mut stored_entries, mut non_empty_cells) = (0, 0);
        for row in self.rows.slots() {
            bytes += vec_bytes(row);
            for word in 1..stride {
                let (mut any, words) = (0, row.iter().skip(word).step_by(stride));
                for &bits in words {
                    stored_entries += u64::from(bits.count_ones());
                    any |= bits;
                }
                non_empty_cells += u64::from(any.count_ones());
            }
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

    /// Each row's cells in ascending subspace order, ids ascending.
    fn dump_cells(&self) -> Option<Vec<StoreCell>> {
        let stride = self.stride();
        let (mut cells, mut ids) = (Vec::new(), Vec::new());
        for (constraint, slot) in self.rows.indexed() {
            let pairs = self.rows.row(slot);
            for &at in &self.by_mask {
                read_cell(pairs, stride, 1 + at / 32, 1 << (at % 32), &mut ids);
                if !ids.is_empty() {
                    cells.push(StoreCell {
                        constraint: constraint.values().to_vec(),
                        subspace: self.family[at].0,
                        entries: ids.clone(),
                    });
                }
            }
        }
        Some(cells)
    }

    /// Refuses, loading nothing, a cell whose subspace is outside the family.
    fn load_cells(&mut self, cells: Vec<StoreCell>) -> sitfact_core::Result<()> {
        if let Some(cell) = cells
            .iter()
            .find(|cell| self.bit(SubspaceMask(cell.subspace)).is_none())
        {
            return Err(SitFactError::InvalidSubspace(format!(
                "a stored cell of subspace {:#b} is outside this store's family of {} subspaces",
                cell.subspace,
                self.family.len()
            )));
        }
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

    /// A store over the three subspaces of two measures: one word a pair.
    fn store() -> MemorySkylineStore {
        MemorySkylineStore::new(&SubspaceMask::enumerate(2, 2))
    }

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
        let mut store = store();
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

    /// A cell reads in ascending id order whatever order its ids came in,
    /// and a removal leaves the rest in place; the row's other cells do not
    /// move.
    #[test]
    fn cells_read_in_ascending_id_order() {
        let mut store = store();
        let c = constraint(vec![5]);
        let (low, m, high) = (SubspaceMask(0b01), SubspaceMask(0b10), SubspaceMask(0b11));
        insert(&mut store, &c, high, 9);
        for id in [3, 0, 2, 1] {
            insert(&mut store, &c, m, id);
        }
        insert(&mut store, &c, low, 8);
        assert!(remove(&mut store, &c, m, 1));
        assert_eq!(read(&mut store, &c, m), vec![0, 2, 3]);
        insert(&mut store, &c, m, 1);
        assert_eq!(read(&mut store, &c, m), vec![0, 1, 2, 3]);
        assert_eq!(read(&mut store, &c, low), vec![8]);
        assert_eq!(read(&mut store, &c, high), vec![9]);
        store.audit().unwrap();
    }

    #[test]
    fn cells_are_independent() {
        let mut store = store();
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
        // Id 0 sits in two subspaces of `c1`'s row as one pair.
        assert_eq!(
            store.rows.row(store.find(c1.values()).unwrap()),
            &[0, 0b011]
        );
        assert!(remove(&mut store, &c1, SubspaceMask(0b01), 0));
        assert_eq!(
            store.rows.row(store.find(c1.values()).unwrap()),
            &[0, 0b010]
        );
        store.audit().unwrap();
    }

    /// One handle serves every cell of its row; the remove that empties the
    /// row clears the handle it went through, and the next row created
    /// takes the freed slot.
    #[test]
    fn a_handle_addresses_its_row_until_the_row_empties() {
        let mut store = store();
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
        let mut store = store();
        let c = constraint(vec![0, 7]);
        assert_eq!(store.stats(), StoreStats::default());
        for i in 0..10 {
            insert(&mut store, &c, SubspaceMask(1), i);
        }
        insert(&mut store, &c, SubspaceMask(2), 10);
        // An id new to a cell but not to its row adds a bit, not a pair.
        insert(&mut store, &c, SubspaceMask(2), 3);
        let stats = store.stats();
        assert_eq!(stats.stored_entries, 12);
        assert_eq!(stats.non_empty_cells, 2);
        assert_eq!(stats.file_reads, 0);
        assert_eq!(stats.file_writes, 0);
        // The row index (its formula is pinned in `store.rs`) plus the
        // row: its capacity in words, not its 11 pairs of two.
        let row = store.rows.row(RowId::new(0));
        assert_eq!(row.len(), 22);
        assert!(row.capacity() >= 22);
        let row = row.capacity() * 4 + ALLOC_OVERHEAD;
        assert_eq!(stats.approx_bytes, (store.rows.heap_bytes() + row) as u64);

        // Emptying the row frees its slot and the row's pairs with it.
        for i in 0..10 {
            assert!(remove(&mut store, &c, SubspaceMask(1), i));
        }
        assert!(remove(&mut store, &c, SubspaceMask(2), 10));
        assert!(remove(&mut store, &c, SubspaceMask(2), 3));
        assert_eq!(store.stats().approx_bytes, store.rows.heap_bytes() as u64);
        store.audit().unwrap();
    }

    /// A family of 63 subspaces takes two words a pair, through the same
    /// code: bits on both sides of the word boundary, and the counts over
    /// both words.
    #[test]
    fn a_wide_family_takes_two_words_a_pair() {
        let family = SubspaceMask::enumerate(6, 6);
        assert_eq!(family.len(), 63);
        let mut store = MemorySkylineStore::new(&family);
        let c = constraint(vec![4]);
        let (first, low, high) = (family[0], family[31], family[62]);
        for (m, id) in [(high, 5), (low, 5), (first, 2), (high, 1)] {
            insert(&mut store, &c, m, id);
        }
        assert_eq!(store.rows.row(store.find(c.values()).unwrap()).len(), 3 * 3);
        assert_eq!(read(&mut store, &c, high), vec![1, 5]);
        assert_eq!(read(&mut store, &c, low), vec![5]);
        assert_eq!(read(&mut store, &c, first), vec![2]);
        assert!(contains(&mut store, &c, high, 5));
        assert!(!contains(&mut store, &c, family[32], 5));
        let stats = store.stats();
        assert_eq!((stats.stored_entries, stats.non_empty_cells), (4, 3));
        store.audit().unwrap();
        assert!(remove(&mut store, &c, low, 5));
        assert!(!remove(&mut store, &c, low, 5));
        assert_eq!(read(&mut store, &c, high), vec![1, 5]);
        assert!(remove(&mut store, &c, high, 5));
        assert_eq!(store.rows.row(store.find(c.values()).unwrap()).len(), 2 * 3);
        store.audit().unwrap();
    }

    #[test]
    fn a_reloaded_dump_holds_the_same_cells() {
        let mut store = store();
        let c = constraint(vec![0, 7]);
        for i in 0..10 {
            insert(&mut store, &c, SubspaceMask(1), i);
        }
        insert(&mut store, &c, SubspaceMask(2), 10);
        // Its rows are sized by growth, so only the counts must agree.
        let mut reloaded = self::store();
        reloaded.load_cells(store.dump_cells().unwrap()).unwrap();
        assert_eq!(reloaded.stats().stored_entries, 11);
        assert_eq!(reloaded.stats().non_empty_cells, 2);
        assert_eq!(
            read(&mut reloaded, &c, SubspaceMask(1)),
            (0..10).collect::<Vec<_>>()
        );
        reloaded.audit().unwrap();
    }

    /// A cell the family has no slot for is refused with a typed error, and
    /// nothing of the load is kept.
    #[test]
    fn a_load_refuses_a_subspace_outside_the_family() {
        let mut store = MemorySkylineStore::new(&[SubspaceMask(0b01), SubspaceMask(0b10)]);
        let c = constraint(vec![3]);
        insert(&mut store, &c, SubspaceMask(0b01), 4);
        let cells = vec![
            StoreCell {
                constraint: vec![3],
                subspace: 0b10,
                entries: vec![1],
            },
            StoreCell {
                constraint: vec![3],
                subspace: 0b11,
                entries: vec![2],
            },
        ];
        let err = store.load_cells(cells).unwrap_err();
        assert!(matches!(err, SitFactError::InvalidSubspace(_)), "{err:?}");
        assert_eq!(read(&mut store, &c, SubspaceMask(0b01)), vec![4]);
        assert!(read(&mut store, &c, SubspaceMask(0b10)).is_empty());
        store.audit().unwrap();
    }

    #[test]
    fn removing_last_entry_removes_the_row() {
        let mut store = store();
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
        let mut store = store();
        let c = constraint(vec![0]);
        insert(&mut store, &c, SubspaceMask(1), 0);
        store.clear();
        assert_eq!(store.stats().stored_entries, 0);
        assert_eq!(store.stats().non_empty_cells, 0);
        assert!(read(&mut store, &c, SubspaceMask(1)).is_empty());
        store.audit().unwrap();
    }

    /// A row dumps its cells in ascending subspace order, each cell's ids
    /// ascending — whatever order the family lists its subspaces in.
    #[test]
    fn dump_lists_every_cell_in_subspace_and_id_order() {
        let family = [SubspaceMask(2), SubspaceMask(1)];
        let mut store = MemorySkylineStore::new(&family);
        let (c1, c2) = (constraint(vec![1]), constraint(vec![2]));
        insert(&mut store, &c1, SubspaceMask(2), 5);
        insert(&mut store, &c1, SubspaceMask(1), 4);
        insert(&mut store, &c1, SubspaceMask(2), 3);
        insert(&mut store, &c2, SubspaceMask(1), 1);
        let mut cells = store.dump_cells().unwrap();
        // Rows come in index order; within a row the order is the store's.
        cells.sort_by_key(|cell| cell.constraint.clone());
        let cell = |c: u32, subspace, entries| StoreCell {
            constraint: vec![c],
            subspace,
            entries,
        };
        assert_eq!(
            cells,
            vec![
                cell(1, 1, vec![4]),
                cell(1, 2, vec![3, 5]),
                cell(2, 1, vec![1])
            ]
        );
    }

    #[test]
    fn audit_catches_a_broken_row() {
        let c = constraint(vec![1]);
        let broken = |row: Vec<u32>| {
            let mut store = MemorySkylineStore::new(&SubspaceMask::enumerate(2, 2));
            insert(&mut store, &c, SubspaceMask(1), 0);
            *store.rows.row_mut(RowId::new(0)) = row;
            store.audit()
        };
        broken(vec![1, 0b001, 4, 0b110]).unwrap();
        assert!(broken(vec![4, 0b001, 1, 0b110]).is_err(), "ids descending");
        assert!(broken(vec![1, 0b001, 1, 0b110]).is_err(), "an id twice");
        assert!(broken(vec![1, 0b001, 4, 0]).is_err(), "an empty word");
        assert!(broken(vec![1, 0b1001]).is_err(), "a bit past the family");
        assert!(broken(vec![1, 0b001, 4]).is_err(), "half a pair");
    }
}
