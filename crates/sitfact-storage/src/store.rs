//! The `µ_{C,M}` skyline-tuple store abstraction.
//!
//! Every discovery algorithm of the paper conceptually maintains, for each
//! constraint–measure pair `(C, M)`, the set of tuples it has decided to keep
//! for that cell (all contextual skyline tuples for `BottomUp`-style
//! algorithms, only maximal-constraint occurrences for `TopDown`-style ones).
//! The [`SkylineStore`] trait captures the cell-level operations; it is
//! implemented by an in-memory backend and by the file-backed backend of the
//! paper's Section VI-C, so the same algorithm code runs over both.
//!
//! ## Cells hold tuple ids only
//!
//! A cell stores the [`TupleId`]s of its skyline tuples and nothing else. The
//! measures of every stored tuple already sit in the [`Table`]'s flat
//! measure column, and the algorithms read the table anyway (a stored
//! tuple's dimension values decide which constraints a dominator prunes), so
//! they compare through `table.tuple(id)`. A private copy of the measures per
//! stored entry would cost memory (the store is the largest structure of a
//! long-running monitor) and buy no comparison.
//!
//! ## Cell order is a contract
//!
//! [`SkylineStore::read`] yields a cell's ids in *cell order*, which is
//! ascending [`TupleId`] order on every backend, whatever order the ids were
//! inserted and removed in. The in-memory store keeps a tuple once per row
//! with the set of subspaces it is stored in, ids ascending, and a cell is
//! that row filtered by one subspace ([`crate::memory_store`]); the
//! file-backed store keeps each buffered cell sorted ([`crate::file_store`]).
//!
//! The order is observable: a kind that keeps whole skylines (Invariant 1)
//! stops scanning a cell at its first dominator, so the number of dominance
//! comparisons — the paper's Fig. 11 cost proxy — depends on it, and the two
//! backends must agree on it for a kind to do the same work over either.
//!
//! ## Rows and their handles
//!
//! A store groups the cells of one constraint into a *row*, and every cell
//! operation addresses its row by a [`RowId`] handle instead of hashing the
//! constraint again. [`SkylineStore::find`] is the one hashed lookup; a
//! discovery pass resolves each constraint it visits once and then reads,
//! inserts into and removes from every subspace's cell of that row by
//! handle. An absent row is `None`: reading it yields nothing, and the first
//! [`SkylineStore::insert`] through a `None` handle creates the row and
//! stores its handle in the caller's slot.
//!
//! **How long a handle stays valid.** A handle names its row until the row
//! is freed, and a row is freed in only three ways:
//!
//! * the in-memory store frees a row in the [`SkylineStore::remove`] that
//!   takes its last id, and then sets the caller's handle to `None` — so
//!   the slot it was removed through stays correct;
//! * the file-backed store frees the rows left without a file in
//!   [`SkylineStore::flush`] (a removal there only empties the buffered
//!   cell, whose file goes when the buffer moves on). A handle held across
//!   that flush may name a freed row, which reads as empty until the next
//!   row is created;
//! * [`SkylineStore::clear`] and [`SkylineStore::load_cells`] free every
//!   row.
//!
//! A freed row's slot is reused by the next row that is created, so a stale
//! copy of a handle **must be dropped by whoever holds it** before any
//! insert, and never read afterwards: it may name another constraint's row.
//! The lattice algorithms hold one slot per constraint of the current
//! arrival's `C^t`, route every removal from those rows through their slot,
//! only read through them in the ranking that follows the arrival's flush,
//! and drop all slots when the next arrival, retraction or import begins —
//! before anything creates a row. `insert` and `remove`
//! also take the constraint's values, which the store hashes only to create
//! or to drop the row's index entry.
//!
//! ## On disk
//!
//! The file-backed store writes a cell as `count:u32 id:u32*`
//! ([`crate::file_store`]). A durability snapshot writes the dumped cells
//! ([`StoreCell`]) id-only behind a leading `u32::MAX` tag word
//! ([`crate::wal::encode_cells`]); snapshots written before the tag stored
//! each entry's measures and still restore, their measures checked bit for
//! bit against the restored table.
//!
//! [`Table`]: crate::Table

use crate::heap::{hash_table_bytes, vec_bytes, ALLOC_OVERHEAD};
use crate::stats::StoreStats;
use sitfact_core::{
    Constraint, DimValueId, FxHashMap, Result, SitFactError, SubspaceMask, TupleId,
};
use std::mem::size_of;

/// One dumped cell of a [`SkylineStore`] in plain-data form: the constraint's
/// raw value ids, the subspace bits and the stored tuple ids, as produced by
/// [`SkylineStore::dump_cells`] and consumed by [`SkylineStore::load_cells`].
/// This is the serialization surface of the durability layer — see
/// `crate::wal::encode_cells`.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreCell {
    /// The cell's constraint as raw dimension value ids
    /// ([`Constraint::values`](sitfact_core::Constraint::values); `UNBOUND`
    /// marks free dimensions).
    pub constraint: Vec<DimValueId>,
    /// The cell's measure subspace bits ([`SubspaceMask`]`::0`).
    pub subspace: u32,
    /// The stored tuple ids, in cell order (ascending).
    pub entries: Vec<TupleId>,
}

/// Handle of one constraint's row in a [`SkylineStore`]: a dense index into
/// the store's row arena, valid as the [module documentation](self) says.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowId(u32);

impl RowId {
    /// The handle of arena slot `slot`.
    pub(crate) fn new(slot: usize) -> Self {
        RowId(slot as u32)
    }

    /// The arena slot this handle names.
    pub(crate) fn slot(self) -> usize {
        self.0 as usize
    }
}

/// The row arena behind both skyline stores: the rows in a `Vec` addressed
/// by [`RowId`], a free list of freed slots that the next rows created
/// reuse, and an index from each constraint with a row to its slot. Every
/// slot is either indexed or free, never both. A store decides when a row
/// is freed; a freed slot holds `R::default()`.
#[derive(Debug, Default)]
pub(crate) struct RowIndex<R> {
    index: FxHashMap<Constraint, RowId>,
    rows: Vec<R>,
    free: Vec<RowId>,
}

impl<R: Default> RowIndex<R> {
    /// The row of the constraint with these values, if it has one.
    pub(crate) fn find(&self, constraint: &[DimValueId]) -> Option<RowId> {
        self.index.get(constraint).copied()
    }

    /// Stores `row` as the row of `constraint` (which has none), in the
    /// last freed slot if there is one, and returns its handle.
    pub(crate) fn create(&mut self, constraint: &[DimValueId], row: R) -> RowId {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.rows[slot.slot()] = row;
                slot
            }
            None => {
                self.rows.push(row);
                RowId::new(self.rows.len() - 1)
            }
        };
        self.index
            .insert(Constraint::from_values(constraint.to_vec()), slot);
        slot
    }

    /// Frees the row of `constraint` in `slot`: its contents are dropped,
    /// its index entry goes, and the slot joins the free list.
    pub(crate) fn free(&mut self, slot: RowId, constraint: &[DimValueId]) {
        self.rows[slot.slot()] = R::default();
        self.index.remove(constraint);
        self.free.push(slot);
    }

    /// The row in `slot`.
    pub(crate) fn row(&self, slot: RowId) -> &R {
        &self.rows[slot.slot()]
    }

    /// The row in `slot`, mutably.
    pub(crate) fn row_mut(&mut self, slot: RowId) -> &mut R {
        &mut self.rows[slot.slot()]
    }

    /// Every slot of the arena, freed ones included.
    pub(crate) fn slots(&self) -> &[R] {
        &self.rows
    }

    /// Each constraint with a row and its slot, in index order.
    pub(crate) fn indexed(&self) -> impl Iterator<Item = (&Constraint, RowId)> {
        self.index
            .iter()
            .map(|(constraint, &slot)| (constraint, slot))
    }

    /// Frees every row and every slot.
    pub(crate) fn clear(&mut self) {
        self.index.clear();
        self.rows.clear();
        self.free.clear();
    }

    /// Heap bytes of the index (its buckets and control bytes, and each
    /// constraint's boxed key), the arena and the free list, allocator
    /// overhead included; not of what the rows themselves allocate. The
    /// arena only grows, every slot is written once when it is created, and
    /// the doubling tail past its length is address space a large arena
    /// never touches, so it is counted at its length (at capacity the
    /// estimate of `tests/store_memory.rs` overshoots resident memory by
    /// 13 %, at length by 3 %).
    pub(crate) fn heap_bytes(&self) -> usize {
        let arena = self.rows.len() * size_of::<R>() + ALLOC_OVERHEAD;
        let keys: usize = self
            .index
            .keys()
            .map(|constraint| constraint.num_dims() * size_of::<DimValueId>() + ALLOC_OVERHEAD)
            .sum();
        hash_table_bytes(self.index.capacity(), size_of::<(Constraint, RowId)>())
            + keys
            + if self.rows.capacity() == 0 { 0 } else { arena }
            + vec_bytes(&self.free)
    }

    /// Checks that every slot is either indexed (once) or free (once, and
    /// `freed` by the owning store's measure), and nothing else.
    pub(crate) fn audit(
        &self,
        store: &'static str,
        freed: impl Fn(&R) -> bool,
    ) -> std::result::Result<(), sitfact_core::AuditViolation> {
        let fail = |invariant: &'static str, detail: String| {
            Err(sitfact_core::AuditViolation::new(store, invariant, detail))
        };
        let mut claimed = vec![false; self.rows.len()];
        for &slot in self.free.iter().chain(self.index.values()) {
            match claimed.get_mut(slot.slot()) {
                Some(taken) if !*taken => *taken = true,
                _ => {
                    return fail(
                        "slots-indexed-or-free",
                        format!("slot {slot:?} is claimed twice or out of range"),
                    )
                }
            }
        }
        if let Some(slot) = claimed.iter().position(|&taken| !taken) {
            return fail(
                "slots-indexed-or-free",
                format!("slot {slot} is neither indexed nor free"),
            );
        }
        if let Some(slot) = self.free.iter().find(|slot| !freed(self.row(**slot))) {
            return fail(
                "free-slots-empty",
                format!("free slot {slot:?} still holds a row"),
            );
        }
        Ok(())
    }
}

/// Cell-level access to the skyline tuples stored per `(C, M)` pair, the
/// cells of one constraint addressed through its row handle.
///
/// The cell operations take `&mut self` because the file-backed
/// implementation keeps per-cell buffers and I/O counters that mutate even
/// on reads.
pub trait SkylineStore {
    /// The row of the constraint with these values
    /// ([`Constraint::values`](sitfact_core::Constraint::values)), or `None`
    /// when no cell of it holds an id. The one hashed lookup.
    fn find(&self, constraint: &[DimValueId]) -> Option<RowId>;

    /// Replaces the contents of `out` with the ids of `row`'s cell in
    /// `subspace`, in cell order (nothing for an absent row). The caller
    /// owns the buffer, so it may keep iterating it while it mutates the
    /// same cell, and one buffer serves every read of a traversal.
    fn read(&mut self, row: Option<RowId>, subspace: SubspaceMask, out: &mut Vec<TupleId>);

    /// Adds a tuple id to `row`'s cell in `subspace`, at its place in cell
    /// order; adding an id the cell holds changes nothing. Through a `None`
    /// handle this creates the row of `constraint` and stores its handle in
    /// `row`.
    fn insert(
        &mut self,
        row: &mut Option<RowId>,
        constraint: &[DimValueId],
        subspace: SubspaceMask,
        id: TupleId,
    );

    /// Removes a tuple id from `row`'s cell in `subspace`, keeping the rest
    /// in cell order, and returns whether it was present. When this frees
    /// the row (the row of `constraint`), `row` becomes `None`.
    fn remove(
        &mut self,
        row: &mut Option<RowId>,
        constraint: &[DimValueId],
        subspace: SubspaceMask,
        id: TupleId,
    ) -> bool;

    /// Whether `row`'s cell in `subspace` contains the given tuple id.
    fn contains(&mut self, row: Option<RowId>, subspace: SubspaceMask, id: TupleId) -> bool;

    /// Storage statistics (entries, bytes, I/O counters).
    fn stats(&self) -> StoreStats;

    /// Removes every cell and frees every row.
    fn clear(&mut self);

    /// Persists any buffered state (a no-op for purely in-memory backends;
    /// the file-backed store writes back its dirty cell buffer).
    fn flush(&mut self) {}

    /// Dumps every cell in plain-data form for a durability snapshot, or
    /// `None` when this backend does not support state export (the default —
    /// callers then fall back to full-log replay).
    fn dump_cells(&self) -> Option<Vec<StoreCell>> {
        None
    }

    /// Replaces this store's contents (and so every row) with previously
    /// dumped cells, or refuses them with a typed error and keeps its own.
    /// The default refuses, matching the default
    /// [`SkylineStore::dump_cells`].
    fn load_cells(&mut self, _cells: Vec<StoreCell>) -> Result<()> {
        Err(SitFactError::InvalidConfig(
            "this skyline store does not support state import".to_string(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit(rows: &RowIndex<Vec<u32>>) -> std::result::Result<(), sitfact_core::AuditViolation> {
        rows.audit("RowIndex", Vec::is_empty)
    }

    /// A freed slot is reused by the next row created, and every slot is
    /// either indexed or free after each step.
    #[test]
    fn freed_slots_are_reused_and_every_slot_is_indexed_or_free() {
        let mut rows: RowIndex<Vec<u32>> = RowIndex::default();
        let (a, b, c) = ([1, 2], [3, 4], [5, 6]);
        let first = rows.create(&a, vec![7]);
        let second = rows.create(&b, vec![8]);
        audit(&rows).unwrap();
        assert_eq!((rows.find(&a), rows.find(&b)), (Some(first), Some(second)));
        assert_eq!(rows.slots().len(), 2);

        rows.free(first, &a);
        audit(&rows).unwrap();
        assert_eq!(rows.find(&a), None);
        assert!(rows.row(first).is_empty());
        assert_eq!(rows.indexed().count() + rows.free.len(), rows.slots().len());

        let third = rows.create(&c, vec![9]);
        assert_eq!(third, first, "the freed slot is reused");
        assert_eq!(rows.slots().len(), 2);
        assert_eq!(rows.row(third), &vec![9]);
        rows.row_mut(third).push(10);
        assert_eq!(rows.find(&c), Some(third));
        audit(&rows).unwrap();

        rows.clear();
        assert_eq!(rows.slots().len(), 0);
        audit(&rows).unwrap();
    }

    #[test]
    fn audit_catches_a_broken_arena() {
        let mut rows: RowIndex<Vec<u32>> = RowIndex::default();
        rows.create(&[0], vec![0]);
        rows.free.push(RowId::new(0));
        assert!(audit(&rows).is_err(), "a slot both indexed and free");
        rows.free.clear();
        rows.rows.push(Vec::new());
        assert!(audit(&rows).is_err(), "a slot neither indexed nor free");
        rows.free.push(RowId::new(1));
        audit(&rows).unwrap();
        rows.rows[1].push(3);
        assert!(audit(&rows).is_err(), "a free slot holding a row");
    }

    /// The bytes of the index, term by term: a bucket holds the key and the
    /// handle plus one control byte, and the table carries one group of
    /// spare control bytes; the first insert allocates 4 buckets.
    #[test]
    fn heap_bytes_count_the_index_the_keys_the_arena_and_the_free_list() {
        let mut rows: RowIndex<Vec<u32>> = RowIndex::default();
        assert_eq!(rows.heap_bytes(), 0);
        let slot = rows.create(&[0, 7], vec![1]);
        let index = 4 * (size_of::<(Constraint, RowId)>() + 1) + 16 + ALLOC_OVERHEAD;
        assert_eq!(
            hash_table_bytes(rows.index.capacity(), size_of::<(Constraint, RowId)>()),
            index
        );
        // The key: two boxed value ids. The arena: row headers at its
        // length. No free list yet.
        let key = 2 * size_of::<DimValueId>() + ALLOC_OVERHEAD;
        let arena = size_of::<Vec<u32>>() + ALLOC_OVERHEAD;
        assert_eq!(rows.heap_bytes(), index + key + arena);
        // Freeing the row drops the key; the arena slot and a free-list
        // entry stay.
        rows.free(slot, &[0, 7]);
        let free = rows.free.capacity() * size_of::<RowId>() + ALLOC_OVERHEAD;
        assert_eq!(rows.heap_bytes(), index + arena + free);
    }
}
