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
//! [`SkylineStore::read`] yields a cell's ids in *cell order*, which every
//! backend maintains by the same two rules:
//!
//! * [`SkylineStore::insert`] appends the id at the end of the cell;
//! * [`SkylineStore::remove`] swap-removes: the cell's last id moves into
//!   the hole and the cell shrinks by one.
//!
//! The order is observable: a kind that keeps whole skylines (Invariant 1)
//! stops scanning a cell at its first dominator, so the number of dominance
//! comparisons — the paper's Fig. 11 cost proxy — depends on it.
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

use crate::stats::StoreStats;
use sitfact_core::{DimValueId, Result, SitFactError, SubspaceMask, TupleId};

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
    /// The stored tuple ids, in cell order.
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

    /// Appends a tuple id to `row`'s cell in `subspace`. The caller
    /// guarantees the id is not already present. Through a `None` handle
    /// this creates the row of `constraint` and stores its handle in `row`.
    fn insert(
        &mut self,
        row: &mut Option<RowId>,
        constraint: &[DimValueId],
        subspace: SubspaceMask,
        id: TupleId,
    );

    /// Swap-removes a tuple id from `row`'s cell in `subspace`, returning
    /// whether it was present. When this frees the row (the row of
    /// `constraint`), `row` becomes `None`.
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
    /// dumped cells. The default refuses, matching the default
    /// [`SkylineStore::dump_cells`].
    fn load_cells(&mut self, _cells: Vec<StoreCell>) -> Result<()> {
        Err(SitFactError::InvalidConfig(
            "this skyline store does not support state import".to_string(),
        ))
    }
}
