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
use sitfact_core::{Constraint, DimValueId, Result, SitFactError, SubspaceMask, TupleId};

/// One dumped cell of a [`SkylineStore`] in plain-data form: the constraint's
/// raw value ids, the subspace bits and the stored tuple ids, as produced by
/// [`SkylineStore::dump_cells`] and consumed by [`SkylineStore::load_cells`].
/// This is the serialization surface of the durability layer — see
/// `crate::wal::encode_cells`.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreCell {
    /// The cell's constraint as raw dimension value ids
    /// ([`Constraint::values`]; `UNBOUND` marks free dimensions).
    pub constraint: Vec<DimValueId>,
    /// The cell's measure subspace bits ([`SubspaceMask`]`::0`).
    pub subspace: u32,
    /// The stored tuple ids, in cell order.
    pub entries: Vec<TupleId>,
}

/// Cell-level access to the skyline tuples stored per `(C, M)` pair.
///
/// All methods take `&mut self` because the file-backed implementation keeps
/// per-cell buffers and I/O counters that mutate even on reads.
pub trait SkylineStore {
    /// Replaces the contents of `out` with the ids of cell
    /// `(constraint, subspace)`, in cell order. The caller owns the buffer,
    /// so it may keep iterating it while it mutates the same cell, and one
    /// buffer serves every read of a traversal.
    fn read(&mut self, constraint: &Constraint, subspace: SubspaceMask, out: &mut Vec<TupleId>);

    /// Appends a tuple id to a cell. The caller guarantees the id is not
    /// already present.
    fn insert(&mut self, constraint: &Constraint, subspace: SubspaceMask, id: TupleId);

    /// Swap-removes a tuple id from a cell, returning whether it was present.
    fn remove(&mut self, constraint: &Constraint, subspace: SubspaceMask, id: TupleId) -> bool;

    /// Whether the cell contains the given tuple id.
    fn contains(&mut self, constraint: &Constraint, subspace: SubspaceMask, id: TupleId) -> bool;

    /// Storage statistics (entries, bytes, I/O counters).
    fn stats(&self) -> StoreStats;

    /// Removes every cell.
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

    /// Replaces this store's contents with previously dumped cells. The
    /// default refuses, matching the default [`SkylineStore::dump_cells`].
    fn load_cells(&mut self, _cells: Vec<StoreCell>) -> Result<()> {
        Err(SitFactError::InvalidConfig(
            "this skyline store does not support state import".to_string(),
        ))
    }
}
