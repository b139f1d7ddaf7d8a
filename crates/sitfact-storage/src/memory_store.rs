//! In-memory skyline store: a hash map from constraint to that constraint's
//! few subspace cells, each a copy-on-write vector of entries.

use crate::stats::StoreStats;
use crate::store::{SkylineStore, StoreCell, StoredEntry};
use sitfact_core::{Constraint, FxHashMap, SubspaceMask, TupleId};
use std::sync::Arc;

/// In-memory implementation of [`SkylineStore`].
///
/// Cells are created lazily on first insert; empty cells are removed so that
/// the map size tracks the number of *non-empty* cells (which is what the
/// file-backed variant pays I/O for and what the memory experiment reports).
///
/// Cell contents are `Arc<Vec<_>>`: a read is a reference-count bump (the
/// discovery algorithms read a cell once per visited constraint per subspace,
/// which is by far the hottest operation), and mutations copy-on-write only
/// when a snapshot of the same cell is still alive.
///
/// A constraint has at most `2^m − 1` cells and typically a handful, so its
/// row is a plain vector scanned linearly rather than a second hash map.
#[derive(Debug)]
pub struct MemorySkylineStore {
    cells: FxHashMap<Constraint, CellRow>,
    stored_entries: u64,
    non_empty_cells: u64,
    empty: Arc<Vec<StoredEntry>>,
}

/// The non-empty cells of one constraint, in first-insert order.
type CellRow = Vec<(SubspaceMask, Arc<Vec<StoredEntry>>)>;

impl Default for MemorySkylineStore {
    fn default() -> Self {
        MemorySkylineStore {
            cells: FxHashMap::default(),
            stored_entries: 0,
            non_empty_cells: 0,
            empty: Arc::new(Vec::new()),
        }
    }
}

impl MemorySkylineStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Iterates over all non-empty cells (used by prominence queries and by
    /// tests asserting the paper's invariants).
    pub fn iter_cells(&self) -> impl Iterator<Item = (&Constraint, SubspaceMask, &[StoredEntry])> {
        self.cells.iter().flat_map(|(constraint, row)| {
            row.iter()
                .map(move |(subspace, entries)| (constraint, *subspace, entries.as_slice()))
        })
    }

    /// Number of entries stored in a specific cell without copying them.
    pub fn cell_len(&self, constraint: &Constraint, subspace: SubspaceMask) -> usize {
        self.cell(constraint, subspace)
            .map_or(0, |entries| entries.len())
    }

    fn cell(
        &self,
        constraint: &Constraint,
        subspace: SubspaceMask,
    ) -> Option<&Arc<Vec<StoredEntry>>> {
        let row = self.cells.get(constraint)?;
        let (_, cell) = row.iter().find(|(s, _)| *s == subspace)?;
        Some(cell)
    }

    /// Deep structural self-check; see [`sitfact_core::audit::Audit`].
    #[cfg(any(test, debug_assertions, feature = "deep-audit"))]
    pub fn audit(&self) -> Result<(), sitfact_core::AuditViolation> {
        sitfact_core::Audit::check(self)
    }

    /// Extends [`MemorySkylineStore::audit`] with the semantic skyline
    /// invariant, which needs the measure directions the store itself does
    /// not hold: every stored cell must *be* its own skyline — recomputing
    /// the skyline of the stored members in the cell's subspace must keep
    /// them all (no stored entry dominates another).
    #[cfg(any(test, debug_assertions, feature = "deep-audit"))]
    pub fn audit_with_directions(
        &self,
        directions: &[sitfact_core::Direction],
    ) -> Result<(), sitfact_core::AuditViolation> {
        self.audit()?;
        for (constraint, subspace, entries) in self.iter_cells() {
            for a in entries {
                for b in entries {
                    if dominates_measures(&a.measures, &b.measures, subspace, directions) {
                        return Err(sitfact_core::AuditViolation::new(
                            "MemorySkylineStore",
                            "cell-is-own-skyline",
                            format!(
                                "in cell ({constraint:?}, {subspace:?}) stored entry {} \
                                 dominates stored entry {} — recomputing the skyline from \
                                 the members would drop {}",
                                a.id, b.id, b.id
                            ),
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// `dominates` over raw measure slices (a [`StoredEntry`] has no dimension
/// columns, so it cannot be a `TupleView`).
#[cfg(any(test, debug_assertions, feature = "deep-audit"))]
fn dominates_measures(
    left: &[f64],
    right: &[f64],
    m: SubspaceMask,
    directions: &[sitfact_core::Direction],
) -> bool {
    let mut strictly_better = false;
    for i in m.indices() {
        let (a, b) = (left[i], right[i]);
        if a == b {
            continue;
        }
        if directions[i].better(a, b) {
            strictly_better = true;
        } else {
            return false;
        }
    }
    strictly_better
}

/// Re-derives the store's denormalized bookkeeping from the cell contents:
/// entry/cell counters, no retained empty cells or rows (reads of absent
/// cells must stay allocation-free), one cell per subspace within a row, and
/// id uniqueness plus uniform measure arity within each cell.
#[cfg(any(test, debug_assertions, feature = "deep-audit"))]
impl sitfact_core::Audit for MemorySkylineStore {
    fn check(&self) -> Result<(), sitfact_core::AuditViolation> {
        use sitfact_core::AuditViolation;
        let fail = |invariant: &'static str, detail: String| {
            Err(AuditViolation::new("MemorySkylineStore", invariant, detail))
        };
        let mut entries = 0u64;
        let mut cells = 0u64;
        for (constraint, row) in &self.cells {
            if row.is_empty() {
                return fail(
                    "no-empty-cells",
                    format!("constraint {constraint:?} maps to an empty row of cells"),
                );
            }
            for (pos, (subspace, cell)) in row.iter().enumerate() {
                let subspace = *subspace;
                if row[..pos].iter().any(|(prior, _)| *prior == subspace) {
                    return fail(
                        "unique-subspaces-per-row",
                        format!("constraint {constraint:?} holds two cells for {subspace:?}"),
                    );
                }
                if cell.is_empty() {
                    return fail(
                        "no-empty-cells",
                        format!("cell ({constraint:?}, {subspace:?}) is retained but empty"),
                    );
                }
                cells += 1;
                entries += cell.len() as u64;
                let arity = cell[0].measures.len();
                for (pos, entry) in cell.iter().enumerate() {
                    if entry.measures.len() != arity {
                        return fail(
                            "uniform-measure-arity",
                            format!(
                                "cell ({constraint:?}, {subspace:?}) entry {} holds {} \
                                 measures where the cell's first entry holds {arity}",
                                entry.id,
                                entry.measures.len()
                            ),
                        );
                    }
                    if cell[..pos].iter().any(|prior| prior.id == entry.id) {
                        return fail(
                            "unique-ids-per-cell",
                            format!(
                                "cell ({constraint:?}, {subspace:?}) stores id {} twice",
                                entry.id
                            ),
                        );
                    }
                }
            }
        }
        if entries != self.stored_entries {
            return fail(
                "entry-counter",
                format!(
                    "stored_entries = {} but the cells hold {entries} entries",
                    self.stored_entries
                ),
            );
        }
        if cells != self.non_empty_cells {
            return fail(
                "cell-counter",
                format!(
                    "non_empty_cells = {} but {cells} non-empty cells exist",
                    self.non_empty_cells
                ),
            );
        }
        if !self.empty.is_empty() {
            return fail(
                "empty-sentinel",
                format!(
                    "the shared empty-cell sentinel holds {} entries",
                    self.empty.len()
                ),
            );
        }
        Ok(())
    }
}

impl SkylineStore for MemorySkylineStore {
    fn read(&mut self, constraint: &Constraint, subspace: SubspaceMask) -> Arc<Vec<StoredEntry>> {
        self.cell(constraint, subspace)
            .unwrap_or(&self.empty)
            .clone()
    }

    fn insert(&mut self, constraint: &Constraint, subspace: SubspaceMask, entry: StoredEntry) {
        self.stored_entries += 1;
        // The key is cloned only for a constraint's first cell.
        let row = match self.cells.get_mut(constraint) {
            Some(row) => row,
            None => self.cells.entry(constraint.clone()).or_default(),
        };
        match row.iter_mut().find(|(s, _)| *s == subspace) {
            Some((_, cell)) => Arc::make_mut(cell).push(entry),
            None => {
                row.push((subspace, Arc::new(vec![entry])));
                self.non_empty_cells += 1;
            }
        }
    }

    fn remove(&mut self, constraint: &Constraint, subspace: SubspaceMask, id: TupleId) -> bool {
        let Some(row) = self.cells.get_mut(constraint) else {
            return false;
        };
        let Some(slot) = row.iter().position(|(s, _)| *s == subspace) else {
            return false;
        };
        let cell = &mut row[slot].1;
        let Some(pos) = cell.iter().position(|e| e.id == id) else {
            return false;
        };
        Arc::make_mut(cell).swap_remove(pos);
        self.stored_entries -= 1;
        if cell.is_empty() {
            row.swap_remove(slot);
            self.non_empty_cells -= 1;
            if row.is_empty() {
                self.cells.remove(constraint);
            }
        }
        true
    }

    fn contains(&mut self, constraint: &Constraint, subspace: SubspaceMask, id: TupleId) -> bool {
        self.cell(constraint, subspace)
            .is_some_and(|cell| cell.iter().any(|e| e.id == id))
    }

    fn stats(&self) -> StoreStats {
        // Estimate bytes from the actual layout: per constraint the key
        // (inline box + boxed values); per cell its slot in the row; per
        // entry the inline `StoredEntry` plus its share of the `Arc<[f64]>`
        // allocation (counts + measures). An arrival's entries all share one
        // allocation, which must count once: each holder accounts for
        // `1 / strong_count` of it (a holder outside the store — a snapshot
        // being copied on write — is short-lived and would only lower the
        // estimate while it lives).
        use std::mem::size_of;
        let mut bytes = 0u64;
        let mut shared_bytes = 0f64;
        for (constraint, row) in &self.cells {
            bytes += (size_of::<Constraint>()
                + constraint.num_dims() * size_of::<sitfact_core::DimValueId>())
                as u64;
            for (_, cell) in row {
                bytes += (size_of::<(SubspaceMask, Arc<Vec<StoredEntry>>)>()
                    + cell.len() * size_of::<StoredEntry>()) as u64;
                for entry in cell.iter() {
                    let allocation =
                        2 * size_of::<usize>() + entry.measures.len() * size_of::<f64>();
                    shared_bytes += allocation as f64 / Arc::strong_count(&entry.measures) as f64;
                }
            }
        }
        bytes += shared_bytes.round() as u64;
        StoreStats {
            stored_entries: self.stored_entries,
            non_empty_cells: self.non_empty_cells,
            approx_bytes: bytes,
            file_reads: 0,
            file_writes: 0,
        }
    }

    fn clear(&mut self) {
        self.cells.clear();
        self.stored_entries = 0;
        self.non_empty_cells = 0;
    }

    fn dump_cells(&self) -> Option<Vec<StoreCell>> {
        Some(
            self.iter_cells()
                .map(|(constraint, subspace, entries)| StoreCell {
                    constraint: constraint.values().to_vec(),
                    subspace: subspace.0,
                    entries: entries
                        .iter()
                        .map(|e| (e.id, e.measures.to_vec()))
                        .collect(),
                })
                .collect(),
        )
    }

    fn load_cells(&mut self, cells: Vec<StoreCell>) -> sitfact_core::Result<()> {
        self.clear();
        // As after live ingest, a tuple's entries share one measure
        // allocation (compared, not assumed: the cells come from disk).
        let mut by_id: FxHashMap<TupleId, Arc<[f64]>> = FxHashMap::default();
        for cell in cells {
            let constraint = Constraint::from_values(cell.constraint);
            let subspace = SubspaceMask(cell.subspace);
            for (id, measures) in cell.entries {
                let shared = by_id
                    .entry(id)
                    .or_insert_with(|| measures.as_slice().into());
                let measures = if **shared == *measures {
                    Arc::clone(shared)
                } else {
                    measures.into()
                };
                self.insert(&constraint, subspace, StoredEntry { id, measures });
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

    #[test]
    fn insert_read_remove_cycle() {
        let mut store = MemorySkylineStore::new();
        let c = constraint(vec![1, u32::MAX]);
        let m = SubspaceMask(0b11);
        assert!(store.read(&c, m).is_empty());

        store.insert(&c, m, StoredEntry::new(0, &[1.0, 2.0]));
        store.insert(&c, m, StoredEntry::new(1, &[3.0, 4.0]));
        assert_eq!(store.read(&c, m).len(), 2);
        assert!(store.contains(&c, m, 0));
        assert!(store.contains(&c, m, 1));
        assert!(!store.contains(&c, m, 2));
        assert_eq!(store.cell_len(&c, m), 2);

        assert!(store.remove(&c, m, 0));
        assert!(!store.remove(&c, m, 0));
        assert_eq!(store.read(&c, m).len(), 1);
        assert_eq!(store.read(&c, m)[0].id, 1);
    }

    #[test]
    fn read_snapshots_survive_mutation() {
        // The algorithms read a cell and keep iterating the snapshot while
        // removing entries from the same cell; copy-on-write must keep the
        // snapshot intact.
        let mut store = MemorySkylineStore::new();
        let c = constraint(vec![5]);
        let m = SubspaceMask(0b1);
        store.insert(&c, m, StoredEntry::new(0, &[1.0]));
        store.insert(&c, m, StoredEntry::new(1, &[2.0]));
        let snapshot = store.read(&c, m);
        assert!(store.remove(&c, m, 0));
        store.insert(&c, m, StoredEntry::new(2, &[3.0]));
        assert_eq!(snapshot.len(), 2, "snapshot must be unaffected");
        assert_eq!(store.cell_len(&c, m), 2);
        assert!(store.contains(&c, m, 2));
        assert!(!store.contains(&c, m, 0));
    }

    #[test]
    fn cells_are_independent() {
        let mut store = MemorySkylineStore::new();
        let c1 = constraint(vec![1, u32::MAX]);
        let c2 = constraint(vec![u32::MAX, 2]);
        store.insert(&c1, SubspaceMask(0b01), StoredEntry::new(0, &[1.0]));
        store.insert(&c1, SubspaceMask(0b10), StoredEntry::new(0, &[1.0]));
        store.insert(&c2, SubspaceMask(0b01), StoredEntry::new(1, &[2.0]));
        assert_eq!(store.read(&c1, SubspaceMask(0b01)).len(), 1);
        assert_eq!(store.read(&c1, SubspaceMask(0b10)).len(), 1);
        assert_eq!(store.read(&c2, SubspaceMask(0b01)).len(), 1);
        assert_eq!(store.read(&c2, SubspaceMask(0b10)).len(), 0);
        assert_eq!(store.stats().stored_entries, 3);
        assert_eq!(store.stats().non_empty_cells, 3);
    }

    #[test]
    fn stats_track_entries_and_bytes() {
        use std::mem::size_of;
        let mut store = MemorySkylineStore::new();
        let c = constraint(vec![0]);
        assert_eq!(store.stats().approx_bytes, 0);
        for i in 0..10 {
            store.insert(&c, SubspaceMask(1), StoredEntry::new(i, &[i as f64]));
        }
        let stats = store.stats();
        assert_eq!(stats.stored_entries, 10);
        assert_eq!(stats.non_empty_cells, 1);
        assert_eq!(stats.file_reads, 0);
        assert_eq!(stats.file_writes, 0);
        // The formula, term by term: one key, one cell slot, ten inline
        // entries, ten measure allocations of their own.
        let key = size_of::<Constraint>() + size_of::<sitfact_core::DimValueId>();
        let slot = size_of::<(SubspaceMask, Arc<Vec<StoredEntry>>)>();
        let allocation = 2 * size_of::<usize>() + size_of::<f64>();
        let own = key + slot + 10 * (size_of::<StoredEntry>() + allocation);
        assert_eq!(stats.approx_bytes, own as u64);

        // One tuple entering three more cells shares one allocation, which
        // counts once however many cells hold it.
        let arrival = StoredEntry::new(10, &[10.0]);
        for bits in [0b01, 0b10, 0b11] {
            store.insert(&c, SubspaceMask(bits), arrival.clone());
        }
        drop(arrival);
        let shared = 2 * slot + 3 * size_of::<StoredEntry>() + allocation;
        assert_eq!(store.stats().approx_bytes, (own + shared) as u64);

        // A reloaded dump shares per tuple id again: same bytes.
        let mut reloaded = MemorySkylineStore::new();
        reloaded.load_cells(store.dump_cells().unwrap()).unwrap();
        assert_eq!(reloaded.stats(), store.stats());
        reloaded.audit().unwrap();
    }

    #[test]
    fn removing_last_entry_removes_the_cell() {
        let mut store = MemorySkylineStore::new();
        let c = constraint(vec![0]);
        store.insert(&c, SubspaceMask(1), StoredEntry::new(0, &[1.0]));
        assert_eq!(store.stats().non_empty_cells, 1);
        store.remove(&c, SubspaceMask(1), 0);
        assert_eq!(store.stats().non_empty_cells, 0);
        assert_eq!(store.stats().stored_entries, 0);
    }

    #[test]
    fn clear_empties_everything() {
        let mut store = MemorySkylineStore::new();
        let c = constraint(vec![0]);
        store.insert(&c, SubspaceMask(1), StoredEntry::new(0, &[1.0]));
        store.clear();
        assert_eq!(store.stats(), StoreStats::default());
        assert!(store.read(&c, SubspaceMask(1)).is_empty());
    }

    #[test]
    fn iter_cells_visits_all() {
        let mut store = MemorySkylineStore::new();
        let c1 = constraint(vec![1]);
        let c2 = constraint(vec![2]);
        store.insert(&c1, SubspaceMask(1), StoredEntry::new(0, &[1.0]));
        store.insert(&c2, SubspaceMask(1), StoredEntry::new(1, &[2.0]));
        let cells: Vec<_> = store.iter_cells().collect();
        assert_eq!(cells.len(), 2);
        let total: usize = cells.iter().map(|(_, _, entries)| entries.len()).sum();
        assert_eq!(total, 2);
    }
}
