//! File-backed skyline store (the paper's Section VI-C).
//!
//! Every non-empty `µ_{C,M}` cell is stored as one small binary file. When an
//! algorithm visits a cell, the file is read into an in-memory buffer;
//! insertions and deletions are applied to the buffer; when the algorithm
//! moves on to another cell (or the store is flushed), a dirty buffer is
//! written back, overwriting the file. The store keeps a lightweight index of
//! non-empty cells so that visiting an empty cell costs no I/O at all — the
//! property that makes `FSTopDown` beat `FSBottomUp` in the paper.
//!
//! The index is a row per constraint in a `RowIndex`, like the in-memory
//! store's: a [`RowId`] names the row, which holds the constraint (for the
//! file names) and the entry count of each of its cells that has a file. A
//! row whose last file goes is not freed on the spot but by the next
//! [`FileSkylineStore::flush`], which puts its slot on a free list for the
//! next row created; so the rows are bounded by the constraints with a file
//! plus those emptied since the last flush, as under the in-memory store.
//! Freeing at the flush rather than in `remove` keeps every handle of an
//! arrival valid through it: a cell emptied and refilled before the flush
//! still goes through the buffer it sits in, and the file I/O stays what
//! the paper's Figs. 12–13 count. A handle held across a flush may name a
//! freed row; it reads as empty until the next row is created and must be
//! dropped before then.
//!
//! ## Cell file layout
//!
//! ```text
//! cell := count:u32le id:u32le*     ids in cell order
//! ```
//!
//! Like every [`SkylineStore`], a cell holds tuple ids only — the measures
//! live in the table (see [`crate::store`]). The paper's Figs. 12–13 count
//! file reads and writes, which this layout leaves unchanged; only the bytes
//! per cell shrink.
#![deny(clippy::indexing_slicing, clippy::cast_possible_truncation)]

use crate::stats::StoreStats;
use crate::store::{RowId, RowIndex, SkylineStore};
use crate::wal::{put_len, put_u32, ByteCursor};
use sitfact_core::{Constraint, DimValueId, SubspaceMask, TupleId, UNBOUND};
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// One constraint's entry in the index.
#[derive(Debug)]
struct FileRow {
    constraint: Constraint,
    /// The entry count of each cell of the row that has a file.
    files: Vec<(SubspaceMask, u32)>,
}

/// A freed slot: no key, no files, no allocation.
impl Default for FileRow {
    fn default() -> Self {
        FileRow {
            constraint: Constraint::from_values(Vec::new()),
            files: Vec::new(),
        }
    }
}

impl FileRow {
    /// The entry count of the cell's file, if it has one.
    fn file(&self, subspace: SubspaceMask) -> Option<u32> {
        self.files
            .iter()
            .find(|&&(s, _)| s == subspace)
            .map(|&(_, count)| count)
    }
}

#[derive(Debug)]
struct CellBuffer {
    row: RowId,
    subspace: SubspaceMask,
    entries: Vec<TupleId>,
    dirty: bool,
}

/// File-backed implementation of [`SkylineStore`].
#[derive(Debug)]
pub struct FileSkylineStore {
    dir: PathBuf,
    /// The rows, with the entry counts of the non-empty cells (the index
    /// the paper implicitly maintains to know which pairs have a file at
    /// all).
    rows: RowIndex<FileRow>,
    /// Rows left without a file since the last flush, which frees those
    /// still without one (a row may be listed twice).
    emptied: Vec<RowId>,
    /// Single-cell write-back buffer: the cell currently being processed.
    buffer: Option<CellBuffer>,
    file_reads: u64,
    file_writes: u64,
    bytes_on_disk: u64,
}

impl FileSkylineStore {
    /// Creates a store rooted at `dir` (created if missing; existing cell
    /// files from a previous run are ignored).
    pub fn new(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(FileSkylineStore {
            dir,
            rows: RowIndex::default(),
            emptied: Vec::new(),
            buffer: None,
            file_reads: 0,
            file_writes: 0,
            bytes_on_disk: 0,
        })
    }

    /// Directory holding the cell files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file_name(constraint: &Constraint, subspace: SubspaceMask) -> String {
        let mut name = String::with_capacity(constraint.num_dims() * 9 + 12);
        for &v in constraint.values() {
            if v == UNBOUND {
                name.push('x');
            } else {
                name.push_str(&format!("{v:x}"));
            }
            name.push('-');
        }
        name.push_str(&format!("m{:x}.sky", subspace.0));
        name
    }

    fn path_for(&self, row: RowId, subspace: SubspaceMask) -> PathBuf {
        let constraint = &self.rows.row(row).constraint;
        self.dir.join(Self::file_name(constraint, subspace))
    }

    /// Bytes of a cell file holding `count` ids.
    fn file_bytes(count: usize) -> u64 {
        4 + 4 * count as u64
    }

    fn encode(entries: &[TupleId]) -> sitfact_core::Result<Vec<u8>> {
        let mut buf = Vec::with_capacity(4 + 4 * entries.len());
        put_len(&mut buf, entries.len(), "cell entry count")?;
        for &id in entries {
            put_u32(&mut buf, id);
        }
        Ok(buf)
    }

    /// The ids of a cell file; a count past its end keeps the ids it holds.
    fn decode(data: &[u8]) -> Vec<TupleId> {
        let mut cur = ByteCursor::new(data);
        let count = cur.get_u32().unwrap_or(0);
        (0..count).map_while(|_| cur.get_u32().ok()).collect()
    }

    /// Loads a cell into the write-back buffer, flushing any previously
    /// buffered cell first. A cell of an absent row is empty: only the
    /// previous buffer is flushed.
    fn load(&mut self, row: Option<RowId>, subspace: SubspaceMask) {
        if let Some(buffer) = &self.buffer {
            if Some(buffer.row) == row && buffer.subspace == subspace {
                return;
            }
        }
        self.flush_buffer();
        let Some(row) = row else {
            return;
        };
        let entries = if self.rows.row(row).file(subspace).is_some() {
            let path = self.path_for(row, subspace);
            match fs::File::open(&path) {
                Ok(mut file) => {
                    let mut data = Vec::new();
                    if file.read_to_end(&mut data).is_ok() {
                        self.file_reads += 1;
                        Self::decode(&data)
                    } else {
                        Vec::new()
                    }
                }
                Err(_) => Vec::new(),
            }
        } else {
            Vec::new()
        };
        self.buffer = Some(CellBuffer {
            row,
            subspace,
            entries,
            dirty: false,
        });
    }

    fn flush_buffer(&mut self) {
        let Some(buffer) = self.buffer.take() else {
            return;
        };
        if !buffer.dirty {
            return;
        }
        self.write_back(&buffer);
        if self.rows.row(buffer.row).files.is_empty() {
            self.emptied.push(buffer.row);
        }
    }

    /// Writes a dirty cell over its file, or deletes the file when the
    /// cell is empty.
    fn write_back(&mut self, buffer: &CellBuffer) {
        let path = self.path_for(buffer.row, buffer.subspace);
        let files = &mut self.rows.row_mut(buffer.row).files;
        let on_disk = files.iter().position(|&(s, _)| s == buffer.subspace);
        if buffer.entries.is_empty() {
            if let Some(pos) = on_disk {
                let (_, count) = files.swap_remove(pos);
                let _ = fs::remove_file(&path);
                self.file_writes += 1;
                self.bytes_on_disk = self
                    .bytes_on_disk
                    .saturating_sub(Self::file_bytes(count as usize));
            }
            return;
        }
        // A cell of `u32::MAX` or more entries has no file layout: unwritten.
        let (Ok(data), Ok(count)) = (
            Self::encode(&buffer.entries),
            u32::try_from(buffer.entries.len()),
        ) else {
            return;
        };
        if let Ok(mut file) = fs::File::create(&path) {
            if file.write_all(&data).is_ok() {
                self.file_writes += 1;
                let before = match on_disk.and_then(|pos| files.get_mut(pos)) {
                    Some((_, indexed)) => {
                        Self::file_bytes(std::mem::replace(indexed, count) as usize)
                    }
                    None => {
                        files.push((buffer.subspace, count));
                        0
                    }
                };
                self.bytes_on_disk = self
                    .bytes_on_disk
                    .saturating_add(data.len() as u64)
                    .saturating_sub(before);
            }
        }
    }

    /// Writes back any dirty buffered cell, then frees the rows left
    /// without a file. Also called on drop (the write-back only).
    pub fn flush(&mut self) {
        self.flush_buffer();
        for slot in std::mem::take(&mut self.emptied) {
            let row = self.rows.row(slot);
            // A row listed twice is freed once: it is unindexed by then.
            if row.files.is_empty() && self.rows.find(row.constraint.values()) == Some(slot) {
                let row = std::mem::take(self.rows.row_mut(slot));
                self.rows.free(slot, row.constraint.values());
            }
        }
    }

    /// Total number of cell files currently on disk.
    pub fn file_count(&self) -> usize {
        self.rows.slots().iter().map(|row| row.files.len()).sum()
    }

    /// Deep structural self-check; see [`sitfact_core::audit::Audit`].
    pub fn audit(&self) -> Result<(), sitfact_core::AuditViolation> {
        sitfact_core::Audit::check(self)
    }
}

/// Checks the index every handle and the "empty cells cost no I/O" property
/// rest on: every slot is either indexed (once, under its own constraint)
/// or free (once, with no files); an indexed row without a file is awaiting
/// the next flush (it is buffered or listed as emptied); and every indexed
/// cell decodes from its file to exactly the indexed entry count with unique
/// ids. The currently buffered cell is checked against the buffer instead (a
/// dirty buffer is deliberately ahead of its file until the next flush).
impl sitfact_core::Audit for FileSkylineStore {
    fn check(&self) -> Result<(), sitfact_core::AuditViolation> {
        use sitfact_core::AuditViolation;
        let fail = |invariant: &'static str, detail: String| {
            Err(AuditViolation::new("FileSkylineStore", invariant, detail))
        };
        self.rows
            .audit("FileSkylineStore", |row| row.files.is_empty())?;
        for (constraint, row) in self.rows.indexed() {
            let indexed = self.rows.row(row);
            if indexed.constraint != *constraint {
                return fail(
                    "index-names-every-row",
                    format!("constraint {constraint:?} maps to {row:?}, another row"),
                );
            }
            let pending =
                self.buffer.as_ref().is_some_and(|b| b.row == row) || self.emptied.contains(&row);
            if indexed.files.is_empty() && !pending {
                return fail(
                    "no-empty-rows",
                    format!("constraint {constraint:?} keeps a row without files"),
                );
            }
        }
        for (slot, row) in self.rows.slots().iter().enumerate() {
            for &(subspace, count) in &row.files {
                let name = Self::file_name(&row.constraint, subspace);
                if count == 0 {
                    return fail(
                        "index-counts-positive",
                        format!("cell {name:?} is indexed with zero entries"),
                    );
                }
                let buffered = self
                    .buffer
                    .as_ref()
                    .filter(|b| b.row.slot() == slot && b.subspace == subspace);
                if let Some(buffer) = buffered {
                    if !buffer.dirty && buffer.entries.len() != count as usize {
                        return fail(
                            "buffer-matches-index",
                            format!(
                                "clean buffer for cell {name:?} holds {} entries, index says \
                                 {count}",
                                buffer.entries.len()
                            ),
                        );
                    }
                    continue;
                }
                let path = self.dir.join(&name);
                let data = match fs::read(&path) {
                    Ok(data) => data,
                    Err(err) => {
                        return fail(
                            "index-has-file",
                            format!("indexed cell file {path:?} is unreadable: {err}"),
                        )
                    }
                };
                let entries = Self::decode(&data);
                if entries.len() != count as usize {
                    return fail(
                        "file-matches-index",
                        format!(
                            "cell file {path:?} decodes to {} entries, index says {count}",
                            entries.len()
                        ),
                    );
                }
                for (pos, id) in entries.iter().enumerate() {
                    if entries.iter().take(pos).any(|other| other == id) {
                        return fail(
                            "unique-ids-per-cell",
                            format!("cell file {path:?} stores id {id} twice"),
                        );
                    }
                }
            }
        }
        Ok(())
    }
}

impl Drop for FileSkylineStore {
    fn drop(&mut self) {
        self.flush_buffer();
    }
}

impl SkylineStore for FileSkylineStore {
    fn find(&self, constraint: &[DimValueId]) -> Option<RowId> {
        self.rows.find(constraint)
    }

    fn read(&mut self, row: Option<RowId>, subspace: SubspaceMask, out: &mut Vec<TupleId>) {
        self.load(row, subspace);
        out.clear();
        if let Some(buffer) = &self.buffer {
            out.extend_from_slice(&buffer.entries);
        }
    }

    fn insert(
        &mut self,
        row: &mut Option<RowId>,
        constraint: &[DimValueId],
        subspace: SubspaceMask,
        id: TupleId,
    ) {
        let slot = *row.get_or_insert_with(|| {
            let created = FileRow {
                constraint: Constraint::from_values(constraint.to_vec()),
                files: Vec::new(),
            };
            self.rows.create(constraint, created)
        });
        self.load(Some(slot), subspace);
        if let Some(buffer) = &mut self.buffer {
            buffer.entries.push(id);
            buffer.dirty = true;
        }
    }

    fn remove(
        &mut self,
        row: &mut Option<RowId>,
        _constraint: &[DimValueId],
        subspace: SubspaceMask,
        id: TupleId,
    ) -> bool {
        // Rows are freed by `flush`, not here (see the module
        // documentation), so the handle stays as it is.
        self.load(*row, subspace);
        if let Some(buffer) = &mut self.buffer {
            if let Some(pos) = buffer.entries.iter().position(|&e| e == id) {
                buffer.entries.swap_remove(pos);
                buffer.dirty = true;
                return true;
            }
        }
        false
    }

    fn contains(&mut self, row: Option<RowId>, subspace: SubspaceMask, id: TupleId) -> bool {
        self.load(row, subspace);
        self.buffer
            .as_ref()
            .is_some_and(|b| b.entries.contains(&id))
    }

    fn stats(&self) -> StoreStats {
        let on_disk = self.rows.slots().iter().flat_map(|row| &row.files);
        let stored_entries: u64 = on_disk.clone().map(|&(_, c)| c as u64).sum::<u64>()
            + self
                .buffer
                .as_ref()
                .map(|b| {
                    let indexed = self.rows.row(b.row).file(b.subspace).unwrap_or(0) as i64;
                    (b.entries.len() as i64 - indexed).max(0) as u64
                })
                .unwrap_or(0);
        StoreStats {
            stored_entries,
            non_empty_cells: on_disk.count() as u64,
            approx_bytes: self.bytes_on_disk,
            file_reads: self.file_reads,
            file_writes: self.file_writes,
        }
    }

    fn clear(&mut self) {
        self.buffer = None;
        for row in self.rows.slots() {
            for &(subspace, _) in &row.files {
                let _ = fs::remove_file(self.dir.join(Self::file_name(&row.constraint, subspace)));
            }
        }
        self.rows.clear();
        self.emptied.clear();
        self.bytes_on_disk = 0;
    }

    fn flush(&mut self) {
        FileSkylineStore::flush(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sitfact-filestore-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn constraint(values: Vec<u32>) -> Constraint {
        Constraint::from_values(values)
    }

    fn read(store: &mut FileSkylineStore, c: &Constraint, m: SubspaceMask) -> Vec<TupleId> {
        let mut ids = Vec::new();
        store.read(store.find(c.values()), m, &mut ids);
        ids
    }

    fn insert(store: &mut FileSkylineStore, c: &Constraint, m: SubspaceMask, id: TupleId) {
        let mut row = store.find(c.values());
        store.insert(&mut row, c.values(), m, id);
    }

    fn remove(store: &mut FileSkylineStore, c: &Constraint, m: SubspaceMask, id: TupleId) -> bool {
        let mut row = store.find(c.values());
        store.remove(&mut row, c.values(), m, id)
    }

    fn contains(
        store: &mut FileSkylineStore,
        c: &Constraint,
        m: SubspaceMask,
        id: TupleId,
    ) -> bool {
        store.contains(store.find(c.values()), m, id)
    }

    #[test]
    fn round_trip_through_files() {
        let dir = temp_dir("roundtrip");
        let mut store = FileSkylineStore::new(&dir).unwrap();
        let c = constraint(vec![1, UNBOUND]);
        let m = SubspaceMask(0b11);
        insert(&mut store, &c, m, 0);
        insert(&mut store, &c, m, 1);
        // Force the buffer out to disk, then read it back.
        store.flush();
        assert_eq!(store.file_count(), 1);
        assert_eq!(read(&mut store, &c, m), vec![0, 1]);
        assert_eq!(fs::read(dir.join("1-x-m3.sky")).unwrap().len(), 12);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn persists_across_buffer_eviction() {
        let dir = temp_dir("evict");
        let mut store = FileSkylineStore::new(&dir).unwrap();
        let c1 = constraint(vec![1]);
        let c2 = constraint(vec![2]);
        insert(&mut store, &c1, SubspaceMask(1), 0);
        // Touching another cell evicts (and persists) the first one.
        insert(&mut store, &c2, SubspaceMask(1), 1);
        assert_eq!(read(&mut store, &c1, SubspaceMask(1)).len(), 1);
        assert_eq!(read(&mut store, &c2, SubspaceMask(1)).len(), 1);
        let stats = store.stats();
        assert!(stats.file_writes >= 1);
        assert!(stats.file_reads >= 1);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_and_contains() {
        let dir = temp_dir("remove");
        let mut store = FileSkylineStore::new(&dir).unwrap();
        let c = constraint(vec![7, 8]);
        let m = SubspaceMask(0b01);
        insert(&mut store, &c, m, 5);
        assert!(contains(&mut store, &c, m, 5));
        assert!(!contains(&mut store, &c, m, 6));
        assert!(remove(&mut store, &c, m, 5));
        assert!(!remove(&mut store, &c, m, 5));
        store.flush();
        // The now-empty cell's file must be gone, and its bytes with it.
        assert_eq!(store.file_count(), 0);
        assert_eq!(store.stats().approx_bytes, 0);
        assert!(read(&mut store, &c, m).is_empty());
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_cells_cost_no_reads() {
        let dir = temp_dir("noreads");
        let mut store = FileSkylineStore::new(&dir).unwrap();
        let c = constraint(vec![1]);
        for i in 0..50u32 {
            let other = constraint(vec![100 + i]);
            let _ = read(&mut store, &other, SubspaceMask(1));
        }
        assert_eq!(store.stats().file_reads, 0);
        insert(&mut store, &c, SubspaceMask(1), 0);
        store.flush();
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_count_entries_including_buffer() {
        let dir = temp_dir("stats");
        let mut store = FileSkylineStore::new(&dir).unwrap();
        let c = constraint(vec![1]);
        insert(&mut store, &c, SubspaceMask(1), 0);
        insert(&mut store, &c, SubspaceMask(1), 1);
        // Not yet flushed: entries still counted.
        assert_eq!(store.stats().stored_entries, 2);
        store.flush();
        assert_eq!(store.stats().stored_entries, 2);
        assert_eq!(store.stats().non_empty_cells, 1);
        // `count:u32 id:u32*`.
        assert_eq!(store.stats().approx_bytes, 4 + 2 * 4);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_removes_files() {
        let dir = temp_dir("clear");
        let mut store = FileSkylineStore::new(&dir).unwrap();
        let c = constraint(vec![1]);
        insert(&mut store, &c, SubspaceMask(1), 0);
        store.flush();
        assert_eq!(store.file_count(), 1);
        store.clear();
        assert_eq!(store.file_count(), 0);
        assert!(read(&mut store, &c, SubspaceMask(1)).is_empty());
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A row outlives its files until the next flush: the handle found
    /// before the last remove still addresses the constraint after the file
    /// is gone, and an insert through it lands in the same row. The flush
    /// frees a row left without files, and the next row created takes its
    /// slot.
    #[test]
    fn rows_live_until_the_flush_after_their_last_file() {
        let dir = temp_dir("rows");
        let mut store = FileSkylineStore::new(&dir).unwrap();
        let (c, other) = (constraint(vec![3, UNBOUND]), constraint(vec![UNBOUND, 6]));
        let (m1, m2) = (SubspaceMask(1), SubspaceMask(2));
        insert(&mut store, &c, m1, 4);
        insert(&mut store, &c, m2, 7);
        store.flush();
        let mut row = store.find(c.values());
        assert!(store.remove(&mut row, c.values(), m1, 4));
        // Moving to the other cell writes the emptied one back (its file
        // goes) but frees nothing.
        assert!(store.contains(row, m2, 7));
        assert!(store.remove(&mut row, c.values(), m2, 7));
        assert!(!store.contains(row, m1, 4));
        assert_eq!(store.file_count(), 0);
        assert!(row.is_some());
        assert_eq!(store.find(c.values()), row);
        store.audit().unwrap();
        store.insert(&mut row, c.values(), m1, 5);
        store.flush();
        assert_eq!(read(&mut store, &c, m1), vec![5]);
        assert_eq!(store.find(c.values()), row, "a refilled row is kept");
        store.audit().unwrap();

        assert!(remove(&mut store, &c, m1, 5));
        store.flush();
        assert_eq!(store.find(c.values()), None);
        assert_eq!(store.rows.indexed().count(), 0);
        assert_eq!(store.rows.slots().len(), 1);
        store.audit().unwrap();
        let mut created = None;
        store.insert(&mut created, other.values(), m1, 8);
        assert_eq!(created, row, "the freed slot is reused");
        assert_eq!(store.rows.slots().len(), 1);
        store.flush();
        assert_eq!(read(&mut store, &other, m1), vec![8]);
        assert!(read(&mut store, &c, m1).is_empty());
        store.audit().unwrap();
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Emptying rows and refilling others, flush after flush, keeps the
    /// arena at the rows alive at once instead of every constraint ever
    /// written.
    #[test]
    fn a_sliding_window_reuses_its_rows() {
        let dir = temp_dir("window");
        let mut store = FileSkylineStore::new(&dir).unwrap();
        let m = SubspaceMask(1);
        for id in 0..100u32 {
            insert(&mut store, &constraint(vec![id]), m, id);
            if id >= 4 {
                assert!(remove(&mut store, &constraint(vec![id - 4]), m, id - 4));
            }
            store.flush();
            store.audit().unwrap();
        }
        assert_eq!(store.file_count(), 4);
        assert_eq!(store.rows.indexed().count(), 4);
        let arena = store.rows.slots().len();
        assert!(arena <= 5, "{arena} rows");
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn encode_decode_is_lossless() {
        let entries = vec![1, 42, 7];
        let encoded = FileSkylineStore::encode(&entries).unwrap();
        let decoded = FileSkylineStore::decode(&encoded);
        assert_eq!(entries, decoded);
        assert!(FileSkylineStore::decode(&[]).is_empty());
        assert!(FileSkylineStore::decode(&[1, 2, 3]).is_empty());
        // A count running past the bytes keeps the ids that are there.
        assert_eq!(
            FileSkylineStore::decode(&encoded[..encoded.len() - 2]),
            vec![1, 42]
        );
    }
}
