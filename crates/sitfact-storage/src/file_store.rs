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

use crate::stats::StoreStats;
use crate::store::SkylineStore;
use bytes::{Buf, BufMut, BytesMut};
use sitfact_core::{Constraint, FxHashMap, SubspaceMask, TupleId, UNBOUND};
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CellKey {
    constraint: Constraint,
    subspace: SubspaceMask,
}

#[derive(Debug)]
struct CellBuffer {
    key: CellKey,
    entries: Vec<TupleId>,
    dirty: bool,
}

/// File-backed implementation of [`SkylineStore`].
#[derive(Debug)]
pub struct FileSkylineStore {
    dir: PathBuf,
    /// Entry counts of the non-empty cells (the index the paper implicitly
    /// maintains to know which pairs have a file at all).
    index: FxHashMap<CellKey, u32>,
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
            index: FxHashMap::default(),
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

    fn key(constraint: &Constraint, subspace: SubspaceMask) -> CellKey {
        CellKey {
            constraint: constraint.clone(),
            subspace,
        }
    }

    fn file_name(key: &CellKey) -> String {
        let mut name = String::with_capacity(key.constraint.num_dims() * 9 + 12);
        for &v in key.constraint.values() {
            if v == UNBOUND {
                name.push('x');
            } else {
                name.push_str(&format!("{v:x}"));
            }
            name.push('-');
        }
        name.push_str(&format!("m{:x}.sky", key.subspace.0));
        name
    }

    fn path_for(&self, key: &CellKey) -> PathBuf {
        self.dir.join(Self::file_name(key))
    }

    /// Bytes of a cell file holding `count` ids.
    fn file_bytes(count: usize) -> u64 {
        4 + 4 * count as u64
    }

    fn encode(entries: &[TupleId]) -> BytesMut {
        let mut buf = BytesMut::with_capacity(Self::file_bytes(entries.len()) as usize);
        buf.put_u32_le(entries.len() as u32);
        for &id in entries {
            buf.put_u32_le(id);
        }
        buf
    }

    fn decode(mut data: &[u8]) -> Vec<TupleId> {
        if data.len() < 4 {
            return Vec::new();
        }
        let count = (data.get_u32_le() as usize).min(data.remaining() / 4);
        (0..count).map(|_| data.get_u32_le()).collect()
    }

    /// Loads a cell into the write-back buffer, flushing any previously
    /// buffered cell first.
    fn load(&mut self, key: CellKey) {
        if let Some(buffer) = &self.buffer {
            if buffer.key == key {
                return;
            }
        }
        self.flush_buffer();
        let entries = if self.index.contains_key(&key) {
            let path = self.path_for(&key);
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
            key,
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
        let path = self.path_for(&buffer.key);
        if buffer.entries.is_empty() {
            if let Some(count) = self.index.remove(&buffer.key) {
                let _ = fs::remove_file(&path);
                self.file_writes += 1;
                self.bytes_on_disk = self
                    .bytes_on_disk
                    .saturating_sub(Self::file_bytes(count as usize));
            }
            return;
        }
        let data = Self::encode(&buffer.entries);
        if let Ok(mut file) = fs::File::create(&path) {
            if file.write_all(&data).is_ok() {
                self.file_writes += 1;
                let before = self
                    .index
                    .get(&buffer.key)
                    .map_or(0, |&count| Self::file_bytes(count as usize));
                self.bytes_on_disk = self
                    .bytes_on_disk
                    .saturating_add(data.len() as u64)
                    .saturating_sub(before);
                self.index
                    .insert(buffer.key.clone(), buffer.entries.len() as u32);
            }
        }
    }

    /// Writes back any dirty buffered cell. Also called on drop.
    pub fn flush(&mut self) {
        self.flush_buffer();
    }

    /// Total number of cell files currently on disk.
    pub fn file_count(&self) -> usize {
        self.index.len()
    }

    /// Deep structural self-check; see [`sitfact_core::audit::Audit`].
    #[cfg(any(test, debug_assertions, feature = "deep-audit"))]
    pub fn audit(&self) -> Result<(), sitfact_core::AuditViolation> {
        sitfact_core::Audit::check(self)
    }
}

/// Checks the index-≡-disk invariant the store's "empty cells cost no I/O"
/// property rests on: every indexed cell decodes from its file to exactly
/// the indexed entry count with unique ids. The currently buffered cell is
/// checked against the buffer instead (a dirty buffer is deliberately ahead
/// of its file until the next flush).
#[cfg(any(test, debug_assertions, feature = "deep-audit"))]
impl sitfact_core::Audit for FileSkylineStore {
    fn check(&self) -> Result<(), sitfact_core::AuditViolation> {
        use sitfact_core::AuditViolation;
        let fail = |invariant: &'static str, detail: String| {
            Err(AuditViolation::new("FileSkylineStore", invariant, detail))
        };
        for (key, &count) in &self.index {
            if count == 0 {
                return fail(
                    "index-counts-positive",
                    format!(
                        "cell {:?} is indexed with zero entries",
                        Self::file_name(key)
                    ),
                );
            }
            let buffered = self.buffer.as_ref().filter(|b| b.key == *key);
            if let Some(buffer) = buffered {
                if !buffer.dirty && buffer.entries.len() != count as usize {
                    return fail(
                        "buffer-matches-index",
                        format!(
                            "clean buffer for cell {:?} holds {} entries, index says {count}",
                            Self::file_name(key),
                            buffer.entries.len()
                        ),
                    );
                }
                continue;
            }
            let path = self.path_for(key);
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
                if entries[..pos].contains(id) {
                    return fail(
                        "unique-ids-per-cell",
                        format!("cell file {path:?} stores id {id} twice"),
                    );
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
    fn read(&mut self, constraint: &Constraint, subspace: SubspaceMask, out: &mut Vec<TupleId>) {
        self.load(Self::key(constraint, subspace));
        out.clear();
        if let Some(buffer) = &self.buffer {
            out.extend_from_slice(&buffer.entries);
        }
    }

    fn insert(&mut self, constraint: &Constraint, subspace: SubspaceMask, id: TupleId) {
        self.load(Self::key(constraint, subspace));
        if let Some(buffer) = &mut self.buffer {
            buffer.entries.push(id);
            buffer.dirty = true;
        }
    }

    fn remove(&mut self, constraint: &Constraint, subspace: SubspaceMask, id: TupleId) -> bool {
        self.load(Self::key(constraint, subspace));
        if let Some(buffer) = &mut self.buffer {
            if let Some(pos) = buffer.entries.iter().position(|&e| e == id) {
                buffer.entries.swap_remove(pos);
                buffer.dirty = true;
                return true;
            }
        }
        false
    }

    fn contains(&mut self, constraint: &Constraint, subspace: SubspaceMask, id: TupleId) -> bool {
        self.load(Self::key(constraint, subspace));
        self.buffer
            .as_ref()
            .is_some_and(|b| b.entries.contains(&id))
    }

    fn stats(&self) -> StoreStats {
        let stored_entries: u64 = self.index.values().map(|&c| c as u64).sum::<u64>()
            + self
                .buffer
                .as_ref()
                .map(|b| {
                    let indexed = self.index.get(&b.key).copied().unwrap_or(0) as i64;
                    (b.entries.len() as i64 - indexed).max(0) as u64
                })
                .unwrap_or(0);
        StoreStats {
            stored_entries,
            non_empty_cells: self.index.len() as u64,
            approx_bytes: self.bytes_on_disk,
            file_reads: self.file_reads,
            file_writes: self.file_writes,
        }
    }

    fn clear(&mut self) {
        self.buffer = None;
        for key in self.index.keys() {
            let _ = fs::remove_file(self.dir.join(Self::file_name(key)));
        }
        self.index.clear();
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
        store.read(c, m, &mut ids);
        ids
    }

    #[test]
    fn round_trip_through_files() {
        let dir = temp_dir("roundtrip");
        let mut store = FileSkylineStore::new(&dir).unwrap();
        let c = constraint(vec![1, UNBOUND]);
        let m = SubspaceMask(0b11);
        store.insert(&c, m, 0);
        store.insert(&c, m, 1);
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
        store.insert(&c1, SubspaceMask(1), 0);
        // Touching another cell evicts (and persists) the first one.
        store.insert(&c2, SubspaceMask(1), 1);
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
        store.insert(&c, m, 5);
        assert!(store.contains(&c, m, 5));
        assert!(!store.contains(&c, m, 6));
        assert!(store.remove(&c, m, 5));
        assert!(!store.remove(&c, m, 5));
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
        store.insert(&c, SubspaceMask(1), 0);
        store.flush();
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_count_entries_including_buffer() {
        let dir = temp_dir("stats");
        let mut store = FileSkylineStore::new(&dir).unwrap();
        let c = constraint(vec![1]);
        store.insert(&c, SubspaceMask(1), 0);
        store.insert(&c, SubspaceMask(1), 1);
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
        store.insert(&c, SubspaceMask(1), 0);
        store.flush();
        assert_eq!(store.file_count(), 1);
        store.clear();
        assert_eq!(store.file_count(), 0);
        assert!(read(&mut store, &c, SubspaceMask(1)).is_empty());
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn encode_decode_is_lossless() {
        let entries = vec![1, 42, 7];
        let encoded = FileSkylineStore::encode(&entries);
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
