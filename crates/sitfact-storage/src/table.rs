//! The append-only relation `R(D; M)`, stored column-wise with an inverted
//! context index.
//!
//! ## Storage layout
//!
//! The table is a struct-of-arrays: instead of one heap-allocated [`Tuple`]
//! per row (two allocations each), all dimension values live in a single flat
//! `Vec<DimValueId>` and all measure values in a single flat `Vec<f64>`, both
//! row-major with fixed stride. Row access is pure slicing — [`Table::tuple`]
//! hands out a zero-copy [`TupleRef`] — and an append is amortised O(1) with
//! no per-row allocation.
//!
//! On top of the columns the table maintains, per dimension attribute, an
//! inverted index of posting lists: `DimValueId → Vec<TupleId>`, each list
//! ascending because tuple ids are assigned in arrival order. The index is
//! derived state — every list holds exactly the physically present ids
//! (`[evicted, len)`) carrying its value, so it is rebuilt from the dimension
//! column whenever a snapshot is restored. The context `σ_C(R)` of a
//! conjunctive constraint is the intersection of the posting lists of its
//! bound values — driven from the shortest list, *galloping* through the
//! others by binary search. The top constraint `⊤` stays a plain range
//! iterator over all rows.

use sitfact_core::{
    Constraint, DimValueId, FxHashMap, RawRow, Result, Schema, Tuple, TupleId, TupleRef, UNBOUND,
};
use std::ops::Range;

/// Posting lists of one dimension attribute: every value id present in that
/// column maps to the ascending ids of the physically present tuples
/// carrying it.
type PostingMap = FxHashMap<DimValueId, Vec<TupleId>>;

/// Cap on the per-column distinct-value hint derived from a row-capacity
/// hint: dictionary-encoded columns typically hold far fewer distinct values
/// than rows (hundreds of players across tens of thousands of box scores), so
/// pre-sizing each posting map for one entry per row would waste memory.
const POSTING_MAP_HINT_CAP: usize = 1 << 10;

/// Pushes the id of every row of a dims column whose first row holds tuple
/// `first` onto its value's list: the one maintenance loop of the index,
/// which appends run over the new rows and a snapshot restore over all.
/// Ids grow monotonically, so every list stays ascending.
fn index_rows(postings: &mut [PostingMap], dims: &[DimValueId], first: usize) {
    for (row, values) in dims.chunks_exact(postings.len().max(1)).enumerate() {
        let id = (first + row) as TupleId;
        for (map, &value) in postings.iter_mut().zip(values) {
            map.entry(value).or_default().push(id);
        }
    }
}

/// The posting maps of a dims column whose first row holds tuple `first`.
fn index_of(dims: &[DimValueId], n_dims: usize, first: usize) -> Vec<PostingMap> {
    let mut postings = vec![PostingMap::default(); n_dims];
    index_rows(&mut postings, dims, first);
    postings
}

/// An append-at-the-end table of tuples under a fixed [`Schema`], stored as
/// flat columns plus per-dimension posting lists.
///
/// The table owns the schema (and therefore the dimension dictionaries), so
/// raw string records can be ingested with [`Table::append_raw`]; already
/// encoded tuples are appended with [`Table::append`]. Tuples are never
/// updated — the paper's model is an ever-growing relation whose appends
/// correspond to real-world events — but sliding-window workloads may
/// *retract* the oldest rows with [`Table::retract_prefix`]: expired rows are
/// tombstoned (the id range below a watermark) and physically dropped, from
/// the columns and the posting lists, by [`Table::compact_retracted`]. Tuple
/// ids stay stable for the table's whole life; [`Table::len`] keeps counting
/// every id ever assigned, while [`Table::live_rows`] counts the surviving
/// suffix.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    n_dims: usize,
    n_measures: usize,
    /// Total ids ever assigned (`next_id`), retracted rows included — ids are
    /// stable, so this never decreases.
    len: usize,
    /// Rows physically removed from the front of the columns. The physical
    /// row of tuple `id` is `id - evicted`.
    evicted: usize,
    /// Lowest live id. Retraction is prefix-only, so ids in
    /// `[evicted, watermark)` are tombstoned but still physically present
    /// (readable during skyline repair) until [`Table::compact_retracted`].
    watermark: usize,
    /// All dimension values, row-major (`(len - evicted) * n_dims` entries).
    dims: Vec<DimValueId>,
    /// All measure values, row-major (`(len - evicted) * n_measures` entries).
    measures: Vec<f64>,
    /// One posting map per dimension attribute, over the ids
    /// `[evicted, len)`.
    postings: Vec<PostingMap>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: Schema) -> Self {
        Self::with_capacity(schema, 0)
    }

    /// Creates an empty table whose next id is `base` — as if `base` rows had
    /// arrived, been retracted and been compacted away already. This is the
    /// reference construction behind the `windowed ≡ rebuild-from-scratch`
    /// property: a fresh monitor over `with_base(schema, watermark)` fed only
    /// the surviving suffix assigns the survivors the ids they already hold
    /// in the windowed table, so reports can be compared byte for byte.
    pub fn with_base(schema: Schema, base: TupleId) -> Self {
        let mut table = Self::with_capacity(schema, 0);
        table.len = base as usize;
        table.evicted = base as usize;
        table.watermark = base as usize;
        table
    }

    /// Creates an empty table with pre-allocated capacity (in rows).
    ///
    /// The hint pre-sizes the flat dimension and measure columns with one
    /// reservation each, and every dimension's posting map for up to
    /// `POSTING_MAP_HINT_CAP` (1024) distinct values (a dictionary-encoded
    /// column rarely holds more; the map grows normally if it does).
    /// Individual posting lists grow as their values arrive.
    pub fn with_capacity(schema: Schema, capacity: usize) -> Self {
        let n_dims = schema.num_dimensions();
        let n_measures = schema.num_measures();
        let distinct_hint = capacity.min(POSTING_MAP_HINT_CAP);
        Table {
            schema,
            n_dims,
            n_measures,
            len: 0,
            evicted: 0,
            watermark: 0,
            dims: Vec::with_capacity(capacity * n_dims),
            measures: Vec::with_capacity(capacity * n_measures),
            postings: vec![
                PostingMap::with_capacity_and_hasher(distinct_hint, Default::default());
                n_dims
            ],
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Mutable access to the schema (needed to intern new dictionary values
    /// when tuples are produced outside [`Table::append_raw`]).
    pub fn schema_mut(&mut self) -> &mut Schema {
        &mut self.schema
    }

    /// Number of tuple ids ever assigned, retracted rows included. Ids are
    /// stable across retraction, so this is also the id the next append
    /// receives — the live population is [`Table::live_rows`].
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has never stored a tuple.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The id that the *next* appended tuple will receive.
    pub fn next_id(&self) -> TupleId {
        self.len as TupleId
    }

    /// Number of live (non-retracted) rows.
    pub fn live_rows(&self) -> usize {
        self.len - self.watermark
    }

    /// The lowest live id: every id below it has been retracted. Equals 0
    /// until the first [`Table::retract_prefix`].
    pub fn watermark(&self) -> TupleId {
        self.watermark as TupleId
    }

    /// Rows retracted *and* physically dropped by
    /// [`Table::compact_retracted`].
    pub fn evicted_rows(&self) -> usize {
        self.evicted
    }

    /// Rows tombstoned but not yet physically compacted (the
    /// `[evicted, watermark)` id range).
    pub fn tombstone_rows(&self) -> usize {
        self.watermark - self.evicted
    }

    /// Whether `id` names a live (assigned and not retracted) row.
    pub fn is_live(&self, id: TupleId) -> bool {
        let id = id as usize;
        id >= self.watermark && id < self.len
    }

    /// Retracts every row with id below `up_to` (clamped to the table
    /// length): the expired prefix of a sliding window. Idempotent — ids
    /// already retracted stay retracted — and returns how many rows this
    /// call newly tombstoned.
    ///
    /// Tombstoned rows disappear from [`Table::get`], [`Table::iter`],
    /// [`Table::context`] and [`Table::context_scan`] immediately, but stay
    /// readable through [`Table::tuple`] until [`Table::compact_retracted`]
    /// physically drops them — skyline repair needs the expired points'
    /// coordinates while it re-promotes their dominated regions. Only the
    /// watermark moves: readers skip each posting list's dead prefix.
    pub fn retract_prefix(&mut self, up_to: usize) -> usize {
        let new_watermark = up_to.min(self.len);
        if new_watermark <= self.watermark {
            return 0;
        }
        let newly = new_watermark - self.watermark;
        self.watermark = new_watermark;
        newly
    }

    /// Physically drops the tombstoned prefix from the flat columns and the
    /// posting lists, reclaiming the memory [`Table::retract_prefix`] only
    /// marked; lists left empty leave the index. Returns the number of rows
    /// dropped. Ids below the watermark stop being readable even through
    /// [`Table::tuple`], so callers must finish any retraction repair first.
    pub fn compact_retracted(&mut self) -> usize {
        let dead = self.watermark - self.evicted;
        if dead == 0 {
            return 0;
        }
        self.dims.drain(..dead * self.n_dims);
        self.measures.drain(..dead * self.n_measures);
        self.evicted = self.watermark;
        let evicted = self.evicted as TupleId;
        for map in &mut self.postings {
            map.retain(|_, list| {
                list.drain(..list.partition_point(|&id| id < evicted));
                !list.is_empty()
            });
        }
        dead
    }

    /// Appends an already-encoded tuple after validating it against the
    /// schema: a window of one ([`Table::append_batch_slice`]). Returns the
    /// assigned [`TupleId`].
    pub fn append(&mut self, tuple: Tuple) -> Result<TupleId> {
        let ids = self.append_batch_slice(std::slice::from_ref(&tuple))?;
        Ok(ids.start)
    }

    /// Encodes one raw row ([`Schema::encode_rows`]: validated before a
    /// string is interned) and appends it as a window of one.
    pub fn append_raw(&mut self, dims: &[impl AsRef<str>], measures: Vec<f64>) -> Result<TupleId> {
        let window = self.schema.encode_rows(&[RawRow::new(dims, &measures)])?;
        Ok(self.append_batch_slice(&window)?.start)
    }

    /// Appends a whole window of already-encoded tuples — every append goes
    /// through here:
    ///
    /// * every tuple is validated against the schema in one up-front pass
    ///   (the window is all-or-nothing — an invalid tuple rejects the whole
    ///   window and leaves the table untouched);
    /// * the flat dimension and measure columns are extended after a single
    ///   `reserve` each;
    /// * each new row's id is pushed onto its value's posting list in every
    ///   dimension, the loop a snapshot restore runs over the whole column.
    ///
    /// Returns the contiguous id range assigned to the window, in window
    /// order. The tuples are borrowed: the columnar layout copies every
    /// value anyway, so a monitor can append the window first and then
    /// discover each arrival. An empty window is a no-op returning an empty
    /// range.
    pub fn append_batch_slice(&mut self, tuples: &[Tuple]) -> Result<Range<TupleId>> {
        let first = self.next_id();
        // One validation pass before any mutation keeps the window atomic.
        for tuple in tuples {
            tuple.validate(&self.schema)?;
        }
        let old_dims_len = self.dims.len();
        self.dims.reserve(tuples.len() * self.n_dims);
        self.measures.reserve(tuples.len() * self.n_measures);
        for tuple in tuples {
            self.dims.extend_from_slice(tuple.dims());
            self.measures.extend_from_slice(tuple.measures());
        }
        index_rows(&mut self.postings, &self.dims[old_dims_len..], self.len);
        self.len += tuples.len();
        Ok(first..self.next_id())
    }

    /// A zero-copy view of the *live* row with the given id, if it exists.
    /// Retracted ids return `None`, exactly like ids never assigned.
    pub fn get(&self, id: TupleId) -> Option<TupleRef<'_>> {
        if self.is_live(id) {
            Some(self.view_of(id))
        } else {
            None
        }
    }

    /// A zero-copy view of the row with the given id; panics when the row is
    /// not physically present. Unlike [`Table::get`] this still reads
    /// tombstoned rows (ids in `[evicted, watermark)`) — retraction repair
    /// needs the expired points' coordinates until
    /// [`Table::compact_retracted`] drops them.
    pub fn tuple(&self, id: TupleId) -> TupleRef<'_> {
        let id = id as usize;
        assert!(
            id >= self.evicted && id < self.len,
            "tuple id {id} not physically present (evicted {}, len {})",
            self.evicted,
            self.len
        );
        self.row(id - self.evicted)
    }

    #[inline]
    fn row(&self, row: usize) -> TupleRef<'_> {
        TupleRef::new(
            &self.dims[row * self.n_dims..(row + 1) * self.n_dims],
            &self.measures[row * self.n_measures..(row + 1) * self.n_measures],
        )
    }

    /// View of the row holding tuple `id`, which must be physically present.
    #[inline]
    fn view_of(&self, id: TupleId) -> TupleRef<'_> {
        self.row(id as usize - self.evicted)
    }

    /// Iterates `(id, tuple)` pairs of the *live* rows in arrival order. The
    /// iterator knows its exact length, so collecting all rows allocates
    /// once.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (TupleId, TupleRef<'_>)> {
        (self.watermark..self.len).map(|id| (id as TupleId, self.view_of(id as TupleId)))
    }

    /// Iterates only the tuples that satisfy `constraint` — the context
    /// `σ_C(R)` of the paper — via the inverted index.
    ///
    /// For the top constraint this is a range iterator over every row; one
    /// bound attribute streams its posting list; several bound attributes run
    /// a k-way *galloping* intersection: the shortest list drives, and every
    /// candidate is binary-searched in the other lists, so the cost scales
    /// with the most selective bound value instead of the table size. A
    /// bound value with no live row yields an empty context immediately.
    pub fn context<'a>(&'a self, constraint: &Constraint) -> ContextIter<'a> {
        debug_assert_eq!(constraint.num_dims(), self.n_dims);
        let mut lists: Vec<&'a [TupleId]> = Vec::new();
        for (attr, &value) in constraint.values().iter().enumerate() {
            if value == UNBOUND {
                continue;
            }
            match self.posting_list(attr, value) {
                Some(live) => lists.push(live),
                // A bound value with no live row: the context is empty.
                None => {
                    lists = vec![&[]];
                    break;
                }
            }
        }
        // Driving the intersection from the shortest list bounds the number
        // of candidates by the most selective bound value.
        lists.sort_unstable_by_key(|l| l.len());
        let state = match lists.as_slice() {
            [] => ContextState::All(self.watermark..self.len),
            [list] => ContextState::Single(list.iter()),
            [driver, others @ ..] => ContextState::Gallop {
                driver,
                others: others.to_vec(),
            },
        };
        ContextIter { table: self, state }
    }

    /// Reference implementation of [`Table::context`]: a full scan filtered by
    /// [`Constraint::matches`]. Kept as the ground truth for the equivalence
    /// property tests and as the baseline leg of the `context_scan` vs
    /// `context_indexed` benchmark.
    pub fn context_scan<'a>(
        &'a self,
        constraint: &'a Constraint,
    ) -> impl Iterator<Item = (TupleId, TupleRef<'a>)> + 'a {
        self.iter().filter(move |(_, t)| constraint.matches(t))
    }

    /// Upper bound on the rows the indexed [`Table::context`] will examine:
    /// the live length of the shortest posting list among the constraint's
    /// bound values (`0` for a value with no live row, the live row count
    /// for `⊤`).
    ///
    /// This is the work counter behind the sub-linearity assertions — a
    /// selective constraint must probe far fewer rows than a full scan.
    pub fn context_probe_bound(&self, constraint: &Constraint) -> usize {
        constraint
            .values()
            .iter()
            .enumerate()
            .filter(|&(_, &value)| value != UNBOUND)
            .map(|(attr, &value)| self.posting_list(attr, value).map_or(0, <[_]>::len))
            .min()
            .unwrap_or_else(|| self.live_rows())
    }

    /// The live ids of one `(dimension, value)` pair, ascending; `None` when
    /// no live row carries that value in that column.
    pub fn posting_list(&self, attr: usize, value: DimValueId) -> Option<&[TupleId]> {
        let list = self.postings.get(attr)?.get(&value)?;
        let watermark = self.watermark as TupleId;
        let live = &list[list.partition_point(|&id| id < watermark)..];
        (!live.is_empty()).then_some(live)
    }

    /// Aggregate footprint counters of the inverted index, for the memory
    /// benchmarks and the `STATS` record. Lists are plain id vectors, so
    /// every id counts as a tail id and both byte counters are four bytes
    /// per id.
    pub fn posting_index_stats(&self) -> PostingIndexStats {
        let lists = self.postings.iter().map(PostingMap::len).sum();
        let ids = self.posting_ids();
        let bytes = ids * std::mem::size_of::<TupleId>();
        PostingIndexStats {
            lists,
            ids,
            sealed_blocks: 0,
            tail_ids: ids,
            compressed_bytes: bytes,
            uncompressed_bytes: bytes,
        }
    }

    /// Ids stored across every posting list, tombstoned ones included.
    fn posting_ids(&self) -> usize {
        self.postings
            .iter()
            .flat_map(PostingMap::values)
            .map(Vec::len)
            .sum()
    }

    /// Approximate heap usage of the columnar storage (flat columns plus the
    /// inverted index) and the schema dictionaries, used by the memory
    /// experiment (Fig. 10a).
    ///
    /// Derived entirely from `size_of` so the estimate tracks the layout:
    /// * the dimension column holds `(len - evicted) * n_dims` value ids;
    /// * the measure column holds `(len - evicted) * n_measures` floats;
    /// * every posting list is accounted at its length in ids — not its
    ///   capacity, which depends on the growth history, so a batched load
    ///   and a restored table account exactly like a row-by-row load;
    /// * each distinct `(dimension, value)` pair costs one map entry (key +
    ///   `Vec` header).
    pub fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let physical = self.len - self.evicted;
        let columns = physical * self.n_dims * size_of::<DimValueId>()
            + physical * self.n_measures * size_of::<f64>();
        let distinct_values: usize = self.postings.iter().map(PostingMap::len).sum();
        let posting_entries =
            distinct_values * (size_of::<DimValueId>() + size_of::<Vec<TupleId>>());
        columns
            + self.posting_ids() * size_of::<TupleId>()
            + posting_entries
            + self.schema.approx_heap_bytes()
    }

    /// Crate-internal view of the table's primary state — schema, length,
    /// retraction bounds and flat columns — for the snapshot codec in
    /// [`crate::wal`]. The posting index is derived from the columns and
    /// not part of it.
    pub(crate) fn state_parts(&self) -> (&Schema, usize, usize, usize, &[DimValueId], &[f64]) {
        (
            &self.schema,
            self.len,
            self.evicted,
            self.watermark,
            &self.dims,
            &self.measures,
        )
    }

    /// Crate-internal inverse of [`Table::state_parts`]: a table over
    /// decoded snapshot columns whose posting index is not built yet —
    /// [`Table::with_index`] builds it. [`crate::wal`]'s decoders have
    /// checked the retraction bounds and read each column at its stride.
    pub(crate) fn from_state_parts(
        schema: Schema,
        len: usize,
        evicted: usize,
        watermark: usize,
        dims: Vec<DimValueId>,
        measures: Vec<f64>,
    ) -> Table {
        let n_dims = schema.num_dimensions();
        let n_measures = schema.num_measures();
        Table {
            schema,
            n_dims,
            n_measures,
            len,
            evicted,
            watermark,
            dims,
            measures,
            postings: vec![PostingMap::default(); n_dims],
        }
    }

    /// The table of [`Table::from_state_parts`] with its posting index
    /// built, in one pass over the dims column.
    pub(crate) fn with_index(mut self) -> Table {
        self.postings = index_of(&self.dims, self.n_dims, self.evicted);
        self
    }

    /// Deep structural self-check; see [`sitfact_core::audit::Audit`].
    pub fn audit(&self) -> std::result::Result<(), sitfact_core::AuditViolation> {
        sitfact_core::Audit::check(self)
    }
}

/// Re-derives every piece of denormalized table state from the primary
/// columns: column strides, the posting index (every list equals the rebuild
/// from the dims column over `[evicted, len)`), measure validity and the
/// heap-bytes formula.
impl sitfact_core::Audit for Table {
    fn check(&self) -> std::result::Result<(), sitfact_core::AuditViolation> {
        use sitfact_core::AuditViolation;
        let fail = |invariant: &'static str, detail: String| {
            Err(AuditViolation::new("Table", invariant, detail))
        };

        // Retraction bounds nest.
        if self.evicted > self.watermark || self.watermark > self.len {
            return fail(
                "retraction-bounds",
                format!(
                    "evicted {} <= watermark {} <= len {} must nest",
                    self.evicted, self.watermark, self.len
                ),
            );
        }
        // Columns are flat row-major arrays: exactly one stride per
        // physically present row.
        let physical = self.len - self.evicted;
        if self.dims.len() != physical * self.n_dims {
            return fail(
                "column-stride",
                format!(
                    "dims column holds {} ids, want physical × n_dims = {} × {} = {}",
                    self.dims.len(),
                    physical,
                    self.n_dims,
                    physical * self.n_dims
                ),
            );
        }
        if self.measures.len() != physical * self.n_measures {
            return fail(
                "column-stride",
                format!(
                    "measures column holds {} values, want physical × n_measures = {} × {} = {}",
                    self.measures.len(),
                    physical,
                    self.n_measures,
                    physical * self.n_measures
                ),
            );
        }
        // Append-time validation rejects NaN measures; none may sneak in.
        if let Some(pos) = self.measures.iter().position(|m| m.is_nan()) {
            return fail(
                "measures-not-nan",
                format!(
                    "measures[{pos}] (row {}, attr {}) is NaN",
                    pos / self.n_measures.max(1),
                    pos % self.n_measures.max(1)
                ),
            );
        }

        // The index is exactly the rebuild from the dims column: one map per
        // attribute, each list the ascending physically present ids of its
        // value, no list empty.
        let rebuilt = index_of(&self.dims, self.n_dims, self.evicted);
        if self.postings.len() != rebuilt.len() {
            return fail(
                "posting-arity",
                format!(
                    "{} posting maps for {} dimension attributes",
                    self.postings.len(),
                    self.n_dims
                ),
            );
        }
        for (attr, (map, want)) in self.postings.iter().zip(&rebuilt).enumerate() {
            if let Some((value, list)) = map
                .iter()
                .find(|(value, list)| want.get(value) != Some(list))
            {
                return fail(
                    "posting-derived",
                    format!(
                        "attr {attr}: posting list of value {value} holds {list:?}, the dims \
                         column over [{}, {}) gives {:?}",
                        self.evicted,
                        self.len,
                        want.get(value)
                    ),
                );
            }
            if map.len() != want.len() {
                return fail(
                    "posting-derived",
                    format!(
                        "attr {attr}: {} posting lists, the dims column holds {} distinct values",
                        map.len(),
                        want.len()
                    ),
                );
            }
        }

        // The documented memory formula must track the actual layout.
        let distinct: usize = rebuilt.iter().map(PostingMap::len).sum();
        let expect = physical * self.n_dims * std::mem::size_of::<DimValueId>()
            + physical * self.n_measures * std::mem::size_of::<f64>()
            + physical * self.n_dims * std::mem::size_of::<TupleId>()
            + distinct * (std::mem::size_of::<DimValueId>() + std::mem::size_of::<Vec<TupleId>>())
            + self.schema.approx_heap_bytes();
        if self.approx_heap_bytes() != expect {
            return fail(
                "heap-bytes-formula",
                format!(
                    "approx_heap_bytes() = {}, independent recomputation = {expect}",
                    self.approx_heap_bytes()
                ),
            );
        }
        Ok(())
    }
}

/// Aggregate footprint of the inverted index, from
/// [`Table::posting_index_stats`]. All byte counters cover the posting lists
/// only — the columns, map-entry overhead and schema dictionaries are
/// reported by [`Table::approx_heap_bytes`]. The block and compression
/// fields keep the `STATS` record's shape from when lists were compressed:
/// plain id vectors have no sealed blocks, every id is a tail id, and both
/// byte counters are four bytes per id.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PostingIndexStats {
    /// Number of posting lists (= distinct `(dimension, value)` pairs).
    pub lists: usize,
    /// Total ids across all lists (= physically present rows × dimensions).
    pub ids: usize,
    /// Sealed compressed blocks across all lists: always 0.
    pub sealed_blocks: usize,
    /// Ids stored uncompressed: all of them.
    pub tail_ids: usize,
    /// Heap bytes of the stored ids.
    pub compressed_bytes: usize,
    /// Bytes the same ids occupy as plain `Vec<TupleId>` data.
    pub uncompressed_bytes: usize,
}

/// Iterator over a context `σ_C(R)`, yielding `(id, view)` pairs in arrival
/// order. Produced by [`Table::context`].
#[derive(Debug)]
pub struct ContextIter<'a> {
    table: &'a Table,
    state: ContextState<'a>,
}

#[derive(Debug)]
enum ContextState<'a> {
    /// Top constraint: every live id qualifies.
    All(Range<usize>),
    /// One bound attribute: the live part of its posting list (empty for a
    /// value with no live row).
    Single(std::slice::Iter<'a, TupleId>),
    /// Galloping intersection of two or more live posting lists: the
    /// shortest drives, the others (ascending by length) confirm candidates
    /// by binary search.
    Gallop {
        driver: &'a [TupleId],
        others: Vec<&'a [TupleId]>,
    },
}

/// Drops the ids below `target` from the front of `list`.
fn skip_below(list: &mut &[TupleId], target: TupleId) {
    *list = &list[list.partition_point(|&id| id < target)..];
}

/// One leapfrog round: pull a candidate from the driving (shortest) list and
/// seek every other list to it. An overshoot in any list becomes the next
/// target for the driver itself — the driver gallops too — and the round
/// restarts; agreement across all lists yields the candidate.
fn gallop_next(driver: &mut &[TupleId], others: &mut [&[TupleId]]) -> Option<TupleId> {
    'candidates: loop {
        let (&candidate, rest) = driver.split_first()?;
        *driver = rest;
        for other in others.iter_mut() {
            skip_below(other, candidate);
            match other.first() {
                Some(&id) if id == candidate => {}
                Some(&id) => {
                    skip_below(driver, id);
                    continue 'candidates;
                }
                None => {
                    *driver = &[];
                    return None;
                }
            }
        }
        return Some(candidate);
    }
}

impl<'a> Iterator for ContextIter<'a> {
    type Item = (TupleId, TupleRef<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        // Posting-list ids are in range by construction; `view_of` skips
        // the public accessor's bounds assertion on the hot path.
        let id = match &mut self.state {
            ContextState::All(range) => range.next()? as TupleId,
            ContextState::Single(ids) => *ids.next()?,
            ContextState::Gallop { driver, others } => gallop_next(driver, others)?,
        };
        Some((id, self.table.view_of(id)))
    }

    /// Internal iteration for whole-context drains (`sum`, `for_each`, every
    /// `fold`-based consumer): the top-constraint and single-list states
    /// walk their range or slice without re-entering the state machine per
    /// id.
    fn fold<B, F>(self, init: B, mut f: F) -> B
    where
        F: FnMut(B, Self::Item) -> B,
    {
        let table = self.table;
        match self.state {
            ContextState::All(range) => range.fold(init, |acc, id| {
                f(acc, (id as TupleId, table.view_of(id as TupleId)))
            }),
            ContextState::Single(ids) => ids.fold(init, |acc, &id| f(acc, (id, table.view_of(id)))),
            ContextState::Gallop {
                mut driver,
                mut others,
            } => {
                let mut acc = init;
                while let Some(id) = gallop_next(&mut driver, &mut others) {
                    acc = f(acc, (id, table.view_of(id)));
                }
                acc
            }
        }
    }

    /// Tight bounds so collectors (`skyline_of`, `Vec::from_iter`) size their
    /// buffers up front instead of growing incrementally:
    ///
    /// * top constraint — the remaining row range, exact;
    /// * one bound attribute — the remaining live posting list is the
    ///   context, exact (zero for a value with no live row);
    /// * several bound attributes — at most the shortest list's remaining
    ///   ids, at least zero.
    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.state {
            ContextState::All(range) => range.size_hint(),
            ContextState::Single(ids) => ids.size_hint(),
            ContextState::Gallop { driver, others } => {
                let shortest = others
                    .iter()
                    .map(|l| l.len())
                    .fold(driver.len(), usize::min);
                (0, Some(shortest))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitfact_core::{Direction, SchemaBuilder, UNBOUND};

    fn schema() -> Schema {
        SchemaBuilder::new("gamelog")
            .dimension("player")
            .dimension("team")
            .measure("points", Direction::HigherIsBetter)
            .measure("assists", Direction::HigherIsBetter)
            .build()
            .unwrap()
    }

    #[test]
    fn append_assigns_sequential_ids() {
        let mut t = Table::new(schema());
        assert!(t.is_empty());
        let a = t
            .append_raw(&["Wesley", "Celtics"], vec![12.0, 13.0])
            .unwrap();
        let b = t
            .append_raw(&["Bogues", "Hornets"], vec![4.0, 12.0])
            .unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.next_id(), 2);
        assert_eq!(t.tuple(0).measures(), &[12.0, 13.0]);
        assert!(t.get(5).is_none());
    }

    #[test]
    fn audit_passes_on_real_tables_and_catches_corrupted_postings() {
        let mut t = Table::new(schema());
        t.append_raw(&["Wesley", "Celtics"], vec![12.0, 13.0])
            .unwrap();
        t.append_raw(&["Bogues", "Hornets"], vec![4.0, 12.0])
            .unwrap();
        t.append_raw(&["Wesley", "Hornets"], vec![7.0, 9.0])
            .unwrap();
        assert!(t.audit().is_ok());

        // Corrupt one posting list behind the index's back: row 2's entry for
        // ("player" == "Wesley") now points at row 1, which holds "Bogues".
        let wesley = t.schema().dictionary(0).lookup("Wesley").unwrap();
        let list = t.postings[0].get_mut(&wesley).unwrap();
        assert_eq!(*list, vec![0, 2]);
        *list = vec![0, 1];
        let violation = t.audit().expect_err("corruption must be caught");
        let explained = violation.explain();
        assert!(
            explained.contains("Table") && explained.contains("posting"),
            "explain must name the structure and the broken invariant: {explained}"
        );
    }

    #[test]
    fn append_validates_against_schema() {
        let mut t = Table::new(schema());
        assert!(t.append_raw(&["Wesley"], vec![12.0, 13.0]).is_err());
        assert!(t
            .append_raw(&["Wesley", "Celtics"], vec![f64::NAN, 1.0])
            .is_err());
        let bad = Tuple::new(vec![0, 0, 0], vec![1.0, 2.0]);
        assert!(t.append(bad).is_err());
        assert_eq!(t.len(), 0);
        // A rejected append must leave no trace in the index either.
        assert!(t.posting_list(0, 0).is_none());
    }

    #[test]
    fn context_selection_matches_constraint() {
        let mut t = Table::new(schema());
        t.append_raw(&["Wesley", "Celtics"], vec![2.0, 5.0])
            .unwrap();
        t.append_raw(&["Wesley", "Celtics"], vec![3.0, 5.0])
            .unwrap();
        t.append_raw(&["Sherman", "Celtics"], vec![13.0, 13.0])
            .unwrap();
        t.append_raw(&["Strickland", "Blazers"], vec![27.0, 18.0])
            .unwrap();

        let celtics = Constraint::parse(t.schema(), &[("team", "Celtics")]).unwrap();
        assert_eq!(t.context(&celtics).count(), 3);
        let wesley_celtics =
            Constraint::parse(t.schema(), &[("player", "Wesley"), ("team", "Celtics")]).unwrap();
        assert_eq!(t.context(&wesley_celtics).count(), 2);
        let ids: Vec<TupleId> = t.context(&wesley_celtics).map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1]);
        // The top constraint selects everything.
        let top = Constraint::from_values(vec![UNBOUND, UNBOUND]);
        assert_eq!(t.context(&top).count(), 4);
        // A combination of observed values that never co-occur is empty.
        let wesley_blazers =
            Constraint::parse(t.schema(), &[("player", "Wesley"), ("team", "Blazers")]).unwrap();
        assert_eq!(t.context(&wesley_blazers).count(), 0);
    }

    #[test]
    fn context_agrees_with_scan() {
        let mut t = Table::new(schema());
        let players = ["A", "B", "C"];
        let teams = ["X", "Y"];
        for i in 0..60usize {
            t.append_raw(
                &[players[i % 3], teams[i % 2]],
                vec![i as f64, (i * 7 % 13) as f64],
            )
            .unwrap();
        }
        for bindings in [
            vec![("player", "A")],
            vec![("team", "Y")],
            vec![("player", "B"), ("team", "X")],
            vec![("player", "C"), ("team", "Y")],
        ] {
            let c = Constraint::parse(t.schema(), &bindings).unwrap();
            let indexed: Vec<TupleId> = t.context(&c).map(|(id, _)| id).collect();
            let scanned: Vec<TupleId> = t.context_scan(&c).map(|(id, _)| id).collect();
            assert_eq!(indexed, scanned, "constraint {bindings:?}");
        }
    }

    #[test]
    fn context_never_observed_value_is_empty() {
        let mut t = Table::new(schema());
        t.append_raw(&["Wesley", "Celtics"], vec![1.0, 1.0])
            .unwrap();
        // A raw constraint with a value id no dictionary ever handed out.
        let c = Constraint::from_values(vec![999, UNBOUND]);
        assert_eq!(t.context(&c).count(), 0);
        assert_eq!(t.context_probe_bound(&c), 0);
    }

    #[test]
    fn iteration_is_in_arrival_order() {
        let mut t = Table::new(schema());
        for i in 0..10 {
            t.append_raw(&["p", "t"], vec![i as f64, 0.0]).unwrap();
        }
        let ids: Vec<TupleId> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn posting_lists_are_sorted_and_complete() {
        let mut t = Table::new(schema());
        for i in 0..30usize {
            let player = if i % 2 == 0 { "Even" } else { "Odd" };
            t.append_raw(&[player, "T"], vec![i as f64, 0.0]).unwrap();
        }
        let even_id = t.schema().dictionary(0).lookup("Even").unwrap();
        let list = t.posting_list(0, even_id).unwrap();
        assert_eq!(list.len(), 15);
        assert!(list.windows(2).all(|w| w[0] < w[1]));
        assert!(list.iter().all(|id| id % 2 == 0));
        let team_id = t.schema().dictionary(1).lookup("T").unwrap();
        assert_eq!(t.posting_list(1, team_id).unwrap().len(), 30);
        assert!(t.posting_list(0, 999).is_none());
    }

    #[test]
    fn probe_bound_is_sublinear_for_selective_constraints() {
        let mut t = Table::new(schema());
        // One rare player amid a crowd of common ones.
        for i in 0..500usize {
            let player = if i == 250 { "Rare" } else { "Common" };
            t.append_raw(&[player, "T"], vec![i as f64, 0.0]).unwrap();
        }
        let rare = Constraint::parse(t.schema(), &[("player", "Rare")]).unwrap();
        assert_eq!(t.context_probe_bound(&rare), 1);
        assert_eq!(t.context(&rare).count(), 1);
        let top = Constraint::top(2);
        assert_eq!(t.context_probe_bound(&top), 500);
        // A multi-attribute constraint is bounded by its most selective value.
        let rare_t = Constraint::parse(t.schema(), &[("player", "Rare"), ("team", "T")]).unwrap();
        assert_eq!(t.context_probe_bound(&rare_t), 1);
    }

    #[test]
    fn append_batch_equals_append_loop() {
        let rows: Vec<(&str, &str, f64)> = (0..40)
            .map(|i| {
                let player = ["A", "B", "C"][i % 3];
                let team = ["X", "Y"][i % 2];
                (player, team, i as f64)
            })
            .collect();
        let mut looped = Table::new(schema());
        let mut tuples = Vec::new();
        let mut batched = Table::new(schema());
        for &(p, t, m) in &rows {
            looped.append_raw(&[p, t], vec![m, 0.0]).unwrap();
            let ids = batched.schema_mut().intern_dims(&[p, t]).unwrap();
            tuples.push(Tuple::new(ids, vec![m, 0.0]));
        }
        let range = batched.append_batch_slice(&tuples).unwrap();
        assert_eq!(range, 0..40);
        assert_eq!(batched.len(), looped.len());
        assert_eq!(batched.approx_heap_bytes(), looped.approx_heap_bytes());
        for (a, b) in batched.iter().zip(looped.iter()) {
            assert_eq!(a, b);
        }
        // Posting lists match per (attribute, value).
        for attr in 0..2 {
            for value in 0..4u32 {
                assert_eq!(
                    batched.posting_list(attr, value),
                    looped.posting_list(attr, value),
                    "attr {attr} value {value}"
                );
            }
        }
        // A second batch continues the id sequence.
        let more = batched
            .append_batch_slice(&[Tuple::new(vec![0, 0], vec![1.0, 2.0])])
            .unwrap();
        assert_eq!(more, 40..41);
    }

    #[test]
    fn append_batch_is_atomic_on_invalid_tuples() {
        let mut t = Table::new(schema());
        t.append_raw(&["A", "X"], vec![1.0, 1.0]).unwrap();
        let window = vec![
            Tuple::new(vec![0, 0], vec![2.0, 2.0]),
            Tuple::new(vec![0, 0, 0], vec![3.0, 3.0]), // bad arity
        ];
        assert!(t.append_batch_slice(&window).is_err());
        // Nothing from the window landed — not even the valid first tuple.
        assert_eq!(t.len(), 1);
        assert_eq!(t.posting_list(0, 0).unwrap(), [0]);
        // NaN measures are caught by the same up-front pass.
        assert!(t
            .append_batch_slice(&[Tuple::new(vec![0, 0], vec![f64::NAN, 1.0])])
            .is_err());
        assert_eq!(t.len(), 1);
        // An empty batch is a no-op with an empty range.
        assert_eq!(t.append_batch_slice(&[]).unwrap(), 1..1);
    }

    #[test]
    fn context_size_hint_is_tight() {
        let mut t = Table::new(schema());
        for i in 0..20usize {
            let player = ["A", "B"][i % 2];
            t.append_raw(&[player, "X"], vec![i as f64, 0.0]).unwrap();
        }
        // Top constraint: exact full length, shrinking as it advances.
        let top = Constraint::top(2);
        let mut it = t.context(&top);
        assert_eq!(it.size_hint(), (20, Some(20)));
        it.next();
        assert_eq!(it.size_hint(), (19, Some(19)));
        // Single bound attribute: the posting list is the context — exact.
        let a = Constraint::parse(t.schema(), &[("player", "A")]).unwrap();
        let it = t.context(&a);
        assert_eq!(it.size_hint(), (10, Some(10)));
        // Two bound attributes: upper bound is the shortest posting list.
        let ax = Constraint::parse(t.schema(), &[("player", "A"), ("team", "X")]).unwrap();
        let it = t.context(&ax);
        assert_eq!(it.size_hint(), (0, Some(10)));
        assert_eq!(it.count(), 10);
        // Never-observed value: exact zero.
        let it = t.context(&Constraint::from_values(vec![999, UNBOUND]));
        assert_eq!(it.size_hint(), (0, Some(0)));
    }

    #[test]
    fn with_capacity_presizes_all_layers() {
        let t = Table::with_capacity(schema(), 100);
        assert!(t.dims.capacity() >= 200);
        assert!(t.measures.capacity() >= 200);
        for posting in &t.postings {
            assert!(posting.capacity() >= 100);
        }
        // The hint on the posting maps is capped: a huge row capacity must not
        // translate into a huge distinct-value reservation.
        let t = Table::with_capacity(schema(), 1 << 20);
        for posting in &t.postings {
            assert!(posting.capacity() < (1 << 12));
        }
    }

    #[test]
    fn heap_estimate_pinned_after_batched_load() {
        use std::mem::size_of;
        let mut t = Table::with_capacity(schema(), 64);
        let tuples: Vec<Tuple> = (0..64u32)
            .map(|i| Tuple::new(vec![i % 2, 0], vec![1.0, 2.0]))
            .collect();
        t.append_batch_slice(&tuples).unwrap();
        // Same formula as the per-row test: the batch path must not change
        // the accounted layout (64 rows × 2 dims/measures, 3 distinct
        // (attribute, value) pairs, one posting id per row and dimension).
        let expected = 64 * 2 * size_of::<DimValueId>()
            + 64 * 2 * size_of::<f64>()
            + 64 * 2 * size_of::<TupleId>()
            + 3 * (size_of::<DimValueId>() + size_of::<Vec<TupleId>>())
            + t.schema().approx_heap_bytes();
        assert_eq!(t.approx_heap_bytes(), expected);
    }

    #[test]
    fn heap_estimate_matches_layout_formula() {
        use std::mem::size_of;
        let mut t = Table::new(schema());
        let before = t.approx_heap_bytes();
        for i in 0..100usize {
            let player = if i % 2 == 0 { "p0" } else { "p1" };
            t.append_raw(&[player, "t"], vec![1.0, 2.0]).unwrap();
        }
        assert!(t.approx_heap_bytes() > before);
        // Pin the formula to the columnar layout: 100 rows × 2 dims × u32,
        // 100 rows × 2 measures × f64, 100 × 2 posting ids, and 3 distinct
        // (dimension, value) pairs of map-entry overhead.
        let expected = 100 * 2 * size_of::<DimValueId>()
            + 100 * 2 * size_of::<f64>()
            + 100 * 2 * size_of::<TupleId>()
            + 3 * (size_of::<DimValueId>() + size_of::<Vec<TupleId>>())
            + t.schema().approx_heap_bytes();
        assert_eq!(t.approx_heap_bytes(), expected);
    }

    #[test]
    fn posting_stats_count_plain_ids() {
        use std::mem::size_of;
        let mut t = Table::new(schema());
        for i in 0..300usize {
            t.append_raw(&["p", "t"], vec![i as f64, 0.0]).unwrap();
        }
        // Each attribute holds one list of 300 ids, four bytes each, with
        // no sealed blocks: every id counts as a tail id.
        let stats = t.posting_index_stats();
        assert_eq!(stats.lists, 2);
        assert_eq!(stats.ids, 600);
        assert_eq!(stats.sealed_blocks, 0);
        assert_eq!(stats.tail_ids, 600);
        assert_eq!(stats.compressed_bytes, 600 * size_of::<TupleId>());
        assert_eq!(stats.uncompressed_bytes, 600 * size_of::<TupleId>());
        // Tombstoned ids stay stored until compaction drops them.
        t.retract_prefix(100);
        assert_eq!(t.posting_index_stats(), stats);
        t.compact_retracted();
        assert_eq!(t.posting_index_stats().ids, 400);
        t.audit().unwrap();
    }

    #[test]
    fn gallop_context_is_bounded_by_its_driver() {
        // 2000 rows: 500 players × 4 appearances each, one team. The
        // player ∧ team query has a 4-id driver, which bounds its probes.
        let mut t = Table::new(schema());
        for i in 0..2000usize {
            t.append_raw(&[&format!("p{}", i % 500), "T"], vec![i as f64, 0.0])
                .unwrap();
        }
        let c = Constraint::parse(t.schema(), &[("player", "p0"), ("team", "T")]).unwrap();
        let ids: Vec<TupleId> = t.context(&c).map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 500, 1000, 1500]);
        assert_eq!(t.context_probe_bound(&c), 4);
        t.audit().unwrap();
    }

    fn windowed_table(rows: usize) -> Table {
        let mut t = Table::new(schema());
        for i in 0..rows {
            t.append_raw(
                &[
                    format!("p{}", i % 5).as_str(),
                    if i % 2 == 0 { "East" } else { "West" },
                ],
                vec![i as f64, (rows - i) as f64],
            )
            .unwrap();
        }
        t
    }

    #[test]
    fn retract_prefix_tombstones_without_reassigning_ids() {
        let mut t = windowed_table(10);
        assert_eq!(t.retract_prefix(4), 4);
        assert_eq!(t.len(), 10, "len counts every id ever assigned");
        assert_eq!(t.next_id(), 10);
        assert_eq!(t.live_rows(), 6);
        assert_eq!(t.watermark(), 4);
        assert_eq!(t.evicted_rows(), 0);
        assert_eq!(t.tombstone_rows(), 4);
        // Dead ids disappear from lookups and iteration, but stay readable
        // through `tuple` for retraction repair.
        assert!(t.get(3).is_none());
        assert!(t.get(4).is_some());
        assert_eq!(t.tuple(3).measures()[0], 3.0);
        let ids: Vec<TupleId> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![4, 5, 6, 7, 8, 9]);
        // Repeating or shrinking the prefix is a no-op.
        assert_eq!(t.retract_prefix(4), 0);
        assert_eq!(t.retract_prefix(2), 0);
        t.audit().unwrap();
    }

    #[test]
    fn contexts_skip_tombstones_and_match_the_scan_oracle() {
        let mut t = windowed_table(40);
        t.retract_prefix(17);
        let schema = t.schema().clone();
        for constraint in [
            Constraint::top(schema.num_dimensions()),
            Constraint::parse(&schema, &[("player", "p2")]).unwrap(),
            Constraint::parse(&schema, &[("team", "East")]).unwrap(),
            Constraint::parse(&schema, &[("player", "p1"), ("team", "West")]).unwrap(),
        ] {
            let indexed: Vec<TupleId> = t.context(&constraint).map(|(id, _)| id).collect();
            let scanned: Vec<TupleId> = t.context_scan(&constraint).map(|(id, _)| id).collect();
            assert_eq!(indexed, scanned, "constraint {constraint:?}");
            assert!(indexed.iter().all(|&id| id >= 17));
            assert_eq!(t.context(&constraint).count(), scanned.len());
            assert!(t.context_probe_bound(&constraint) >= scanned.len());
        }
        t.audit().unwrap();
    }

    #[test]
    fn context_size_hint_is_exact_for_single_lists_after_retraction() {
        let mut t = windowed_table(30);
        t.retract_prefix(11);
        let c = Constraint::parse(t.schema(), &[("team", "West")]).unwrap();
        let it = t.context(&c);
        let (lo, hi) = it.size_hint();
        let n = it.count();
        assert_eq!((lo, hi), (n, Some(n)));
    }

    #[test]
    fn compact_reclaims_columns_and_drains_posting_lists() {
        let mut t = windowed_table(20);
        let before = t.approx_heap_bytes();
        t.retract_prefix(8);
        assert_eq!(t.compact_retracted(), 8);
        assert_eq!(t.evicted_rows(), 8);
        assert_eq!(t.tombstone_rows(), 0);
        assert_eq!(t.len(), 20);
        assert_eq!(t.live_rows(), 12);
        assert!(
            t.approx_heap_bytes() < before,
            "compaction must reclaim column memory"
        );
        // Every surviving posting id is physically present and live.
        for attr in 0..t.schema().num_dimensions() {
            #[expect(
                clippy::iter_over_hash_type,
                reason = "every list is checked alike; the order is never observed"
            )]
            for list in t.postings[attr].values() {
                assert!(list.iter().all(|&id| id >= 8));
            }
        }
        // Ids below the eviction horizon are gone for good; appends continue
        // from the monotone id space.
        assert!(t.get(7).is_none());
        let id = t.append_raw(&["p0", "East"], vec![99.0, 1.0]).unwrap();
        assert_eq!(id, 20);
        assert!(t.is_live(20));
        assert_eq!(t.compact_retracted(), 0);
        t.audit().unwrap();
    }

    #[test]
    fn fully_dead_posting_lists_are_removed_on_retraction() {
        let mut t = Table::new(schema());
        t.append_raw(&["gone", "East"], vec![1.0, 1.0]).unwrap();
        t.append_raw(&["kept", "East"], vec![2.0, 2.0]).unwrap();
        let gone = t.schema().dictionary(0).lookup("gone").unwrap();
        assert!(t.posting_list(0, gone).is_some());
        t.retract_prefix(1);
        assert!(
            t.posting_list(0, gone).is_none(),
            "a list with no live ids reads as absent"
        );
        let c = Constraint::parse(t.schema(), &[("player", "gone")]).unwrap();
        assert_eq!(t.context(&c).count(), 0);
        t.audit().unwrap();
        // Compaction drops the emptied list from the posting map.
        t.compact_retracted();
        assert!(!t.postings[0].contains_key(&gone));
        t.audit().unwrap();
    }

    #[test]
    fn compacting_every_row_leaves_only_the_schema() {
        let mut u = windowed_table(100);
        u.retract_prefix(100);
        assert_eq!(u.live_rows(), 0);
        u.compact_retracted();
        // Columns and postings are all gone; only the schema (with its
        // interned dictionaries) still occupies heap.
        assert_eq!(u.approx_heap_bytes(), u.schema().approx_heap_bytes());
        u.audit().unwrap();
    }

    #[test]
    fn retraction_state_survives_the_snapshot_round_trip() {
        let mut t = windowed_table(25);
        t.retract_prefix(9);
        // Round-trip the tombstoned table through the snapshot parts: the
        // index is rebuilt from the columns, dead prefixes included.
        let (schema, len, evicted, watermark, dims, measures) = t.state_parts();
        let restored = Table::from_state_parts(
            schema.clone(),
            len,
            evicted,
            watermark,
            dims.to_vec(),
            measures.to_vec(),
        )
        .with_index();
        assert_eq!(restored.len(), t.len());
        assert_eq!(restored.live_rows(), t.live_rows());
        assert_eq!(restored.watermark(), t.watermark());
        assert_eq!(restored.tombstone_rows(), t.tombstone_rows());
        let a: Vec<TupleId> = t.iter().map(|(id, _)| id).collect();
        let b: Vec<TupleId> = restored.iter().map(|(id, _)| id).collect();
        assert_eq!(a, b);
        assert_eq!(restored.postings, t.postings);
        restored.audit().unwrap();
    }
}
