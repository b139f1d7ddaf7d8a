//! Algorithms 4, 5 and 6 of the paper and `SBottomUp` (Section V): one walk
//! over the lattice `C^t` of tuple-satisfied constraints, with two
//! compile-time choices.
//!
//! * **`MAXIMAL`** — what a cell `µ_{C,M}` stores. `false`: every contextual
//!   skyline tuple of `(C, M)` (Invariant 1); the lattice is walked bottom-up
//!   and a dominated constraint prunes its ancestors (Proposition 2). `true`:
//!   a tuple only at its *maximal* skyline constraints (Invariant 2); the
//!   lattice is walked top-down, a dominator prunes every constraint it
//!   shares with the new tuple (Proposition 3), and a stored tuple the new one
//!   dominates is pushed down to the children it keeps (the paper's
//!   `Dominates` procedure).
//! * **`SHARED`** — whether the full measure space is walked first and every
//!   comparison made there pre-prunes the proper subspaces through the
//!   three-way partition of Proposition 4 (Section V-C).
//!
//! | alias | `MAXIMAL` | `SHARED` | paper |
//! |-------|-----------|----------|-------|
//! | [`BottomUp`]  | no  | no  | Alg. 4 |
//! | [`TopDown`]   | yes | no  | Alg. 5 |
//! | [`SBottomUp`] | no  | yes | Sec. V-C |
//! | [`STopDown`]  | yes | yes | Alg. 6 |
//!
//! The two choices are const parameters: each alias compiles to its own
//! straight-line code, and every capability (`retract`, store export/import,
//! batch-deferred flushes) is written once for all four.
//!
//! ## One probe per constraint per arrival
//!
//! Every cell an arrival `t` touches is `(C, M)` with `C ∈ C^t`, so the
//! algorithm keeps `C^t` — refilled in place — and `rows[mask]`, the store
//! row ([`RowId`]) of each of its constraints. A row is resolved by one
//! [`SkylineStore::find`] the first time any pass needs it and then serves
//! every subspace: the passes read, insert and remove by handle, and so
//! does `skyline_cardinality_at` when ranking asks about a constraint of
//! `C^t` (and the walk over its ancestors, all in `C^t` too). A constraint
//! outside it — `demote`'s children of a stored tuple, a query about some
//! other tuple — is found by hashing a scratch key, and nothing is boxed
//! unless a row is created. Every removal from a row of `C^t` goes through
//! its slot, which the in-memory store clears when the row is freed, so the
//! slots stay exact for the whole arrival and the ranking after it (the
//! file-backed store frees rows only at the arrival's closing flush; a slot
//! naming one reads as empty, which it is, until the next arrival drops
//! the slots before creating any row); `retract`
//! refills the cache with the expired tuple's `C^x` and drops the slots
//! (its own removals and insertions may free and reuse rows), and
//! `import_store_cells` drops them with the store they pointed into.
//!
//! Ranking then asks a maximal kind about every fact `(C, M)` of the
//! arrival, and each answer reads every cell `(A, M)` with `A ⊆ C` — the
//! same few cells for most facts. So the first answer that needs a cell
//! *gathers* it: reads it once and records each live id with its agreement
//! mask against the cached tuple. Every later fact keeps the gathered ids
//! whose mask contains its own (`s` satisfies `C` iff `C ⊆ agree(t, s)`),
//! with no re-read and no table lookup. The gather describes the store as
//! the cached tuple left it, so it is dropped wherever the slots are: at
//! `discover_at`, `retract` and `import_store_cells`.

use crate::common::{
    dominated_in, partition_measures, shared_skylines, skyline_cardinality_recompute, AlgoParams,
    ConstraintCache, ExpiryScratch, TraversalScratch,
};
use crate::traits::Discovery;
use sitfact_core::{
    BoundMask, Constraint, DimValueId, DiscoveryConfig, Result, Schema, SkylinePair, SubspaceMask,
    Tuple, TupleId, UNBOUND,
};
use sitfact_storage::{
    FileSkylineStore, MemorySkylineStore, RowId, SkylineStore, StoreCell, StoreStats, Table,
    WorkStats,
};

/// Algorithm 4: every skyline tuple in every cell that qualifies it, walked
/// bottom-up, one independent pass per measure subspace. The redundancy buys
/// simple per-cell logic — a cell is the complete contextual skyline, so one
/// dominator settles it and its ancestors — at the price of memory (Fig. 10).
pub type BottomUp<S = MemorySkylineStore> = LatticeDiscovery<false, false, S>;

/// Algorithm 5: tuples only at their maximal skyline constraints, walked
/// top-down. Far fewer stored copies than [`BottomUp`] (Fig. 10) for more
/// intricate cell maintenance (Fig. 8).
pub type TopDown<S = MemorySkylineStore> = LatticeDiscovery<true, false, S>;

/// [`BottomUp`] with the full-space pass shared (Section V-C). That pass
/// stops expanding at dominated constraints, so what it learns about the
/// proper subspaces is sound but not complete: their passes start from a
/// smaller frontier and still compare.
pub type SBottomUp<S = MemorySkylineStore> = LatticeDiscovery<false, true, S>;

/// Algorithm 6: [`TopDown`] with the full-space pass shared. That pass
/// (`STopDownRoot`) visits *every* constraint of `C^t` and meets every stored
/// skyline tuple, so what it learns is complete: in a proper subspace the
/// constraints left unpruned are exactly the new tuple's skyline constraints,
/// and their passes (`STopDownNode`) read only those cells.
pub type STopDown<S = MemorySkylineStore> = LatticeDiscovery<true, true, S>;

/// [`SBottomUp`] over the file-backed skyline store (the paper's
/// `FSBottomUp`, Section VI-C).
pub type FsBottomUp = SBottomUp<FileSkylineStore>;

/// [`STopDown`] over the file-backed skyline store (the paper's `FSTopDown`,
/// Section VI-C).
pub type FsTopDown = STopDown<FileSkylineStore>;

/// The lattice algorithm behind [`BottomUp`], [`TopDown`], [`SBottomUp`] and
/// [`STopDown`]; see the [module documentation](self) for the two choices.
#[derive(Debug)]
pub struct LatticeDiscovery<
    const MAXIMAL: bool,
    const SHARED: bool,
    S: SkylineStore = MemorySkylineStore,
> {
    params: AlgoParams,
    store: S,
    stats: WorkStats,
    /// `pruned[subspace.0 * flag_len + mask.0]`: the new tuple is known
    /// dominated at this constraint in this subspace. Cleared per arrival;
    /// every row stays closed under unbinding attributes.
    pruned: Vec<bool>,
    /// Per-pass traversal buffers, kept warm across a batch.
    scratch: TraversalScratch,
    /// Inside a `begin_batch`/`end_batch` window: per-arrival store flushes
    /// are deferred to `end_batch` (reads go through the store's write-back
    /// buffer either way, so results are unchanged — only the file-backed
    /// store's write-back cadence differs).
    in_batch: bool,
    /// `C^t` of the last arrival — or `C^x` of the last expired tuple —
    /// refilled in place by every `discover_at` and `retract`.
    cache: ConstraintCache,
    /// `rows[mask]`: the store row of `cache.get(mask)`. `None` until first
    /// needed, then what the one `find` for it returned (`Some(None)`: no
    /// row). Dropped whenever `cache` is refilled or the store imported.
    rows: Vec<Option<Option<RowId>>>,
    /// The cells of `C^t` ranking has read since `rows` was last dropped,
    /// each with its ids' agreement masks; dropped with `rows`.
    gather: Gather,
}

/// What ranking read from the cells of `C^t`, each cell once. A maximal
/// store answers `|λ_M(σ_C(R))|` from every cell `(A, M)` with `A ⊆ C`, and
/// the facts of one arrival share most of those cells, so the first read of
/// a cell records each live id with its agreement mask against the cached
/// tuple: the id matches `C` iff `C`'s mask is a submask of its agreement.
#[derive(Debug, Default)]
struct Gather {
    /// `spans[subspace.0 * flag_len + mask.0]`: the cell's `entries` range,
    /// once read.
    spans: Vec<Option<(u32, u32)>>,
    /// `(id, agreement)` of every live id of every cell read.
    entries: Vec<(TupleId, BoundMask)>,
    /// The `spans` slots set, so dropping costs what was gathered.
    filled: Vec<usize>,
}

impl Gather {
    /// The entries of the cell at `slot`, which `read` appends to
    /// `entries` the first time it is asked for.
    fn cell(
        &mut self,
        slot: usize,
        read: impl FnOnce(&mut Vec<(TupleId, BoundMask)>),
    ) -> &[(TupleId, BoundMask)] {
        let (start, end) = match self.spans[slot] {
            Some(span) => span,
            None => {
                let start = self.entries.len() as u32;
                read(&mut self.entries);
                let span = (start, self.entries.len() as u32);
                self.spans[slot] = Some(span);
                self.filled.push(slot);
                span
            }
        };
        &self.entries[start as usize..end as usize]
    }

    fn clear(&mut self) {
        for &slot in &self.filled {
            self.spans[slot] = None;
        }
        self.filled.clear();
        self.entries.clear();
    }
}

/// What the passes of one arrival share.
struct Arrival<'a> {
    /// The table, the only copy of every stored tuple's measures.
    table: &'a Table,
    tuple: &'a Tuple,
    /// The id the arrival is stored under.
    id: TupleId,
}

/// The row slot of `cache.get(mask)`, resolved by one `find` on first use.
/// Every removal from that row goes through the slot, so it never holds a
/// freed row's handle before the store's next flush.
fn row_slot<'r, S: SkylineStore>(
    store: &S,
    rows: &'r mut [Option<Option<RowId>>],
    cache: &ConstraintCache,
    mask: BoundMask,
) -> &'r mut Option<RowId> {
    rows[mask.0 as usize].get_or_insert_with(|| store.find(cache.get(mask).values()))
}

impl<const MAXIMAL: bool, const SHARED: bool> LatticeDiscovery<MAXIMAL, SHARED> {
    /// Creates the algorithm with the default in-memory skyline store.
    pub fn new(schema: &Schema, config: DiscoveryConfig) -> Self {
        Self::with_store(schema, config, MemorySkylineStore::new())
    }
}

impl<const MAXIMAL: bool, const SHARED: bool, S: SkylineStore>
    LatticeDiscovery<MAXIMAL, SHARED, S>
{
    /// Creates the algorithm over a caller-provided skyline store backend.
    pub fn with_store(schema: &Schema, config: DiscoveryConfig, store: S) -> Self {
        let params = AlgoParams::new(schema, config);
        let cells = params.lattice.flag_len() << params.n_measures;
        LatticeDiscovery {
            pruned: vec![false; cells],
            rows: vec![None; params.lattice.flag_len()],
            params,
            store,
            stats: WorkStats::default(),
            scratch: TraversalScratch::default(),
            in_batch: false,
            cache: ConstraintCache::default(),
            gather: Gather {
                spans: vec![None; cells],
                ..Gather::default()
            },
        }
    }

    /// Read access to the underlying store (used by prominence queries and
    /// invariant-checking tests).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The derived algorithm parameters.
    pub fn params(&self) -> &AlgoParams {
        &self.params
    }

    /// Every subspace this kind keeps cells for: the reported ones, and for a
    /// sharing kind also the full space when `m̂ < m` keeps it unreported.
    fn family(params: &AlgoParams) -> &[SubspaceMask] {
        if SHARED {
            &params.maintained
        } else {
            &params.subspaces
        }
    }

    /// The subspaces walked one by one — after the full space, when sharing.
    fn own_passes(&self) -> &[SubspaceMask] {
        if SHARED {
            &self.params.proper_subspaces
        } else {
            &self.params.subspaces
        }
    }

    /// One pass over `C^t` in `subspace`: finds the constraints at which the
    /// new tuple is a skyline tuple, reports them, stores the tuple as the
    /// invariant demands and takes the tuples it dominates out.
    fn pass(&mut self, arrival: &Arrival<'_>, subspace: SubspaceMask, out: &mut Vec<SkylinePair>) {
        let LatticeDiscovery {
            params,
            store,
            stats,
            pruned,
            scratch,
            cache,
            rows,
            ..
        } = self;
        let params = &*params;
        let t = arrival.tuple;
        let flag_len = params.lattice.flag_len();
        let row = subspace.0 as usize * flag_len;
        // The full-space pass of a sharing kind feeds the other rows; it is
        // also the only pass whose subspace may go unreported (`m̂ < m`).
        let sharing = SHARED && subspace == params.full_space;
        let reported = !sharing || params.reports_full_space();
        // After `STopDownRoot` a proper subspace's row is complete: a pruned
        // cell need not be read.
        let known = MAXIMAL && SHARED && !sharing;
        scratch.reset(flag_len);
        let TraversalScratch {
            in_ances,
            enqueued,
            queue,
            ids,
            key,
            ..
        } = scratch;
        if MAXIMAL {
            enqueued[0] = true;
            queue.push_back(BoundMask::TOP);
        } else {
            for bottom in params.lattice.bottoms() {
                if !pruned[row + bottom.0 as usize] {
                    enqueued[bottom.0 as usize] = true;
                    queue.push_back(bottom);
                }
            }
        }
        while let Some(mask) = queue.pop_front() {
            let here = row + mask.0 as usize;
            if !MAXIMAL && pruned[here] {
                // Pruned after being enqueued. Its parents are pruned too
                // (rows are closed under unbinding), so nothing is lost by
                // not expanding it.
                continue;
            }
            stats.traversed_constraints += 1;
            let constraint = cache.get(mask);
            if !(known && pruned[here]) {
                // The ids are copied out: the loop mutates the cell.
                let handle = *row_slot(store, rows, cache, mask);
                store.read(handle, subspace, ids);
                stats.store_reads += 1;
                for &id in ids.iter() {
                    stats.comparisons += 1;
                    let stored = arrival.table.tuple(id);
                    let (better, worse) =
                        partition_measures(t.measures(), stored.measures(), &params.directions);
                    let dominated = dominated_in(better, worse, subspace);
                    if sharing || (MAXIMAL && dominated) {
                        // Proposition 3: where the stored tuple dominates the
                        // new one, it does so at every constraint both
                        // satisfy — in this subspace, and (Proposition 4) in
                        // each proper subspace the partition says so.
                        let agreement = BoundMask::agreement(t, stored);
                        if MAXIMAL && dominated {
                            prune_above(&mut pruned[row..row + flag_len], agreement);
                        }
                        if sharing {
                            for &other in &params.proper_subspaces {
                                if dominated_in(better, worse, other) {
                                    let other = other.0 as usize * flag_len;
                                    prune_above(&mut pruned[other..other + flag_len], agreement);
                                }
                            }
                        }
                    }
                    if dominated {
                        if !MAXIMAL {
                            // Proposition 2: dominated in every more general
                            // context too. The cell is the whole skyline, so
                            // one dominator settles it — a sharing pass reads
                            // on for what the rest says about the subspaces.
                            prune_above(&mut pruned[row..row + flag_len], mask);
                            if !sharing {
                                break;
                            }
                        }
                        // Invariant 2 keeps scanning regardless: other stored
                        // tuples share other dimension values with `t` and
                        // prune other constraints.
                    } else if dominated_in(worse, better, subspace) {
                        // The stored tuple is no longer a skyline tuple here.
                        let handle = row_slot(store, rows, cache, mask);
                        store.remove(handle, constraint.values(), subspace, id);
                        stats.store_writes += 1;
                        if MAXIMAL {
                            demote(params, store, stats, arrival, key, mask, subspace, id);
                        }
                    }
                }
            }
            let skyline_here = !pruned[here];
            if skyline_here {
                if reported {
                    out.push(SkylinePair::new(constraint.clone(), subspace));
                }
                if !(MAXIMAL && in_ances[mask.0 as usize]) {
                    let handle = row_slot(store, rows, cache, mask);
                    store.insert(handle, constraint.values(), subspace, arrival.id);
                    stats.store_writes += 1;
                }
            }
            if MAXIMAL {
                // Traversal continues below pruned constraints too: a
                // descendant may bind an attribute the dominating tuple does
                // not share and escape the pruning.
                for &child in &params.children[mask.0 as usize] {
                    let idx = child.0 as usize;
                    in_ances[idx] |= skyline_here;
                    if !enqueued[idx] {
                        enqueued[idx] = true;
                        queue.push_back(child);
                    }
                }
            } else if skyline_here {
                for parent in mask.parents() {
                    let idx = parent.0 as usize;
                    if !enqueued[idx] && !pruned[row + idx] {
                        enqueued[idx] = true;
                        queue.push_back(parent);
                    }
                }
            }
        }
    }
}

/// [`BoundMask::agreement`] of two tuples' dimension values.
fn agreement(left: &[DimValueId], right: &[DimValueId]) -> BoundMask {
    let mut mask = 0u32;
    for (i, (l, r)) in left.iter().zip(right).enumerate() {
        if l == r {
            mask |= 1 << i;
        }
    }
    BoundMask(mask)
}

/// Marks `reach` and every constraint above it (its submasks) in one
/// subspace's row of the pruning matrix. Rows are closed under unbinding, so
/// a marked `reach` means the rest already is.
fn prune_above(row: &mut [bool], reach: BoundMask) {
    if !row[reach.0 as usize] {
        for sub in reach.submasks() {
            row[sub.0 as usize] = true;
        }
    }
}

/// The rest of the paper's `Dominates(t', C, M)` procedure: the new tuple
/// dominates the stored tuple `id` at the cell of `cell_mask`, from which
/// the caller has just removed it, so it is re-stored, where necessary, at
/// the children of that constraint which the *new* tuple does not satisfy —
/// those are its new maximal skyline constraints, unless an existing one
/// already covers them. Those children lie outside `C^t`, so they and their
/// ancestors are probed through `key`, which allocates nothing.
#[expect(
    clippy::too_many_arguments,
    reason = "one call site, which hands down the walk's borrowed state field by field"
)]
fn demote<S: SkylineStore>(
    params: &AlgoParams,
    store: &mut S,
    stats: &mut WorkStats,
    arrival: &Arrival<'_>,
    key: &mut [DimValueId],
    cell_mask: BoundMask,
    subspace: SubspaceMask,
    id: TupleId,
) {
    let demoted = arrival.table.tuple(id);
    // At the `d̂` cap there are no children inside the maintained family: the
    // demoted tuple simply loses this maximal constraint.
    for &child_mask in &params.children[cell_mask.0 as usize] {
        let attr = (child_mask.0 ^ cell_mask.0).trailing_zeros() as usize;
        if arrival.tuple.dim(attr) == demoted.dim(attr) {
            // A child the new tuple satisfies as well is handled by the
            // ongoing traversal: the new tuple dominates the stored one
            // there too, so it is no skyline constraint of the stored tuple.
            continue;
        }
        // Maximality check: is the demoted tuple already stored at one of the
        // child's ancestors (within its own lattice)?
        let covered = child_mask.ancestors().any(|ancestor| {
            stats.store_reads += 1;
            Constraint::write_tuple_mask(key, demoted, ancestor);
            let row = store.find(key);
            store.contains(row, subspace, id)
        });
        if !covered {
            Constraint::write_tuple_mask(key, demoted, child_mask);
            let mut row = store.find(key);
            store.insert(&mut row, key, subspace, id);
            stats.store_writes += 1;
        }
    }
}

impl<const MAXIMAL: bool, const SHARED: bool, S: SkylineStore> Discovery
    for LatticeDiscovery<MAXIMAL, SHARED, S>
{
    fn name(&self) -> &'static str {
        match (MAXIMAL, SHARED) {
            (false, false) => "BottomUp",
            (true, false) => "TopDown",
            (false, true) => "SBottomUp",
            (true, true) => "STopDown",
        }
    }

    fn discover_at(&mut self, table: &Table, t: &Tuple, t_id: TupleId) -> Vec<SkylinePair> {
        // The store names the tuples to compare with; the table holds
        // their measures and dimension values.
        let arrival = Arrival {
            table,
            tuple: t,
            id: t_id,
        };
        self.cache.fill(t, self.params.n_dims);
        self.rows.fill(None);
        self.gather.clear();
        self.scratch.key.resize(self.params.n_dims, UNBOUND);
        let mut out = Vec::new();
        self.pruned.fill(false);
        if SHARED {
            self.pass(&arrival, self.params.full_space, &mut out);
        }
        for slot in 0..self.own_passes().len() {
            let subspace = self.own_passes()[slot];
            self.pass(&arrival, subspace, &mut out);
        }
        if !self.in_batch {
            self.store.flush();
        }
        out
    }

    fn begin_batch(&mut self, _expected_arrivals: usize) {
        // The traversal buffers stay allocated between passes (each pass
        // re-clears them); `end_batch` releases them again.
        self.in_batch = true;
    }

    fn end_batch(&mut self) {
        self.in_batch = false;
        self.store.flush();
        self.scratch.release();
    }

    fn work_stats(&self) -> WorkStats {
        self.stats
    }

    fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    fn skyline_cardinality_at(
        &mut self,
        table: &Table,
        constraint: &Constraint,
        subspace: SubspaceMask,
        limit: TupleId,
    ) -> usize {
        let within_family = constraint.bound_count() <= self.params.lattice.max_bound()
            && Self::family(&self.params).contains(&subspace);
        if !within_family {
            return skyline_cardinality_recompute(table, constraint, subspace, limit);
        }
        // The store covers exactly the arrivals processed so far; `limit`
        // only constrains the out-of-family recompute above.
        let LatticeDiscovery {
            params,
            store,
            scratch,
            cache,
            rows,
            gather,
            ..
        } = self;
        let TraversalScratch { ids, key, seen, .. } = scratch;
        key.resize(params.n_dims, UNBOUND);
        let mask = constraint.bound_mask();
        // Ranking asks about the arrival just discovered: its constraints
        // and their ancestors are all in `C^t`, addressed by the rows that
        // arrival resolved. Any other constraint is found by hashing.
        let cached = cache.holds(constraint);
        let mut row_at = |store: &S, sub: BoundMask| {
            let values = key.iter_mut().zip(constraint.values());
            for (i, (slot, &value)) in values.enumerate() {
                *slot = if sub.is_bound(i) { value } else { UNBOUND };
            }
            store.find(key)
        };
        if !MAXIMAL {
            // Invariant 1: the cell is the skyline.
            let row = if cached {
                *row_slot(store, rows, cache, mask)
            } else {
                row_at(store, mask)
            };
            store.read(row, subspace, ids);
            return ids.len();
        }
        // `|λ_M(σ_C(R))|` from a maximal-constraint store: the skyline tuples
        // of a context are exactly the tuples stored at the constraint itself
        // or at any of its ancestors that additionally satisfy the constraint
        // — each counted once, though several ancestors may store it.
        seen.clear();
        if !cached {
            for sub in mask.submasks() {
                let row = row_at(store, sub);
                store.read(row, subspace, ids);
                let matching = |id: &TupleId| table.get(*id).is_some_and(|t| constraint.matches(t));
                seen.extend(ids.iter().copied().filter(matching));
            }
            seen.sort_unstable();
            seen.dedup();
            return seen.len();
        }
        // The same count over the gathered cells: an id stored at `A ⊆ C`
        // satisfies `C` iff it agrees with the cached tuple on `C`'s bound
        // attributes.
        let flag_len = params.lattice.flag_len();
        let own = cache.get(BoundMask(flag_len as u32 - 1)).values();
        for sub in mask.submasks() {
            let slot = subspace.0 as usize * flag_len + sub.0 as usize;
            let cell = gather.cell(slot, |entries| {
                store.read(*row_slot(store, rows, cache, sub), subspace, ids);
                for &id in ids.iter() {
                    if let Some(stored) = table.get(id) {
                        entries.push((id, agreement(own, stored.dims())));
                    }
                }
            });
            seen.extend(
                cell.iter()
                    .filter(|(_, agreement)| mask.is_submask_of(*agreement))
                    .map(|&(id, _)| id),
            );
        }
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// The durable state is exactly the skyline store: the pruning matrix is
    /// cleared per arrival, the traversal scratch is scratch, and the work
    /// counters are not observable through the monitor's query surface.
    fn export_store_cells(&self) -> Option<Vec<StoreCell>> {
        self.store.dump_cells()
    }

    fn import_store_cells(&mut self, cells: Vec<StoreCell>) -> Result<()> {
        // Every row is replaced: no resolved handle or gathered cell
        // survives.
        self.rows.fill(None);
        self.gather.clear();
        self.store.load_cells(cells)
    }

    fn can_retract(&self) -> bool {
        true
    }

    fn retract(&mut self, table: &Table, t_id: TupleId) -> Result<()> {
        // Probe first. Only contexts containing the expired tuple `x` can
        // change, and those are the constraints of its own family `C^x`.
        // Within it the skyline of `(C, M)` changes only if `x` was in it;
        // every other cell is frozen — its skyline, and so what it stores,
        // stays as it is, for the one probe. Under Invariant 1 `x` was in the
        // skyline iff it is stored at `C`. Under Invariant 2 — membership
        // being closed towards more specific constraints, with `x` stored
        // exactly at its maximal skyline constraints — iff it is stored at
        // `C` or at an ancestor of `C`: so walk `C^x` top-down, call `(C, M)`
        // *affected* iff a parent is affected in `M` or `x` is stored there,
        // and probe the cells of `C` for `x` — except the inherited ones,
        // which cannot hold it: a tuple's maximal skyline constraints are an
        // antichain.
        //
        // The repair of a constraint is then done once for all its affected
        // subspaces. Its live context (the table's iterators skip tombstoned
        // rows) is built once: filtered on the one extra bound attribute
        // from an affected parent's context, which this call built before,
        // or asked of the table when no parent is affected. One block-nested
        // loop over it finds every affected subspace's new skyline, one
        // Proposition-4 partition per compared pair, as a subspace bitset
        // per row in id order. Then, subspace by subspace, `x` is taken out
        // of the cell and the survivors it lacks are re-promoted into it in
        // that order — exactly the store an algorithm fed only the surviving
        // suffix would hold, and every store row sees its inserts and
        // removes in the order a repair of one cell at a time made them (a
        // row's allocation, and so the store's size, follows that order).
        //
        // Under Invariant 2 a survivor `s` belongs at `C` unless it is
        // already stored above `C`, which holds exactly when `s` is in the
        // new skyline of some parent of `C` (the ancestors of `C` are the
        // same constraints in `C^s` as in `C^x`, because `s` matches `C`).
        // An affected parent's bitset answers that; a frozen parent's
        // skyline is what it and its ancestors — all frozen, as affected
        // parents pass the mark down — store, so the frozen ancestors of
        // `C` are probed. A survivor that newly becomes maximal at `C` was
        // stored further down in *its own* family (it may disagree with `x`
        // on the extra bound attributes), so those cells give it up.
        //
        // Nothing else is removed: a later id of the same eviction is dead in
        // the table but still stored, and its own call must find it to know
        // which cells it affects (see `Discovery::retract`).
        //
        // The walk addresses the cells of `C^x` through the rows of `C^x`,
        // resolved once each: the arrival's rows are dropped and the cache
        // refilled with `x`.
        let LatticeDiscovery {
            params,
            store,
            stats,
            scratch,
            cache,
            rows,
            gather,
            ..
        } = self;
        let ExpiryScratch {
            held,
            affected,
            spans,
            ids,
            members,
            window,
            cell,
            left,
            key,
        } = &mut scratch.expiry;
        let family = Self::family(params);
        let words = family.len().div_ceil(64);
        let flag_len = params.lattice.flag_len();
        key.resize(params.n_dims, UNBOUND);
        affected.clear();
        affected.resize(flag_len * words, 0);
        spans.resize(flag_len, (0, 0));
        ids.clear();
        members.clear();
        let expired = table.tuple(t_id);
        cache.fill(expired, params.n_dims);
        rows.fill(None);
        gather.clear();
        let is_affected = |affected: &[u64], mask: BoundMask| {
            let at = mask.0 as usize * words;
            affected[at..at + words].iter().any(|&word| word != 0)
        };
        for &mask in &params.top_down {
            let constraint = cache.get(mask);
            let here = mask.0 as usize * words;
            if MAXIMAL {
                for parent in mask.parents() {
                    for w in 0..words {
                        affected[here + w] |= affected[parent.0 as usize * words + w];
                    }
                }
            }
            held.clear();
            held.resize(words, 0);
            for (slot, &subspace) in family.iter().enumerate() {
                let (w, bit) = (slot / 64, 1u64 << (slot % 64));
                if affected[here + w] & bit != 0 {
                    continue;
                }
                stats.store_reads += 1;
                let row = *row_slot(store, rows, cache, mask);
                if store.contains(row, subspace, t_id) {
                    held[w] |= bit;
                }
            }
            for w in 0..words {
                affected[here + w] |= held[w];
            }
            if !is_affected(affected, mask) {
                continue;
            }
            // The live context, from the smallest affected parent's.
            let start = ids.len();
            let parent = mask
                .parents()
                .filter(|&parent| is_affected(affected, parent))
                .min_by_key(|parent| {
                    let (from, to) = spans[parent.0 as usize];
                    to - from
                });
            match parent {
                Some(parent) => {
                    let (from, to) = spans[parent.0 as usize];
                    let attr = (mask.0 ^ parent.0).trailing_zeros() as usize;
                    let value = expired.dim(attr);
                    for row in from as usize..to as usize {
                        let id = ids[row];
                        if table.tuple(id).dim(attr) == value {
                            ids.push(id);
                        }
                    }
                }
                None => ids.extend(table.context(constraint).map(|(id, _)| id)),
            }
            let len = ids.len() - start;
            spans[mask.0 as usize] = (start as u32, ids.len() as u32);
            members.resize(ids.len() * words, 0);
            let context = &ids[start..];
            for (w, subspaces) in family.chunks(64).enumerate() {
                let plane = (start * words + w * len)..(start * words + (w + 1) * len);
                stats.comparisons += shared_skylines(
                    |row| table.tuple(context[row]).measures(),
                    subspaces,
                    affected[here + w],
                    &params.directions,
                    &mut members[plane],
                    window,
                );
            }
            for (slot, &subspace) in family.iter().enumerate() {
                let (w, bit) = (slot / 64, 1u64 << (slot % 64));
                if affected[here + w] & bit == 0 {
                    continue;
                }
                if held[w] & bit != 0 {
                    let row = row_slot(store, rows, cache, mask);
                    store.remove(row, constraint.values(), subspace, t_id);
                    stats.store_writes += 1;
                }
                // An Invariant-2 cell is read only once a survivor that no
                // affected parent holds needs it.
                let mut unread = true;
                if !MAXIMAL {
                    store.read(*row_slot(store, rows, cache, mask), subspace, cell);
                    stats.store_reads += 1;
                    unread = false;
                }
                let plane = start * words + w * len;
                for row in 0..len {
                    if members[plane + row] & bit == 0 {
                        continue;
                    }
                    let id = ids[start + row];
                    let in_fresh_parent = MAXIMAL
                        && mask.parents().any(|parent| {
                            if affected[parent.0 as usize * words + w] & bit == 0 {
                                return false;
                            }
                            let (from, to) = spans[parent.0 as usize];
                            let (from, to) = (from as usize, to as usize);
                            ids[from..to].binary_search(&id).is_ok_and(|at| {
                                members[from * words + w * (to - from) + at] & bit != 0
                            })
                        });
                    if in_fresh_parent {
                        continue;
                    }
                    if unread {
                        store.read(*row_slot(store, rows, cache, mask), subspace, cell);
                        stats.store_reads += 1;
                        unread = false;
                    }
                    if cell.contains(&id) {
                        continue;
                    }
                    if MAXIMAL {
                        let mut frozen_above = params.top_down.iter().filter(|&&above| {
                            above != mask
                                && above.is_submask_of(mask)
                                && affected[above.0 as usize * words + w] & bit == 0
                        });
                        if frozen_above.any(|&above| {
                            stats.store_reads += 1;
                            let row = *row_slot(store, rows, cache, above);
                            store.contains(row, subspace, id)
                        }) {
                            continue;
                        }
                    }
                    let row = row_slot(store, rows, cache, mask);
                    store.insert(row, constraint.values(), subspace, id);
                    stats.store_writes += 1;
                    if MAXIMAL {
                        // Where the survivor agrees with `x`, its cell is one
                        // of `C^x` and goes through that row's slot — so a
                        // row it empties cannot stay behind as a stale
                        // handle; elsewhere it is found by hashing. Below a
                        // cell it leaves, it is stored nowhere (the
                        // antichain again), so those cells are not probed.
                        let survivor = table.tuple(id);
                        let agreement = BoundMask::agreement(survivor, expired);
                        left.clear();
                        for &below in &params.top_down {
                            if below != mask
                                && mask.is_submask_of(below)
                                && !left.iter().any(|cell| cell.is_submask_of(below))
                            {
                                stats.store_reads += 1;
                                let removed = if below.is_submask_of(agreement) {
                                    let row = row_slot(store, rows, cache, below);
                                    store.remove(row, cache.get(below).values(), subspace, id)
                                } else {
                                    Constraint::write_tuple_mask(key, survivor, below);
                                    let mut row = store.find(key);
                                    store.remove(&mut row, key, subspace, id)
                                };
                                if removed {
                                    stats.store_writes += 1;
                                    left.push(below);
                                }
                            }
                        }
                    }
                }
            }
        }
        if !self.in_batch {
            self.store.flush();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::BruteForce;
    use crate::AlgorithmKind;
    use rand::prelude::*;
    use sitfact_core::dominance;
    use sitfact_core::pair::canonical_sort;
    use sitfact_core::{ConstraintLattice, Direction, SchemaBuilder};

    const KINDS: [AlgorithmKind; 4] = [
        AlgorithmKind::BottomUp,
        AlgorithmKind::TopDown,
        AlgorithmKind::SBottomUp,
        AlgorithmKind::STopDown,
    ];

    /// Three dimensions and `m` measures, every third of them
    /// lower-is-better (none for `m = 2`, the running example's shape).
    fn schema(m: usize) -> Schema {
        let mut b = SchemaBuilder::new("s")
            .dimension("d1")
            .dimension("d2")
            .dimension("d3");
        for i in 0..m {
            let dir = if i % 3 == 2 {
                Direction::LowerIsBetter
            } else {
                Direction::HigherIsBetter
            };
            b = b.measure(format!("m{i}"), dir);
        }
        b.build().unwrap()
    }

    /// Dimension values below `cards`, `m` integer measures below `top`.
    fn random_tuple(rng: &mut StdRng, cards: [u32; 3], m: usize, top: u32) -> Tuple {
        let dims = cards.iter().map(|&c| rng.gen_range(0..c)).collect();
        Tuple::new(dims, (0..m).map(|_| rng.gen_range(0..top) as f64).collect())
    }

    fn build(kind: AlgorithmKind, schema: &Schema, config: DiscoveryConfig) -> Box<dyn Discovery> {
        kind.build(schema, config, None).unwrap()
    }

    /// One row per case the four files used to test one by one: `(kind,
    /// measures, config, steps, seed)`. `m̂ < m` exercises the "full space
    /// maintained but not reported" path of the sharing kinds.
    #[test]
    fn agrees_with_brute_force_on_random_streams() {
        let (open, capped) = (
            DiscoveryConfig::unrestricted(),
            DiscoveryConfig::capped(2, 2),
        );
        let rows = [
            (AlgorithmKind::BottomUp, 2, open, 70, 3),
            (AlgorithmKind::TopDown, 2, open, 70, 31),
            (AlgorithmKind::SBottomUp, 2, open, 70, 101),
            (AlgorithmKind::SBottomUp, 3, open, 50, 103),
            (AlgorithmKind::SBottomUp, 3, capped, 50, 107),
            (AlgorithmKind::STopDown, 2, open, 70, 211),
            (AlgorithmKind::STopDown, 3, open, 50, 223),
            (AlgorithmKind::STopDown, 3, capped, 50, 227),
        ];
        for (kind, m, config, steps, seed) in rows {
            let mut rng = StdRng::seed_from_u64(seed);
            let schema = schema(m);
            let mut table = Table::new(schema.clone());
            let mut subject = build(kind, &schema, config);
            let mut reference = BruteForce::new(&schema, config);
            for _ in 0..steps {
                let t = random_tuple(&mut rng, [3, 2, 3], m, 5);
                let mut expected = reference.discover(&table, &t);
                let mut actual = subject.discover(&table, &t);
                canonical_sort(&mut expected);
                canonical_sort(&mut actual);
                assert_eq!(
                    expected,
                    actual,
                    "{kind} seed {seed} diverged at tuple {}",
                    table.len()
                );
                table.append(t).unwrap();
            }
        }
    }

    /// `(kind, seed, steps, sampled tuple)`: every constraint of the sample's
    /// family in every subspace, against the recomputed skyline.
    #[test]
    fn skyline_cardinality_matches_ground_truth() {
        let rows = [
            (AlgorithmKind::BottomUp, 5, 50, 10),
            (AlgorithmKind::TopDown, 41, 50, 20),
            (AlgorithmKind::SBottomUp, 113, 60, 30),
            (AlgorithmKind::STopDown, 233, 60, 15),
        ];
        for (kind, seed, steps, sample) in rows {
            let mut rng = StdRng::seed_from_u64(seed);
            let schema = schema(2);
            let mut table = Table::new(schema.clone());
            let mut algo = build(kind, &schema, DiscoveryConfig::unrestricted());
            for _ in 0..steps {
                let t = random_tuple(&mut rng, [2, 2, 2], 2, 4);
                let _ = algo.discover(&table, &t);
                table.append(t).unwrap();
            }
            let directions = table.schema().directions().to_vec();
            let sample = table.tuple(sample);
            for mask in ConstraintLattice::unrestricted(3).enumerate_top_down() {
                let c = Constraint::from_tuple_mask(sample, mask);
                for m in SubspaceMask::enumerate(2, 2) {
                    let expected = dominance::skyline_of(table.context(&c), m, &directions).len();
                    assert_eq!(
                        algo.skyline_cardinality(&table, &c, m),
                        expected,
                        "{kind}: constraint {c:?} subspace {m:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn names_and_stats() {
        let schema = schema(2);
        for kind in KINDS {
            let mut algo = build(kind, &schema, DiscoveryConfig::unrestricted());
            assert_eq!(algo.name(), kind.name());
            assert_eq!(algo.store_stats(), StoreStats::default());
            let mut table = Table::new(schema.clone());
            for i in 0..10 {
                let t = Tuple::new(vec![0, 1, 2], vec![i as f64, (10 - i) as f64]);
                let _ = algo.discover(&table, &t);
                table.append(t).unwrap();
            }
            assert!(algo.work_stats().comparisons > 0);
            assert!(algo.work_stats().traversed_constraints > 0);
            assert!(algo.store_stats().stored_entries > 0);
        }
    }

    /// Repair under either invariant: after expiring a prefix, the store (and
    /// all subsequent discoveries) must be indistinguishable from an
    /// algorithm that only ever processed the surviving suffix under the same
    /// ids — for the maximal-only kinds the promotion cascade moves survivors
    /// up to their new maximal constraints.
    #[test]
    fn retraction_matches_rebuild_from_suffix() {
        let rows = [
            (AlgorithmKind::BottomUp, 337),
            (AlgorithmKind::TopDown, 257),
            (AlgorithmKind::SBottomUp, 331),
            (AlgorithmKind::STopDown, 251),
        ];
        for (kind, seed) in rows {
            let mut rng = StdRng::seed_from_u64(seed);
            let schema = schema(2);
            let config = DiscoveryConfig::unrestricted();
            let mut table = Table::new(schema.clone());
            let mut algo = build(kind, &schema, config);
            let mut tuples = Vec::new();
            for _ in 0..60 {
                let t = random_tuple(&mut rng, [3, 2, 3], 2, 5);
                let _ = algo.discover(&table, &t);
                table.append(t.clone()).unwrap();
                tuples.push(t);
            }
            // Expire the first 25 arrivals: tombstone, repair, compact.
            assert_eq!(table.retract_prefix(25), 25);
            for id in 0..25u32 {
                algo.retract(&table, id).unwrap();
            }
            table.compact_retracted();
            table.audit().unwrap();

            // Rebuild from scratch over the surviving suffix, same ids.
            let mut fresh_table = Table::with_base(schema.clone(), 25);
            let mut fresh = build(kind, &schema, config);
            for t in &tuples[25..] {
                let _ = fresh.discover(&fresh_table, t);
                fresh_table.append(t.clone()).unwrap();
            }
            let sorted_cells = |algo: &dyn Discovery| {
                let mut cells = algo.export_store_cells().unwrap();
                for cell in &mut cells {
                    cell.entries.sort_unstable();
                }
                cells.sort_by(|a, b| (&a.constraint, a.subspace).cmp(&(&b.constraint, b.subspace)));
                cells
            };
            assert_eq!(sorted_cells(&*algo), sorted_cells(&*fresh), "{kind}");
            // New arrivals keep discovering identical facts.
            for _ in 0..10 {
                let t = random_tuple(&mut rng, [3, 2, 3], 2, 5);
                let mut a = algo.discover(&table, &t);
                let mut b = fresh.discover(&fresh_table, &t);
                canonical_sort(&mut a);
                canonical_sort(&mut b);
                assert_eq!(a, b, "{kind}");
                table.append(t.clone()).unwrap();
                fresh_table.append(t).unwrap();
            }
        }
    }

    /// A windowed tenant expires rows after every batch, so the buffers
    /// `retract` works in must survive `end_batch`, which releases the
    /// traversal buffers: each eviction finds them allocated.
    #[test]
    fn expiry_buffers_survive_the_batch_that_ends() {
        let mut rng = StdRng::seed_from_u64(263);
        let schema = schema(3);
        let mut table = Table::new(schema.clone());
        let mut algo = STopDown::new(&schema, DiscoveryConfig::unrestricted());
        let capacities = |algo: &STopDown| {
            let e = &algo.scratch.expiry;
            [
                e.held.capacity(),
                e.affected.capacity(),
                e.spans.capacity(),
                e.ids.capacity(),
                e.members.capacity(),
                e.window.capacity(),
                e.cell.capacity(),
                e.left.capacity(),
                e.key.capacity(),
            ]
        };
        let mut evicted = None;
        for _ in 0..12 {
            let batch: Vec<Tuple> = (0..5)
                .map(|_| random_tuple(&mut rng, [3, 2, 3], 3, 5))
                .collect();
            let ids = table.append_batch_slice(&batch).unwrap();
            algo.begin_batch(batch.len());
            for (t, id) in batch.iter().zip(ids) {
                let _ = algo.discover_at(&table, t, id);
            }
            algo.end_batch();
            assert_eq!(algo.scratch.in_ances.capacity(), 0);
            if let Some(evicted) = evicted {
                assert_eq!(capacities(&algo), evicted);
            }
            let start = table.watermark();
            let newly = table.retract_prefix(table.len().saturating_sub(20));
            for id in start..start + newly as TupleId {
                algo.retract(&table, id).unwrap();
            }
            evicted = (newly > 0).then(|| capacities(&algo));
        }
        assert!(evicted.is_some_and(|caps| caps.iter().all(|&cap| cap > 0)));
    }

    /// Feeds the running example of the paper (Table IV, `t1`…`t5` with ids
    /// 0…4) through a fresh algorithm.
    fn running_example<A: Discovery>(new: fn(&Schema, DiscoveryConfig) -> A) -> (Table, A) {
        let schema = schema(2);
        let mut table = Table::new(schema.clone());
        let mut algo = new(&schema, DiscoveryConfig::unrestricted());
        let rows: [([&str; 3], [f64; 2]); 5] = [
            (["a1", "b2", "c2"], [10.0, 15.0]),
            (["a1", "b1", "c1"], [15.0, 10.0]),
            (["a2", "b1", "c2"], [17.0, 17.0]),
            (["a2", "b1", "c1"], [20.0, 20.0]),
            (["a1", "b1", "c1"], [11.0, 15.0]),
        ];
        for (dims, measures) in rows {
            let ids = table.schema_mut().intern_dims(&dims).unwrap();
            let t = Tuple::new(ids, measures.to_vec());
            let _ = algo.discover(&table, &t);
            table.append(t).unwrap();
        }
        (table, algo)
    }

    /// The sorted ids a cell holds.
    fn cell_ids<S: SkylineStore>(store: &mut S, c: &Constraint, m: SubspaceMask) -> Vec<TupleId> {
        let mut ids = Vec::new();
        store.read(store.find(c.values()), m, &mut ids);
        ids.sort_unstable();
        ids
    }

    /// The store contents of Fig. 3 after t5 arrives.
    #[test]
    fn reproduces_figure_3() {
        let (table, mut algo) = running_example(BottomUp::new);
        let full = SubspaceMask::full(2);
        let get = |bindings: &[(&str, &str)]| Constraint::parse(table.schema(), bindings).unwrap();
        // Fig. 3b: µ for ⟨a1,*,*⟩ = {t2, t5}, ⟨a1,b1,c1⟩ = {t2, t5},
        // ⊤ = {t4}, ⟨*,b1,c1⟩ = {t4}.
        let mut cell = |c: &Constraint| cell_ids(&mut algo.store, c, full);
        assert_eq!(cell(&get(&[("d1", "a1")])), vec![1, 4]);
        assert_eq!(
            cell(&get(&[("d1", "a1"), ("d2", "b1"), ("d3", "c1")])),
            vec![1, 4]
        );
        assert_eq!(cell(&Constraint::top(3)), vec![3]);
        assert_eq!(cell(&get(&[("d2", "b1"), ("d3", "c1")])), vec![3]);
    }

    /// After t5 arrives the store must match Fig. 4b (tuples only at maximal
    /// skyline constraints).
    #[test]
    fn reproduces_figure_4() {
        let (table, mut algo) = running_example(TopDown::new);
        let full = SubspaceMask::full(2);
        let get = |bindings: &[(&str, &str)]| Constraint::parse(table.schema(), bindings).unwrap();
        let mut cell = |c: &Constraint| cell_ids(&mut algo.store, c, full);
        // Fig. 4b: ⊤ = {t4}, ⟨a1,*,*⟩ = {t2, t5}, ⟨*,b2,*⟩ = {t1},
        // ⟨*,*,c2⟩ = {t3}, ⟨a1,*,c2⟩ = {t1}; everything below a1 is empty.
        assert_eq!(cell(&Constraint::top(3)), vec![3]);
        assert_eq!(cell(&get(&[("d1", "a1")])), vec![1, 4]);
        assert_eq!(cell(&get(&[("d2", "b2")])), vec![0]);
        assert_eq!(cell(&get(&[("d3", "c2")])), vec![2]);
        assert_eq!(cell(&get(&[("d1", "a1"), ("d3", "c2")])), vec![0]);
        assert!(cell(&get(&[("d1", "a1"), ("d2", "b1")])).is_empty());
        assert!(cell(&get(&[("d1", "a1"), ("d2", "b1"), ("d3", "c1")])).is_empty());
        assert!(cell(&get(&[("d2", "b1"), ("d3", "c1")])).is_empty());
    }

    /// Example 10 of the paper: after processing Table IV, STopDown stores t5
    /// alongside t1 at ⟨a1,*,*⟩ in subspace {m2} and makes no change in {m1}.
    #[test]
    fn reproduces_example_10() {
        let (table, mut algo) = running_example(STopDown::new);
        let a1 = Constraint::parse(table.schema(), &[("d1", "a1")]).unwrap();
        let m1 = SubspaceMask::singleton(0);
        let m2 = SubspaceMask::singleton(1);
        let mut ids_in = |c: &Constraint, m: SubspaceMask| cell_ids(&mut algo.store, c, m);
        // Fig. 6b: µ_{⟨a1⟩, {m2}} = {t1, t5}.
        assert_eq!(ids_in(&a1, m2), vec![0, 4]);
        // Fig. 5b: in {m1} the cell for ⟨a1⟩ still holds only t2.
        assert_eq!(ids_in(&a1, m1), vec![1]);
        // ⊤ holds t4 in both single-measure subspaces.
        assert_eq!(ids_in(&Constraint::top(3), m1), vec![3]);
        assert_eq!(ids_in(&Constraint::top(3), m2), vec![3]);
    }

    /// Invariant 1: after any prefix of a random stream, every cell equals the
    /// recomputed contextual skyline.
    #[test]
    fn invariant_1_holds_on_random_stream() {
        let mut rng = StdRng::seed_from_u64(11);
        let schema = schema(2);
        let mut table = Table::new(schema.clone());
        let mut algo = BottomUp::new(&schema, DiscoveryConfig::unrestricted());
        for step in 0..80 {
            let t = random_tuple(&mut rng, [3, 3, 2], 2, 5);
            let _ = algo.discover(&table, &t);
            table.append(t).unwrap();
            if step % 20 != 19 {
                continue;
            }
            // Validate every non-empty cell against a recomputed skyline.
            let directions = table.schema().directions().to_vec();
            for cell in algo.store.dump_cells().unwrap() {
                let (constraint, subspace) = (
                    Constraint::from_values(cell.constraint),
                    SubspaceMask(cell.subspace),
                );
                let expected: std::collections::BTreeSet<TupleId> =
                    dominance::skyline_of(table.context(&constraint), subspace, &directions)
                        .into_iter()
                        .map(|(id, _)| id)
                        .collect();
                let actual: std::collections::BTreeSet<TupleId> =
                    cell.entries.into_iter().collect();
                assert_eq!(expected, actual, "cell ({constraint:?}, {subspace:?})");
            }
        }
    }

    /// Invariant 2: a tuple is stored at a cell iff that constraint is one of
    /// its maximal skyline constraints.
    #[test]
    fn invariant_2_holds_on_random_stream() {
        let mut rng = StdRng::seed_from_u64(23);
        let schema = schema(2);
        let mut table = Table::new(schema.clone());
        let mut algo = TopDown::new(&schema, DiscoveryConfig::unrestricted());
        for step in 0..80 {
            let t = random_tuple(&mut rng, [3, 3, 2], 2, 5);
            let _ = algo.discover(&table, &t);
            table.append(t).unwrap();
            if step % 20 != 19 {
                continue;
            }
            let directions = table.schema().directions().to_vec();
            let lattice = ConstraintLattice::unrestricted(3);
            for (id, tuple) in table.iter() {
                for m in SubspaceMask::enumerate(2, 2) {
                    // Compute the tuple's skyline constraints by brute force.
                    let mut skyline_masks = Vec::new();
                    for mask in lattice.enumerate_top_down() {
                        let c = Constraint::from_tuple_mask(tuple, mask);
                        let sky = dominance::skyline_of(table.context(&c), m, &directions);
                        if sky.iter().any(|(sid, _)| *sid == id) {
                            skyline_masks.push(mask);
                        }
                    }
                    // Maximal = no proper submask is also a skyline constraint.
                    let maximal: Vec<BoundMask> = skyline_masks
                        .iter()
                        .copied()
                        .filter(|mask| !mask.ancestors().any(|anc| skyline_masks.contains(&anc)))
                        .collect();
                    for mask in lattice.enumerate_top_down() {
                        let c = Constraint::from_tuple_mask(tuple, mask);
                        let row = algo.store.find(c.values());
                        let stored = algo.store.contains(row, m, id);
                        let expected = maximal.contains(&mask);
                        assert_eq!(
                            stored, expected,
                            "tuple {id} mask {mask} subspace {m:?} (step {step})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stores_fewer_entries_than_bottom_up() {
        let mut rng = StdRng::seed_from_u64(17);
        let schema = schema(2);
        let config = DiscoveryConfig::unrestricted();
        let mut table = Table::new(schema.clone());
        let mut top_down = TopDown::new(&schema, config);
        let mut bottom_up = BottomUp::new(&schema, config);
        for _ in 0..120 {
            let t = random_tuple(&mut rng, [4, 4, 3], 2, 8);
            let _ = top_down.discover(&table, &t);
            let _ = bottom_up.discover(&table, &t);
            table.append(t).unwrap();
        }
        // The headline space claim of the paper (Fig. 10b): maximal-constraint
        // storage keeps strictly fewer entries than exhaustive storage.
        assert!(
            top_down.store_stats().stored_entries < bottom_up.store_stats().stored_entries,
            "TopDown {} vs BottomUp {}",
            top_down.store_stats().stored_entries,
            bottom_up.store_stats().stored_entries
        );
    }

    #[test]
    fn shares_comparisons_relative_to_bottom_up() {
        let mut rng = StdRng::seed_from_u64(109);
        let schema = schema(4);
        let config = DiscoveryConfig::unrestricted();
        let mut table = Table::new(schema.clone());
        let mut shared = SBottomUp::new(&schema, config);
        let mut plain = BottomUp::new(&schema, config);
        for _ in 0..150 {
            let t = random_tuple(&mut rng, [4, 4, 3], 4, 10);
            let _ = shared.discover(&table, &t);
            let _ = plain.discover(&table, &t);
            table.append(t).unwrap();
        }
        // Sharing never does more dominance comparisons than the plain
        // variant, and the stores hold identical contents (Invariant 1).
        assert!(shared.work_stats().comparisons <= plain.work_stats().comparisons);
        assert_eq!(
            shared.store_stats().stored_entries,
            plain.store_stats().stored_entries
        );
    }

    /// The stores of STopDown and TopDown must stay identical — they implement
    /// the same Invariant 2 — while STopDown performs fewer comparisons.
    #[test]
    fn matches_top_down_storage_with_fewer_comparisons() {
        let mut rng = StdRng::seed_from_u64(229);
        let schema = schema(3);
        let config = DiscoveryConfig::unrestricted();
        let mut table = Table::new(schema.clone());
        let mut shared = STopDown::new(&schema, config);
        let mut plain = TopDown::new(&schema, config);
        for _ in 0..120 {
            let t = random_tuple(&mut rng, [4, 4, 3], 3, 8);
            let mut a = shared.discover(&table, &t);
            let mut b = plain.discover(&table, &t);
            canonical_sort(&mut a);
            canonical_sort(&mut b);
            assert_eq!(a, b);
            table.append(t).unwrap();
        }
        assert_eq!(
            shared.store_stats().stored_entries,
            plain.store_stats().stored_entries
        );
        assert!(
            shared.work_stats().comparisons < plain.work_stats().comparisons,
            "sharing should reduce comparisons: {} vs {}",
            shared.work_stats().comparisons,
            plain.work_stats().comparisons
        );
    }

    /// The batched driving protocol — window appended to the table up front,
    /// then `discover_at` with explicit ids between `begin_batch`/`end_batch`
    /// — must produce exactly the per-arrival results of the sequential
    /// protocol, for the shared variant and for a scanning baseline (whose
    /// table scans must self-limit to ids before the arrival).
    #[test]
    fn batched_protocol_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(241);
        let schema = schema(2);
        let config = DiscoveryConfig::unrestricted();
        let window: Vec<Tuple> = (0..50)
            .map(|_| random_tuple(&mut rng, [3, 2, 3], 2, 5))
            .collect();

        // Sequential protocol: discover against history, then append.
        let mut seq_table = Table::new(schema.clone());
        let mut seq_std = STopDown::new(&schema, config);
        let mut seq_bf = BruteForce::new(&schema, config);
        let mut seq_results = Vec::new();
        for t in &window {
            let mut a = seq_std.discover(&seq_table, t);
            let mut b = seq_bf.discover(&seq_table, t);
            canonical_sort(&mut a);
            canonical_sort(&mut b);
            assert_eq!(a, b);
            seq_results.push(a);
            seq_table.append(t.clone()).unwrap();
        }

        // Batched protocol: the whole window lands in the table first.
        let mut batch_table = Table::new(schema.clone());
        let first = batch_table.next_id();
        batch_table.append_batch_slice(&window).unwrap();
        let mut batch_std = STopDown::new(&schema, config);
        let mut batch_bf = BruteForce::new(&schema, config);
        batch_std.begin_batch(window.len());
        batch_bf.begin_batch(window.len());
        for (i, t) in window.iter().enumerate() {
            let t_id = first + i as TupleId;
            let mut a = batch_std.discover_at(&batch_table, t, t_id);
            let mut b = batch_bf.discover_at(&batch_table, t, t_id);
            canonical_sort(&mut a);
            canonical_sort(&mut b);
            assert_eq!(a, seq_results[i], "arrival {i} diverged (STopDown)");
            assert_eq!(b, seq_results[i], "arrival {i} diverged (BruteForce)");
        }
        batch_std.end_batch();
        batch_bf.end_batch();
        assert_eq!(
            batch_std.store_stats().stored_entries,
            seq_std.store_stats().stored_entries
        );
    }

    /// The file-backed instantiation (`FSTopDown`) produces identical results.
    #[test]
    fn file_backed_variant_agrees() {
        let dir = std::env::temp_dir().join(format!("sitfact-fstd-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rng = StdRng::seed_from_u64(239);
        let schema = schema(2);
        let config = DiscoveryConfig::unrestricted();
        let mut table = Table::new(schema.clone());
        let store = FileSkylineStore::new(&dir).unwrap();
        let mut subject = STopDown::with_store(&schema, config, store);
        let mut reference = BruteForce::new(&schema, config);
        for _ in 0..40 {
            let t = random_tuple(&mut rng, [3, 2, 2], 2, 5);
            let mut expected = reference.discover(&table, &t);
            let mut actual = subject.discover(&table, &t);
            canonical_sort(&mut expected);
            canonical_sort(&mut actual);
            assert_eq!(expected, actual);
            table.append(t).unwrap();
        }
        assert!(subject.store_stats().file_writes > 0);
        drop(subject);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
