//! Algorithm 6 of the paper: `STopDown` — `TopDown` with computation shared
//! across measure subspaces.

use crate::common::{
    dominates_measures, partition_measures, skyline_counted, AlgoParams, ConstraintCache,
    TraversalScratch,
};
use crate::top_down::{demote_stored_tuple, skyline_cardinality_from_maximal};
use crate::traits::Discovery;
use sitfact_core::{
    BoundMask, Constraint, DiscoveryConfig, Schema, SkylinePair, SubspaceMask, Tuple, TupleId,
};
use sitfact_storage::{
    MemorySkylineStore, SkylineStore, StoreCell, StoreStats, StoredEntry, Table, WorkStats,
};

/// `STopDown` runs the `TopDown` traversal once in the **full** measure space
/// (`STopDownRoot`). Because that traversal visits *every* constraint of
/// `C^t` and compares the new tuple with every stored skyline tuple it meets,
/// the per-subspace dominance information derived from those comparisons
/// (Proposition 4) is **complete**: for each proper subspace, the constraints
/// left unpruned are exactly the skyline constraints of the new tuple. The
/// per-subspace passes (`STopDownNode`) therefore skip all dominance checks
/// against the new tuple — they only store it at its maximal skyline
/// constraints and demote any tuples it dominates.
#[derive(Debug)]
pub struct STopDown<S: SkylineStore = MemorySkylineStore> {
    params: AlgoParams,
    store: S,
    stats: WorkStats,
    /// `pruned_matrix[subspace][mask]`, reused across tuples.
    pruned_matrix: Vec<Vec<bool>>,
    /// Per-pass traversal buffers, kept warm across a batch.
    scratch: TraversalScratch,
    /// Inside a `begin_batch`/`end_batch` window: per-arrival store flushes
    /// are deferred to `end_batch` (reads go through the store's write-back
    /// buffer either way, so results are unchanged — only the file-backed
    /// store's write-back cadence differs).
    in_batch: bool,
}

impl STopDown<MemorySkylineStore> {
    /// Creates the algorithm with the default in-memory skyline store.
    pub fn new(schema: &Schema, config: DiscoveryConfig) -> Self {
        Self::with_store(schema, config, MemorySkylineStore::new())
    }
}

impl<S: SkylineStore> STopDown<S> {
    /// Creates the algorithm over a caller-provided skyline store backend.
    pub fn with_store(schema: &Schema, config: DiscoveryConfig, store: S) -> Self {
        let params = AlgoParams::new(schema, config);
        let subspace_slots = 1usize << params.n_measures;
        let flag_len = params.lattice.flag_len();
        STopDown {
            params,
            store,
            stats: WorkStats::default(),
            pruned_matrix: vec![vec![false; flag_len]; subspace_slots],
            scratch: TraversalScratch::default(),
            in_batch: false,
        }
    }

    /// Read access to the underlying store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The derived algorithm parameters.
    pub fn params(&self) -> &AlgoParams {
        &self.params
    }

    fn reset_matrix(&mut self) {
        for row in &mut self.pruned_matrix {
            row.iter_mut().for_each(|p| *p = false);
        }
    }

    /// `STopDownRoot`: the `TopDown` pass over the full measure space, with
    /// per-subspace pruning recorded for every comparison. `arrival` is the
    /// new tuple's store entry, cloned (a reference-count bump) per insert.
    fn root_pass(
        &mut self,
        table: &Table,
        cache: &ConstraintCache,
        t: &Tuple,
        arrival: &StoredEntry,
        out: &mut Vec<SkylinePair>,
    ) {
        let STopDown {
            params,
            store,
            stats,
            pruned_matrix,
            scratch,
            ..
        } = self;
        let params = &*params;
        let full = params.full_space;
        let report_full = params.reports_full_space();
        scratch.reset(params.lattice.flag_len());
        let TraversalScratch {
            pruned,
            in_ances,
            enqueued,
            queue,
        } = scratch;
        queue.push_back(BoundMask::TOP);
        enqueued[0] = true;
        while let Some(mask) = queue.pop_front() {
            stats.traversed_constraints += 1;
            let constraint = cache.get(mask);
            let entries = store.read(constraint, full);
            stats.store_reads += 1;
            for entry in entries.iter() {
                stats.comparisons += 1;
                let (better, worse) =
                    partition_measures(t.measures(), &entry.measures, &params.directions);
                let other = table.tuple(entry.id);
                let agreement = BoundMask::agreement(t, other);
                // Record, for every proper subspace where this stored tuple
                // dominates the new one, the pruned constraint set C^{t,t'}.
                for &subspace in &params.proper_subspaces {
                    if crate::common::dominated_in(better, worse, subspace) {
                        let row = &mut pruned_matrix[subspace.0 as usize];
                        if !row[agreement.0 as usize] {
                            for sub in agreement.submasks() {
                                row[sub.0 as usize] = true;
                            }
                        }
                    }
                }
                if crate::common::dominated_in(better, worse, full) {
                    // `Dominated` in the full space.
                    for sub in agreement.submasks() {
                        pruned[sub.0 as usize] = true;
                    }
                    pruned[mask.0 as usize] = true;
                } else if dominates_measures(
                    t.measures(),
                    &entry.measures,
                    full,
                    &params.directions,
                ) {
                    demote_stored_tuple(
                        params, store, stats, table, t, mask, constraint, full, entry,
                    );
                }
            }
            // A snapshot still alive at the insert would make the store copy
            // the whole cell before writing to it.
            drop(entries);
            if !pruned[mask.0 as usize] {
                if report_full {
                    out.push(SkylinePair::new(constraint.clone(), full));
                }
                if !in_ances[mask.0 as usize] {
                    store.insert(constraint, full, arrival.clone());
                    stats.store_writes += 1;
                }
            }
            for &child in &params.children[mask.0 as usize] {
                let idx = child.0 as usize;
                if !pruned[mask.0 as usize] {
                    in_ances[idx] = true;
                }
                if !enqueued[idx] {
                    enqueued[idx] = true;
                    queue.push_back(child);
                }
            }
        }
    }

    /// `STopDownNode(M)`: visits the (already known) skyline constraints of
    /// the new tuple in subspace `M`, storing the tuple at the maximal ones
    /// and demoting stored tuples it dominates. No dominance check against
    /// the new tuple is needed — the pruned matrix is complete.
    fn node_pass(
        &mut self,
        table: &Table,
        cache: &ConstraintCache,
        t: &Tuple,
        arrival: &StoredEntry,
        subspace: SubspaceMask,
        out: &mut Vec<SkylinePair>,
    ) {
        let STopDown {
            params,
            store,
            stats,
            pruned_matrix,
            scratch,
            ..
        } = self;
        let params = &*params;
        scratch.reset(params.lattice.flag_len());
        let TraversalScratch {
            in_ances,
            enqueued,
            queue,
            ..
        } = scratch;
        queue.push_back(BoundMask::TOP);
        enqueued[0] = true;
        while let Some(mask) = queue.pop_front() {
            stats.traversed_constraints += 1;
            let is_pruned = pruned_matrix[subspace.0 as usize][mask.0 as usize];
            if !is_pruned {
                let constraint = cache.get(mask);
                out.push(SkylinePair::new(constraint.clone(), subspace));
                let entries = store.read(constraint, subspace);
                stats.store_reads += 1;
                for entry in entries.iter() {
                    stats.comparisons += 1;
                    if dominates_measures(
                        t.measures(),
                        &entry.measures,
                        subspace,
                        &params.directions,
                    ) {
                        demote_stored_tuple(
                            params, store, stats, table, t, mask, constraint, subspace, entry,
                        );
                    }
                }
                // As in `root_pass`: no live snapshot at the insert.
                drop(entries);
                if !in_ances[mask.0 as usize] {
                    store.insert(constraint, subspace, arrival.clone());
                    stats.store_writes += 1;
                }
            }
            for &child in &params.children[mask.0 as usize] {
                let idx = child.0 as usize;
                if !is_pruned {
                    in_ances[idx] = true;
                }
                if !enqueued[idx] {
                    enqueued[idx] = true;
                    queue.push_back(child);
                }
            }
        }
    }
}

impl<S: SkylineStore> Discovery for STopDown<S> {
    fn name(&self) -> &'static str {
        "STopDown"
    }

    fn discover_at(&mut self, table: &Table, t: &Tuple, t_id: TupleId) -> Vec<SkylinePair> {
        let cache = ConstraintCache::new(t, self.params.n_dims);
        // One measure allocation per arrival, shared by every cell it enters.
        let arrival = StoredEntry::new(t_id, t.measures());
        let mut out = Vec::new();
        self.reset_matrix();
        self.root_pass(table, &cache, t, &arrival, &mut out);
        for slot in 0..self.params.proper_subspaces.len() {
            let subspace = self.params.proper_subspaces[slot];
            self.node_pass(table, &cache, t, &arrival, subspace, &mut out);
        }
        if !self.in_batch {
            self.store.flush();
        }
        out
    }

    fn begin_batch(&mut self, expected_arrivals: usize) {
        let _ = expected_arrivals;
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
            && !subspace.is_empty()
            && (subspace == self.params.full_space || self.params.subspaces.contains(&subspace));
        if within_family {
            // The store covers exactly the processed arrivals; `limit` only
            // constrains the out-of-family recompute below.
            skyline_cardinality_from_maximal(&mut self.store, table, constraint, subspace)
        } else {
            crate::common::skyline_cardinality_recompute(table, constraint, subspace, limit)
        }
    }

    /// `STopDown`'s durable state is exactly its skyline store: the pruning
    /// matrix is reset per arrival, the traversal scratch is scratch, and the
    /// work counters are not observable through the monitor's query surface.
    fn export_store_cells(&self) -> Option<Vec<StoreCell>> {
        self.store.dump_cells()
    }

    fn import_store_cells(&mut self, cells: Vec<StoreCell>) -> sitfact_core::Result<()> {
        self.store.load_cells(cells)
    }

    fn retract(&mut self, table: &Table, t_id: TupleId) -> sitfact_core::Result<()> {
        // Invariant-2 repair, probe first. Only contexts containing the
        // expired tuple `x` can change, and those are the constraints of its
        // own family `C^x`. Within it the skyline of `(C, M)` changes only if
        // `x` was in it, and — membership being closed towards more specific
        // constraints, with `x` stored exactly at its maximal skyline
        // constraints — that is the case iff `x` is stored at `C` or at an
        // ancestor of `C`. So walk `C^x` top-down, take `x` out where it is
        // stored, and call `(C, M)` *affected* iff `x` was stored there or a
        // parent is affected in `M`. Every other cell is frozen: its skyline,
        // and so what it stores, stays as it is, for the one probe.
        //
        // An affected cell is recomputed from its live context, scanned once
        // per constraint for all its affected subspaces (the table's
        // iterators skip tombstoned rows). A survivor `s` of that skyline
        // belongs at `C` unless an ancestor skyline also holds it, and the
        // ancestors — frozen, or repaired earlier in this walk — answer that
        // from the store; they are the same constraints in `C^s` as in `C^x`,
        // because `s` matches `C`. A survivor that newly becomes maximal at
        // `C` was stored further down in *its own* family (it may disagree
        // with `x` on the extra bound attributes), so those cells give it up.
        //
        // Nothing else is removed: a later id of the same eviction is dead in
        // the table but still stored, and its own call must find it to know
        // which cells it affects (see `Discovery::retract`).
        let STopDown {
            params,
            store,
            stats,
            ..
        } = self;
        let expired = table.tuple(t_id);
        let cache = ConstraintCache::new(expired, params.n_dims);
        let n_sub = params.maintained.len();
        let mut affected = vec![false; params.lattice.flag_len() * n_sub];
        let mut rows = Vec::new();
        for &mask in &params.top_down {
            let constraint = cache.get(mask);
            let mut scanned = false;
            for (slot, &subspace) in params.maintained.iter().enumerate() {
                stats.store_reads += 1;
                let held = store.remove(constraint, subspace, t_id);
                stats.store_writes += u64::from(held);
                let inherited = mask
                    .parents()
                    .any(|p| affected[p.0 as usize * n_sub + slot]);
                if !(held || inherited) {
                    continue;
                }
                affected[mask.0 as usize * n_sub + slot] = true;
                if !scanned {
                    scanned = true;
                    rows.clear();
                    rows.extend(table.context(constraint));
                }
                let skyline =
                    skyline_counted(&rows, subspace, &params.directions, &mut stats.comparisons);
                let current = store.read(constraint, subspace);
                stats.store_reads += 1;
                for (id, survivor) in skyline {
                    if current.iter().any(|e| e.id == id) {
                        continue;
                    }
                    let mut above = params
                        .top_down
                        .iter()
                        .filter(|a| **a != mask && a.is_submask_of(mask));
                    if above.any(|&a| {
                        stats.store_reads += 1;
                        store.contains(cache.get(a), subspace, id)
                    }) {
                        continue;
                    }
                    store.insert(
                        constraint,
                        subspace,
                        StoredEntry::new(id, survivor.measures()),
                    );
                    stats.store_writes += 1;
                    for &below in &params.top_down {
                        if below != mask && mask.is_submask_of(below) {
                            let cell = Constraint::from_tuple_mask(survivor, below);
                            stats.store_reads += 1;
                            if store.remove(&cell, subspace, id) {
                                stats.store_writes += 1;
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
    use crate::top_down::TopDown;
    use sitfact_core::dominance;
    use sitfact_core::pair::canonical_sort;
    use sitfact_core::{Direction, SchemaBuilder};

    fn schema(m: usize) -> Schema {
        let mut b = SchemaBuilder::new("s")
            .dimension("d1")
            .dimension("d2")
            .dimension("d3");
        for i in 0..m {
            let dir = if i % 3 == 1 {
                Direction::LowerIsBetter
            } else {
                Direction::HigherIsBetter
            };
            b = b.measure(format!("m{i}"), dir);
        }
        b.build().unwrap()
    }

    fn random_stream_check(m: usize, config: DiscoveryConfig, steps: usize, seed: u64) {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = schema(m);
        let mut table = Table::new(schema.clone());
        let mut subject = STopDown::new(&schema, config);
        let mut reference = BruteForce::new(&schema, config);
        for _ in 0..steps {
            let dims = vec![
                rng.gen_range(0..3u32),
                rng.gen_range(0..2u32),
                rng.gen_range(0..3u32),
            ];
            let measures = (0..m).map(|_| rng.gen_range(0..5) as f64).collect();
            let t = Tuple::new(dims, measures);
            let mut expected = reference.discover(&table, &t);
            let mut actual = subject.discover(&table, &t);
            canonical_sort(&mut expected);
            canonical_sort(&mut actual);
            assert_eq!(expected, actual, "diverged at tuple {}", table.len());
            table.append(t).unwrap();
        }
    }

    #[test]
    fn agrees_with_brute_force_two_measures() {
        random_stream_check(2, DiscoveryConfig::unrestricted(), 70, 211);
    }

    #[test]
    fn agrees_with_brute_force_three_measures() {
        random_stream_check(3, DiscoveryConfig::unrestricted(), 50, 223);
    }

    #[test]
    fn agrees_with_brute_force_with_caps() {
        random_stream_check(3, DiscoveryConfig::capped(2, 2), 50, 227);
    }

    /// Example 10 of the paper: after processing Table IV, STopDown stores t5
    /// alongside t1 at ⟨a1,*,*⟩ in subspace {m2} and makes no change in {m1}.
    #[test]
    fn reproduces_example_10() {
        let schema = SchemaBuilder::new("running")
            .dimension("d1")
            .dimension("d2")
            .dimension("d3")
            .measure("m1", Direction::HigherIsBetter)
            .measure("m2", Direction::HigherIsBetter)
            .build()
            .unwrap();
        let mut table = Table::new(schema.clone());
        let mut algo = STopDown::new(&schema, DiscoveryConfig::unrestricted());
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
        let schema = table.schema();
        let a1 = Constraint::parse(schema, &[("d1", "a1")]).unwrap();
        let m1 = SubspaceMask::singleton(0);
        let m2 = SubspaceMask::singleton(1);
        let mut ids_in = |c: &Constraint, m: SubspaceMask| {
            let mut ids: Vec<TupleId> = algo.store.read(c, m).iter().map(|e| e.id).collect();
            ids.sort_unstable();
            ids
        };
        // Fig. 6b: µ_{⟨a1⟩, {m2}} = {t1, t5}.
        assert_eq!(ids_in(&a1, m2), vec![0, 4]);
        // Fig. 5b: in {m1} the cell for ⟨a1⟩ still holds only t2.
        assert_eq!(ids_in(&a1, m1), vec![1]);
        // ⊤ holds t4 in both single-measure subspaces.
        assert_eq!(ids_in(&Constraint::top(3), m1), vec![3]);
        assert_eq!(ids_in(&Constraint::top(3), m2), vec![3]);
    }

    /// The stores of STopDown and TopDown must stay identical — they implement
    /// the same Invariant 2 — while STopDown performs fewer comparisons.
    #[test]
    fn matches_top_down_storage_with_fewer_comparisons() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(229);
        let schema = schema(3);
        let config = DiscoveryConfig::unrestricted();
        let mut table = Table::new(schema.clone());
        let mut shared = STopDown::new(&schema, config);
        let mut plain = TopDown::new(&schema, config);
        for _ in 0..120 {
            let dims = vec![
                rng.gen_range(0..4u32),
                rng.gen_range(0..4u32),
                rng.gen_range(0..3u32),
            ];
            let measures = (0..3).map(|_| rng.gen_range(0..8) as f64).collect();
            let t = Tuple::new(dims, measures);
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

    #[test]
    fn skyline_cardinality_matches_ground_truth() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(233);
        let schema = schema(2);
        let mut table = Table::new(schema.clone());
        let mut algo = STopDown::new(&schema, DiscoveryConfig::unrestricted());
        for _ in 0..60 {
            let dims = vec![
                rng.gen_range(0..2u32),
                rng.gen_range(0..2u32),
                rng.gen_range(0..2u32),
            ];
            let measures = vec![rng.gen_range(0..4) as f64, rng.gen_range(0..4) as f64];
            let t = Tuple::new(dims, measures);
            let _ = algo.discover(&table, &t);
            table.append(t).unwrap();
        }
        let directions = table.schema().directions().to_vec();
        let sample = table.tuple(15);
        for mask in sitfact_core::ConstraintLattice::unrestricted(3).enumerate_top_down() {
            let c = Constraint::from_tuple_mask(sample, mask);
            for m in SubspaceMask::enumerate(2, 2) {
                let expected = dominance::skyline_of(table.context(&c), m, &directions).len();
                assert_eq!(algo.skyline_cardinality(&table, &c, m), expected);
            }
        }
    }

    /// The batched driving protocol — window appended to the table up front,
    /// then `discover_at` with explicit ids between `begin_batch`/`end_batch`
    /// — must produce exactly the per-arrival results of the sequential
    /// protocol, for the shared variant and for a scanning baseline (whose
    /// table scans must self-limit to ids before the arrival).
    #[test]
    fn batched_protocol_matches_sequential() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(241);
        let schema = schema(2);
        let config = DiscoveryConfig::unrestricted();
        let window: Vec<Tuple> = (0..50)
            .map(|_| {
                let dims = vec![
                    rng.gen_range(0..3u32),
                    rng.gen_range(0..2u32),
                    rng.gen_range(0..3u32),
                ];
                let measures = (0..2).map(|_| rng.gen_range(0..5) as f64).collect();
                Tuple::new(dims, measures)
            })
            .collect();

        // Sequential protocol: discover against history, then append.
        let mut seq_table = Table::new(schema.clone());
        let mut seq_std = STopDown::new(&schema, config);
        let mut seq_bf = crate::brute_force::BruteForce::new(&schema, config);
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
        let mut batch_bf = crate::brute_force::BruteForce::new(&schema, config);
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

    /// Invariant-2 repair: expiring a prefix must leave the maximal-constraint
    /// store identical to one rebuilt from only the surviving suffix — the
    /// promotion cascade moves survivors up to their new maximal constraints.
    #[test]
    fn retraction_matches_rebuild_from_suffix() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(251);
        let schema = schema(2);
        let config = DiscoveryConfig::unrestricted();
        let random_tuple = |rng: &mut StdRng| {
            let dims = vec![
                rng.gen_range(0..3u32),
                rng.gen_range(0..2u32),
                rng.gen_range(0..3u32),
            ];
            let measures = (0..2).map(|_| rng.gen_range(0..5) as f64).collect();
            Tuple::new(dims, measures)
        };
        let mut table = Table::new(schema.clone());
        let mut algo = STopDown::new(&schema, config);
        let mut tuples = Vec::new();
        for _ in 0..60 {
            let t = random_tuple(&mut rng);
            let _ = algo.discover(&table, &t);
            table.append(t.clone()).unwrap();
            tuples.push(t);
        }
        assert_eq!(table.retract_prefix(25), 25);
        for id in 0..25u32 {
            algo.retract(&table, id).unwrap();
        }
        table.compact_retracted();
        table.audit().unwrap();

        let mut fresh_table = Table::with_base(schema.clone(), 25);
        let mut fresh = STopDown::new(&schema, config);
        for t in &tuples[25..] {
            let _ = fresh.discover(&fresh_table, t);
            fresh_table.append(t.clone()).unwrap();
        }
        let sort_cells = |mut cells: Vec<StoreCell>| {
            for cell in &mut cells {
                cell.entries.sort_by_key(|(id, _)| *id);
            }
            cells.sort_by(|a, b| (&a.constraint, a.subspace).cmp(&(&b.constraint, b.subspace)));
            cells
        };
        assert_eq!(
            sort_cells(algo.store().dump_cells().unwrap()),
            sort_cells(fresh.store().dump_cells().unwrap()),
        );
        for _ in 0..10 {
            let t = random_tuple(&mut rng);
            let mut a = algo.discover(&table, &t);
            let mut b = fresh.discover(&fresh_table, &t);
            canonical_sort(&mut a);
            canonical_sort(&mut b);
            assert_eq!(a, b);
            table.append(t.clone()).unwrap();
            fresh_table.append(t).unwrap();
        }
    }

    /// The file-backed instantiation (`FSTopDown`) produces identical results.
    #[test]
    fn file_backed_variant_agrees() {
        use rand::prelude::*;
        use sitfact_storage::FileSkylineStore;
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
            let dims = vec![
                rng.gen_range(0..3u32),
                rng.gen_range(0..2u32),
                rng.gen_range(0..2u32),
            ];
            let measures = vec![rng.gen_range(0..5) as f64, rng.gen_range(0..5) as f64];
            let t = Tuple::new(dims, measures);
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
