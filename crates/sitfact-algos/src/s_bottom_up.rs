//! `SBottomUp` — `BottomUp` with computation shared across measure subspaces
//! (Section V-C of the paper).

use crate::bottom_up::BottomUp;
use crate::common::{
    dominates_measures, partition_measures, skyline_counted, AlgoParams, ConstraintCache,
    TraversalScratch,
};
use crate::traits::Discovery;
use sitfact_core::{
    BoundMask, Constraint, DiscoveryConfig, Schema, SkylinePair, SubspaceMask, Tuple, TupleId,
};
use sitfact_storage::{
    MemorySkylineStore, SkylineStore, StoreStats, StoredEntry, Table, WorkStats,
};

/// `SBottomUp` first traverses the lattice in the **full** measure space.
/// Every comparison made there yields, through the three-way partition of
/// Proposition 4, the set of subspaces in which the encountered tuple
/// dominates the new one; the corresponding constraints (`C^{t,t'}`) are
/// pre-pruned for those subspaces. The per-subspace bottom-up passes then
/// start from a smaller frontier: traversal stops as soon as it reaches a
/// pre-pruned constraint.
///
/// The pre-pruning is *sound but not complete* (the full-space pass stops
/// early at dominated constraints), so — unlike
/// [`STopDown`](crate::STopDown) — the per-subspace passes still perform their
/// own dominance checks; the shared information only saves comparisons.
/// Invariant 1 (every cell stores the complete contextual skyline) is
/// maintained exactly as in `BottomUp`.
#[derive(Debug)]
pub struct SBottomUp<S: SkylineStore = MemorySkylineStore> {
    params: AlgoParams,
    store: S,
    stats: WorkStats,
    /// `pruned_matrix[subspace][mask]`: pre-pruned constraints per subspace,
    /// reused across tuples to avoid reallocation.
    pruned_matrix: Vec<Vec<bool>>,
    /// Full-space-pass traversal buffers, kept warm across a batch.
    scratch: TraversalScratch,
    /// Inside a `begin_batch`/`end_batch` window: per-arrival store flushes
    /// are deferred to `end_batch` (reads go through the store's write-back
    /// buffer either way, so results are unchanged — only the file-backed
    /// store's write-back cadence differs).
    in_batch: bool,
}

impl SBottomUp<MemorySkylineStore> {
    /// Creates the algorithm with the default in-memory skyline store.
    pub fn new(schema: &Schema, config: DiscoveryConfig) -> Self {
        Self::with_store(schema, config, MemorySkylineStore::new())
    }
}

impl<S: SkylineStore> SBottomUp<S> {
    /// Creates the algorithm over a caller-provided skyline store backend.
    pub fn with_store(schema: &Schema, config: DiscoveryConfig, store: S) -> Self {
        let params = AlgoParams::new(schema, config);
        let subspace_slots = 1usize << params.n_measures;
        let flag_len = params.lattice.flag_len();
        SBottomUp {
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

    /// The full-space pass: standard `BottomUp` over `𝕄`, except that every
    /// comparison additionally pre-prunes constraints in the proper subspaces
    /// where the stored tuple dominates the new one.
    fn root_pass(
        &mut self,
        table: &Table,
        cache: &ConstraintCache,
        t: &Tuple,
        t_id: TupleId,
        scratch: &mut TraversalScratch,
        out: &mut Vec<SkylinePair>,
    ) {
        let directions = self.params.directions.clone();
        let full = self.params.full_space;
        let report_full = self.params.reports_full_space();
        scratch.reset(self.params.lattice.flag_len());
        let TraversalScratch {
            pruned,
            enqueued,
            queue,
            ..
        } = scratch;
        for bottom in self.params.lattice.bottoms() {
            enqueued[bottom.0 as usize] = true;
            queue.push_back(bottom);
        }
        while let Some(mask) = queue.pop_front() {
            if pruned[mask.0 as usize] {
                continue;
            }
            self.stats.traversed_constraints += 1;
            let constraint = cache.get(mask);
            let entries = self.store.read(constraint, full);
            self.stats.store_reads += 1;
            let mut dominated = false;
            for entry in entries.iter() {
                self.stats.comparisons += 1;
                let (better, worse) =
                    partition_measures(t.measures(), &entry.measures, &directions);
                // Share the comparison across every proper subspace where the
                // stored tuple dominates the new one (Proposition 4).
                let other = table.tuple(entry.id);
                let agreement = BoundMask::agreement(t, other);
                for &subspace in &self.params.proper_subspaces {
                    if crate::common::dominated_in(better, worse, subspace) {
                        let row = &mut self.pruned_matrix[subspace.0 as usize];
                        if !row[agreement.0 as usize] {
                            for sub in agreement.submasks() {
                                row[sub.0 as usize] = true;
                            }
                        }
                    }
                }
                if !dominated && crate::common::dominated_in(better, worse, full) {
                    dominated = true;
                    for ancestor in mask.ancestors() {
                        pruned[ancestor.0 as usize] = true;
                    }
                    // Keep scanning the cell: the remaining entries still
                    // contribute subspace pre-pruning information.
                } else if !dominated
                    && dominates_measures(t.measures(), &entry.measures, full, &directions)
                {
                    self.store.remove(constraint, full, entry.id);
                    self.stats.store_writes += 1;
                }
            }
            if !dominated {
                if report_full {
                    out.push(SkylinePair::new(constraint.clone(), full));
                }
                self.store
                    .insert(constraint, full, StoredEntry::new(t_id, t.measures()));
                self.stats.store_writes += 1;
                for parent in mask.parents() {
                    let idx = parent.0 as usize;
                    if !enqueued[idx] && !pruned[idx] {
                        enqueued[idx] = true;
                        queue.push_back(parent);
                    }
                }
            }
        }
    }
}

impl<S: SkylineStore> Discovery for SBottomUp<S> {
    fn name(&self) -> &'static str {
        "SBottomUp"
    }

    fn discover_at(&mut self, table: &Table, t: &Tuple, t_id: TupleId) -> Vec<SkylinePair> {
        let cache = ConstraintCache::new(t, self.params.n_dims);
        let mut out = Vec::new();
        self.reset_matrix();
        let mut scratch = std::mem::take(&mut self.scratch);
        self.root_pass(table, &cache, t, t_id, &mut scratch, &mut out);
        self.scratch = scratch;
        let proper = self.params.proper_subspaces.clone();
        for subspace in proper {
            // Move the row out to satisfy the borrow checker, then put it back.
            let mut pruned = std::mem::take(&mut self.pruned_matrix[subspace.0 as usize]);
            BottomUp::<S>::traverse_subspace(
                &self.params,
                &mut self.store,
                &mut self.stats,
                &cache,
                t,
                t_id,
                subspace,
                &mut pruned,
                &mut out,
            );
            self.pruned_matrix[subspace.0 as usize] = pruned;
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
            // Invariant 1: the cell is the skyline. The store covers exactly
            // the processed arrivals; `limit` only constrains the
            // out-of-family recompute below.
            self.store.read(constraint, subspace).len()
        } else {
            crate::common::skyline_cardinality_recompute(table, constraint, subspace, limit)
        }
    }

    fn retract(&mut self, table: &Table, t_id: TupleId) -> sitfact_core::Result<()> {
        // Invariant-1 repair, probe first. Only cells of the expired tuple's
        // own constraint family `C^t` can reference it, and within those only
        // the cells whose skyline it actually joined need work: removing a
        // non-skyline tuple leaves a complete skyline complete, so every
        // other cell is frozen for the one probe. When the expired tuple does
        // leave a skyline, the region it dominated is re-promoted by
        // recomputing the cell from its *live* context (the table's iterators
        // skip tombstoned rows), scanned once per constraint for all its
        // affected subspaces — exactly the store an algorithm fed only the
        // surviving suffix would hold. Later ids of the same eviction are
        // dead in the table but still stored; their own calls remove them
        // (see `Discovery::retract`).
        let SBottomUp {
            params,
            store,
            stats,
            ..
        } = self;
        let expired = table.tuple(t_id);
        let cache = ConstraintCache::new(expired, params.n_dims);
        let mut rows = Vec::new();
        for &mask in &params.top_down {
            let constraint = cache.get(mask);
            let mut scanned = false;
            for &subspace in &params.maintained {
                stats.store_reads += 1;
                if !store.remove(constraint, subspace, t_id) {
                    continue;
                }
                stats.store_writes += 1;
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
                    if !current.iter().any(|e| e.id == id) {
                        store.insert(
                            constraint,
                            subspace,
                            StoredEntry::new(id, survivor.measures()),
                        );
                        stats.store_writes += 1;
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
    use sitfact_core::dominance;
    use sitfact_core::pair::canonical_sort;
    use sitfact_core::{Direction, SchemaBuilder};
    use sitfact_storage::StoreCell;

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

    fn random_stream_check(m: usize, config: DiscoveryConfig, steps: usize, seed: u64) {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = schema(m);
        let mut table = Table::new(schema.clone());
        let mut subject = SBottomUp::new(&schema, config);
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
        random_stream_check(2, DiscoveryConfig::unrestricted(), 70, 101);
    }

    #[test]
    fn agrees_with_brute_force_three_measures() {
        random_stream_check(3, DiscoveryConfig::unrestricted(), 50, 103);
    }

    #[test]
    fn agrees_with_brute_force_with_caps() {
        // m̂ < m exercises the "full space maintained but not reported" path.
        random_stream_check(3, DiscoveryConfig::capped(2, 2), 50, 107);
    }

    #[test]
    fn shares_comparisons_relative_to_bottom_up() {
        use crate::bottom_up::BottomUp;
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(109);
        let schema = schema(4);
        let config = DiscoveryConfig::unrestricted();
        let mut table = Table::new(schema.clone());
        let mut shared = SBottomUp::new(&schema, config);
        let mut plain = BottomUp::new(&schema, config);
        for _ in 0..150 {
            let dims = vec![
                rng.gen_range(0..4u32),
                rng.gen_range(0..4u32),
                rng.gen_range(0..3u32),
            ];
            let measures = (0..4).map(|_| rng.gen_range(0..10) as f64).collect();
            let t = Tuple::new(dims, measures);
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

    #[test]
    fn skyline_cardinality_matches_ground_truth() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(113);
        let schema = schema(2);
        let mut table = Table::new(schema.clone());
        let mut algo = SBottomUp::new(&schema, DiscoveryConfig::unrestricted());
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
        let sample = table.tuple(30);
        for mask in sitfact_core::ConstraintLattice::unrestricted(3).enumerate_top_down() {
            let c = Constraint::from_tuple_mask(sample, mask);
            for m in SubspaceMask::enumerate(2, 2) {
                let expected = dominance::skyline_of(table.context(&c), m, &directions).len();
                assert_eq!(algo.skyline_cardinality(&table, &c, m), expected);
            }
        }
    }

    #[test]
    fn name_and_stats() {
        let schema = schema(2);
        let algo = SBottomUp::new(&schema, DiscoveryConfig::unrestricted());
        assert_eq!(algo.name(), "SBottomUp");
        assert_eq!(algo.store_stats(), StoreStats::default());
    }

    /// Invariant-1 repair: after expiring a prefix, the store (and all
    /// subsequent discoveries) must be indistinguishable from an algorithm
    /// that only ever processed the surviving suffix under the same ids.
    #[test]
    fn retraction_matches_rebuild_from_suffix() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(331);
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
        let mut algo = SBottomUp::new(&schema, config);
        let mut tuples = Vec::new();
        for _ in 0..60 {
            let t = random_tuple(&mut rng);
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
        let mut fresh = SBottomUp::new(&schema, config);
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
        // New arrivals keep discovering identical facts.
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
}
