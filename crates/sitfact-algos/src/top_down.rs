//! Algorithm 5 of the paper: `TopDown`.

use crate::common::{dominates_measures, AlgoParams, ConstraintCache};
use crate::traits::Discovery;
use sitfact_core::{
    BoundMask, Constraint, DiscoveryConfig, FxHashSet, Schema, SkylinePair, SubspaceMask, Tuple,
    TupleId,
};
use sitfact_storage::{
    MemorySkylineStore, SkylineStore, StoreStats, StoredEntry, Table, WorkStats,
};
use std::collections::VecDeque;

/// `TopDown` stores a tuple only at its **maximal** skyline constraints
/// (Invariant 2): the most general constraints for which the tuple is a
/// contextual skyline tuple. The lattice of tuple-satisfied constraints is
/// traversed top-down (most general first); pruning uses the full
/// `C^{t,t'}` intersection of Proposition 3, and demoting a stored tuple
/// requires pushing it down to the children of the constraint it loses
/// (the `Dominates` procedure of the paper).
///
/// Compared with [`BottomUp`](crate::BottomUp), far fewer copies of each
/// skyline tuple are stored (the memory gap of Fig. 10) at the price of more
/// intricate cell maintenance (the runtime gap of Fig. 8).
#[derive(Debug)]
pub struct TopDown<S: SkylineStore = MemorySkylineStore> {
    params: AlgoParams,
    store: S,
    stats: WorkStats,
}

impl TopDown<MemorySkylineStore> {
    /// Creates the algorithm with the default in-memory skyline store.
    pub fn new(schema: &Schema, config: DiscoveryConfig) -> Self {
        Self::with_store(schema, config, MemorySkylineStore::new())
    }
}

impl<S: SkylineStore> TopDown<S> {
    /// Creates the algorithm over a caller-provided skyline store backend.
    pub fn with_store(schema: &Schema, config: DiscoveryConfig, store: S) -> Self {
        TopDown {
            params: AlgoParams::new(schema, config),
            store,
            stats: WorkStats::default(),
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
}

/// The paper's `Dominates(t', C, M)` procedure: the new tuple dominates the
/// stored tuple `entry` at cell `(cell_constraint, subspace)`, so the stored
/// tuple is removed there and, where necessary, re-stored at the children of
/// the cell constraint that the *new* tuple does not satisfy — those are its
/// new maximal skyline constraints (unless an existing maximal constraint
/// already covers them).
#[allow(clippy::too_many_arguments)]
pub(crate) fn demote_stored_tuple<S: SkylineStore>(
    params: &AlgoParams,
    store: &mut S,
    stats: &mut WorkStats,
    table: &Table,
    t: &Tuple,
    cell_mask: BoundMask,
    cell_constraint: &Constraint,
    subspace: SubspaceMask,
    entry: &StoredEntry,
) {
    store.remove(cell_constraint, subspace, entry.id);
    stats.store_writes += 1;
    let demoted = table.tuple(entry.id);
    if cell_mask.bound_count() >= params.lattice.max_bound() {
        // No children inside the maintained family: the demoted tuple simply
        // loses this maximal constraint.
        return;
    }
    for attr in 0..params.n_dims {
        if cell_mask.is_bound(attr) || t.dim(attr) == demoted.dim(attr) {
            // Children also satisfied by the new tuple will be handled by the
            // ongoing traversal (the new tuple dominates the stored one there
            // as well, so they are not skyline constraints of the stored
            // tuple anymore).
            continue;
        }
        let child_mask = BoundMask(cell_mask.0 | (1 << attr));
        let child_constraint = Constraint::from_tuple_mask(demoted, child_mask);
        // Maximality check: is the demoted tuple already stored at one of the
        // child's ancestors (within its own lattice)?
        let mut covered = false;
        for ancestor in child_mask.ancestors() {
            let ancestor_constraint = Constraint::from_tuple_mask(demoted, ancestor);
            stats.store_reads += 1;
            if store.contains(&ancestor_constraint, subspace, entry.id) {
                covered = true;
                break;
            }
        }
        if !covered {
            store.insert(&child_constraint, subspace, entry.clone());
            stats.store_writes += 1;
        }
    }
}

/// Computes `|λ_M(σ_C(R))|` from a maximal-constraint store: the skyline
/// tuples of a context are exactly the tuples stored at the constraint itself
/// or at any of its ancestors that additionally satisfy the constraint.
pub(crate) fn skyline_cardinality_from_maximal<S: SkylineStore>(
    store: &mut S,
    table: &Table,
    constraint: &Constraint,
    subspace: SubspaceMask,
) -> usize {
    let bound = constraint.bound_mask();
    let mut seen: FxHashSet<TupleId> = FxHashSet::default();
    for mask in bound.submasks() {
        let ancestor = Constraint::from_values(
            constraint
                .values()
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    if mask.is_bound(i) {
                        v
                    } else {
                        sitfact_core::UNBOUND
                    }
                })
                .collect(),
        );
        for entry in store.read(&ancestor, subspace).iter() {
            if let Some(tuple) = table.get(entry.id) {
                if constraint.matches(tuple) {
                    seen.insert(entry.id);
                }
            }
        }
    }
    seen.len()
}

impl<S: SkylineStore> Discovery for TopDown<S> {
    fn name(&self) -> &'static str {
        "TopDown"
    }

    fn discover_at(&mut self, table: &Table, t: &Tuple, t_id: TupleId) -> Vec<SkylinePair> {
        let cache = ConstraintCache::new(t, self.params.n_dims);
        let directions = self.params.directions.clone();
        let flag_len = self.params.lattice.flag_len();
        let mut out = Vec::new();
        let mut pruned = vec![false; flag_len];
        let mut in_ances = vec![false; flag_len];
        let mut enqueued = vec![false; flag_len];
        let subspaces = self.params.subspaces.clone();
        for subspace in subspaces {
            pruned.iter_mut().for_each(|p| *p = false);
            in_ances.iter_mut().for_each(|p| *p = false);
            enqueued.iter_mut().for_each(|p| *p = false);
            let mut queue: VecDeque<BoundMask> = VecDeque::new();
            queue.push_back(BoundMask::TOP);
            enqueued[0] = true;
            while let Some(mask) = queue.pop_front() {
                self.stats.traversed_constraints += 1;
                let constraint = cache.get(mask);
                let entries = self.store.read(constraint, subspace);
                self.stats.store_reads += 1;
                for entry in entries.iter() {
                    self.stats.comparisons += 1;
                    if dominates_measures(&entry.measures, t.measures(), subspace, &directions) {
                        // The paper's `Dominated` procedure: prune every
                        // constraint satisfied by both tuples.
                        let other = table.tuple(entry.id);
                        let agreement = BoundMask::agreement(t, other);
                        for sub in agreement.submasks() {
                            pruned[sub.0 as usize] = true;
                        }
                        pruned[mask.0 as usize] = true;
                        // Unlike BottomUp we must keep scanning this cell:
                        // other stored tuples may prune different constraint
                        // sets (they share different dimension values with t).
                    } else if dominates_measures(
                        t.measures(),
                        &entry.measures,
                        subspace,
                        &directions,
                    ) {
                        demote_stored_tuple(
                            &self.params,
                            &mut self.store,
                            &mut self.stats,
                            table,
                            t,
                            mask,
                            constraint,
                            subspace,
                            entry,
                        );
                    }
                }
                if !pruned[mask.0 as usize] {
                    out.push(SkylinePair::new(constraint.clone(), subspace));
                    if !in_ances[mask.0 as usize] {
                        self.store.insert(
                            constraint,
                            subspace,
                            StoredEntry::new(t_id, t.measures()),
                        );
                        self.stats.store_writes += 1;
                    }
                }
                // EnqueueChildren: traversal continues below pruned
                // constraints too — a descendant may bind an attribute the
                // dominating tuple does not share and escape the pruning.
                for &child in &self.params.children[mask.0 as usize] {
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
        self.store.flush();
        out
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
            && subspace.len()
                <= self
                    .params
                    .subspaces
                    .iter()
                    .map(|s| s.len())
                    .max()
                    .unwrap_or(0);
        if within_family {
            // The store covers exactly the processed arrivals; `limit` only
            // constrains the out-of-family recompute below.
            skyline_cardinality_from_maximal(&mut self.store, table, constraint, subspace)
        } else {
            crate::common::skyline_cardinality_recompute(table, constraint, subspace, limit)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::BruteForce;
    use sitfact_core::dominance;
    use sitfact_core::pair::canonical_sort;
    use sitfact_core::{Direction, SchemaBuilder};

    fn schema() -> Schema {
        SchemaBuilder::new("s")
            .dimension("d1")
            .dimension("d2")
            .dimension("d3")
            .measure("m1", Direction::HigherIsBetter)
            .measure("m2", Direction::HigherIsBetter)
            .build()
            .unwrap()
    }

    /// The running example of the paper: after t5 arrives the store must match
    /// Fig. 4b (tuples only at maximal skyline constraints).
    #[test]
    fn reproduces_figure_4() {
        let schema = schema();
        let mut table = Table::new(schema.clone());
        let mut algo = TopDown::new(&schema, DiscoveryConfig::unrestricted());
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
        let full = SubspaceMask::full(2);
        let schema = table.schema();
        let get = |bindings: &[(&str, &str)]| Constraint::parse(schema, bindings).unwrap();
        let mut cell = |c: &Constraint| {
            let mut ids: Vec<TupleId> = algo.store.read(c, full).iter().map(|e| e.id).collect();
            ids.sort_unstable();
            ids
        };
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

    /// Invariant 2: a tuple is stored at a cell iff that constraint is one of
    /// its maximal skyline constraints.
    #[test]
    fn invariant_2_holds_on_random_stream() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(23);
        let schema = schema();
        let mut table = Table::new(schema.clone());
        let mut algo = TopDown::new(&schema, DiscoveryConfig::unrestricted());
        for step in 0..80 {
            let dims = vec![
                rng.gen_range(0..3u32),
                rng.gen_range(0..3u32),
                rng.gen_range(0..2u32),
            ];
            let measures = vec![rng.gen_range(0..5) as f64, rng.gen_range(0..5) as f64];
            let t = Tuple::new(dims, measures);
            let _ = algo.discover(&table, &t);
            table.append(t).unwrap();
            if step % 20 != 19 {
                continue;
            }
            let directions = table.schema().directions().to_vec();
            let lattice = sitfact_core::ConstraintLattice::unrestricted(3);
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
                        .filter(|mask| {
                            !mask
                                .ancestors()
                                .iter()
                                .any(|anc| skyline_masks.contains(anc))
                        })
                        .collect();
                    for mask in lattice.enumerate_top_down() {
                        let c = Constraint::from_tuple_mask(tuple, mask);
                        let stored = algo.store.read(&c, m).iter().any(|e| e.id == id);
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
    fn agrees_with_brute_force_on_random_stream() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(31);
        let schema = schema();
        let config = DiscoveryConfig::unrestricted();
        let mut table = Table::new(schema.clone());
        let mut subject = TopDown::new(&schema, config);
        let mut reference = BruteForce::new(&schema, config);
        for _ in 0..70 {
            let dims = vec![
                rng.gen_range(0..3u32),
                rng.gen_range(0..2u32),
                rng.gen_range(0..3u32),
            ];
            let measures = vec![rng.gen_range(0..4) as f64, rng.gen_range(0..4) as f64];
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
    fn stores_fewer_entries_than_bottom_up() {
        use crate::bottom_up::BottomUp;
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(17);
        let schema = schema();
        let config = DiscoveryConfig::unrestricted();
        let mut table = Table::new(schema.clone());
        let mut top_down = TopDown::new(&schema, config);
        let mut bottom_up = BottomUp::new(&schema, config);
        for _ in 0..120 {
            let dims = vec![
                rng.gen_range(0..4u32),
                rng.gen_range(0..4u32),
                rng.gen_range(0..3u32),
            ];
            let measures = vec![rng.gen_range(0..8) as f64, rng.gen_range(0..8) as f64];
            let t = Tuple::new(dims, measures);
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
    fn skyline_cardinality_matches_ground_truth() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(41);
        let schema = schema();
        let mut table = Table::new(schema.clone());
        let mut algo = TopDown::new(&schema, DiscoveryConfig::unrestricted());
        for _ in 0..50 {
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
        let sample = table.tuple(20);
        for mask in sitfact_core::ConstraintLattice::unrestricted(3).enumerate_top_down() {
            let c = Constraint::from_tuple_mask(sample, mask);
            for m in SubspaceMask::enumerate(2, 2) {
                let expected = dominance::skyline_of(table.context(&c), m, &directions).len();
                assert_eq!(
                    algo.skyline_cardinality(&table, &c, m),
                    expected,
                    "constraint {c:?} subspace {m:?}"
                );
            }
        }
    }
}
