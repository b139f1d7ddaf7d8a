//! Shared plumbing for the discovery algorithms: per-tuple constraint caches,
//! measure-slice dominance helpers and the parameters every algorithm derives
//! from a schema + [`DiscoveryConfig`].

use sitfact_core::dominance::{compare, DominanceOrdering};
use sitfact_core::{
    BoundMask, Constraint, ConstraintLattice, DimValueId, Direction, DiscoveryConfig, Schema,
    SubspaceMask, TupleId, TupleRef, TupleView,
};

/// Parameters shared by every algorithm instance, derived once from the schema
/// and the `d̂` / `m̂` caps.
#[derive(Debug, Clone)]
pub struct AlgoParams {
    /// Number of dimension attributes.
    pub n_dims: usize,
    /// Number of measure attributes.
    pub n_measures: usize,
    /// Preference directions of the measures.
    pub directions: Vec<Direction>,
    /// The (possibly `d̂`-capped) lattice of tuple-satisfied constraints.
    pub lattice: ConstraintLattice,
    /// Every reported measure subspace (non-empty, at most `m̂` attributes).
    pub subspaces: Vec<SubspaceMask>,
    /// The full measure space (used internally by the shared variants even
    /// when `m̂ < m` keeps it out of `subspaces`).
    pub full_space: SubspaceMask,
    /// Proper subspaces of the full space within the reported family.
    pub proper_subspaces: Vec<SubspaceMask>,
    /// Every subspace the shared variants keep a store for: the proper
    /// subspaces followed by the full space.
    pub maintained: Vec<SubspaceMask>,
    /// The lattice in top-down order, enumerated once instead of per call.
    pub top_down: Vec<BoundMask>,
    /// `children[mask.0]`: the lattice children of each mask (none at the
    /// `d̂` cap), listed once instead of per visited constraint.
    pub children: Vec<Vec<BoundMask>>,
}

impl AlgoParams {
    /// Derives the parameters from a schema and a discovery configuration.
    pub fn new(schema: &Schema, config: DiscoveryConfig) -> Self {
        let d_hat = config.effective_d_hat(schema);
        let m_hat = config.effective_m_hat(schema);
        let n_dims = schema.num_dimensions();
        let n_measures = schema.num_measures();
        let full_space = SubspaceMask::full(n_measures);
        let subspaces = SubspaceMask::enumerate(n_measures, m_hat);
        let proper_subspaces: Vec<SubspaceMask> = subspaces
            .iter()
            .copied()
            .filter(|&s| s != full_space)
            .collect();
        let mut maintained = proper_subspaces.clone();
        maintained.push(full_space);
        let lattice = ConstraintLattice::new(n_dims, d_hat);
        AlgoParams {
            n_dims,
            n_measures,
            directions: schema.directions().to_vec(),
            lattice,
            subspaces,
            full_space,
            proper_subspaces,
            maintained,
            top_down: lattice.enumerate_top_down(),
            children: (0..lattice.flag_len() as u32)
                .map(|mask| lattice.children(BoundMask(mask)))
                .collect(),
        }
    }

    /// Whether the full measure space itself is part of the reported family
    /// (`m̂ = m`).
    pub fn reports_full_space(&self) -> bool {
        self.subspaces.contains(&self.full_space)
    }
}

/// Per-tuple cache of materialised constraints, indexed by bound mask.
///
/// Inside `discover`, every constraint of `C^t` is `Constraint::from_tuple_mask
/// (t, mask)`; materialising each of them once per tuple (instead of once per
/// (constraint, subspace) visit) removes the dominant allocation cost of the
/// traversals. A cache kept across arrivals is refilled in place
/// ([`ConstraintCache::fill`]) and allocates nothing after its first tuple.
#[derive(Debug, Default)]
pub struct ConstraintCache {
    constraints: Vec<Constraint>,
}

impl ConstraintCache {
    /// Builds the cache for a tuple over an `n_dims`-attribute schema. All
    /// `2^n_dims` masks are materialised (the few above the `d̂` cap are
    /// harmless and keep indexing branch-free).
    pub fn new(tuple: impl TupleView + Copy, n_dims: usize) -> Self {
        let mut cache = ConstraintCache::default();
        cache.fill(tuple, n_dims);
        cache
    }

    /// Rebinds every cached constraint to `tuple`, in place.
    pub fn fill(&mut self, tuple: impl TupleView + Copy, n_dims: usize) {
        let count = 1usize << n_dims;
        if self.constraints.len() != count {
            self.constraints = (0..count as u32)
                .map(|mask| Constraint::from_tuple_mask(tuple, BoundMask(mask)))
                .collect();
            return;
        }
        for (mask, constraint) in self.constraints.iter_mut().enumerate() {
            constraint.assign_tuple_mask(tuple, BoundMask(mask as u32));
        }
    }

    /// The constraint binding exactly the attributes of `mask` to the cached
    /// tuple's values.
    #[inline]
    pub fn get(&self, mask: BoundMask) -> &Constraint {
        &self.constraints[mask.0 as usize]
    }

    /// Whether `constraint` is one of the cached ones — the constraint the
    /// cache holds at its bound mask (never, before the first fill).
    pub fn holds(&self, constraint: &Constraint) -> bool {
        self.constraints.get(constraint.bound_mask().0 as usize) == Some(constraint)
    }
}

/// Reusable per-pass traversal buffers (constraint flags, the BFS queue and a
/// cell read buffer) for the lattice passes.
///
/// Allocated lazily to the lattice's flag length and kept on the algorithm
/// struct, so a window of arrivals (`begin_batch` … `end_batch`) re-clears
/// the same buffers instead of re-allocating three vectors per pass per
/// arrival. [`TraversalScratch::release`] drops the capacity again once a
/// batch ends.
#[derive(Debug, Default)]
pub struct TraversalScratch {
    /// `in_ances[mask]`: an unpruned ancestor already stores the new tuple.
    pub in_ances: Vec<bool>,
    /// `enqueued[mask]`: the constraint has entered the BFS queue.
    pub enqueued: Vec<bool>,
    /// The BFS queue over bound masks.
    pub queue: std::collections::VecDeque<BoundMask>,
    /// The ids of the cell being scanned, copied out of the store so the
    /// scan may insert into and remove from that cell as it goes.
    pub ids: Vec<TupleId>,
    /// A constraint's values, written in place to probe the store for a
    /// constraint outside the cache.
    pub key: Vec<DimValueId>,
    /// Ids gathered from several cells, deduplicated by sorting.
    pub seen: Vec<TupleId>,
}

impl TraversalScratch {
    /// Clears every buffer and (re)sizes the flag vectors to `flag_len`.
    pub fn reset(&mut self, flag_len: usize) {
        self.in_ances.clear();
        self.in_ances.resize(flag_len, false);
        self.enqueued.clear();
        self.enqueued.resize(flag_len, false);
        self.queue.clear();
    }

    /// Returns the buffers' memory to the allocator (batch tear-down).
    pub fn release(&mut self) {
        *self = TraversalScratch::default();
    }
}

/// Ground-truth `|λ_M(σ_C(R_{<limit}))|`: recomputes the contextual skyline
/// from the table, truncated to rows that arrived before `limit`. Shared by
/// the [`Discovery`](crate::Discovery) trait default and every algorithm's
/// out-of-family fallback, so the truncation semantics live in one place.
pub fn skyline_cardinality_recompute(
    table: &sitfact_storage::Table,
    constraint: &Constraint,
    subspace: SubspaceMask,
    limit: sitfact_core::TupleId,
) -> usize {
    let directions = table.schema().directions();
    sitfact_core::dominance::skyline_of(
        table.context(constraint).take_while(|(id, _)| *id < limit),
        subspace,
        directions,
    )
    .len()
}

/// The skyline of `rows` in `subspace` — the set [`skyline_of`] returns, in
/// the same (id) order — adding one to `comparisons` per dominance test. The
/// incremental `retract`s recompute a cell's live skyline through this, so
/// the Fig. 11 cost proxy covers the retraction path; `skyline_of` itself
/// stays the uncounted oracle.
///
/// Block-nested-loop: each row meets only the skyline of the rows before it.
/// A row dominated by a window member cannot dominate another member (the
/// window is an antichain and dominance is transitive), so its scan stops at
/// the first dominator.
///
/// [`skyline_of`]: sitfact_core::dominance::skyline_of
pub(crate) fn skyline_counted<'a>(
    rows: &[(TupleId, TupleRef<'a>)],
    subspace: SubspaceMask,
    directions: &[Direction],
    comparisons: &mut u64,
) -> Vec<(TupleId, TupleRef<'a>)> {
    let mut skyline: Vec<(TupleId, TupleRef<'a>)> = Vec::new();
    for &(id, row) in rows {
        let mut dominated = false;
        skyline.retain(|&(_, member)| {
            if dominated {
                return true;
            }
            *comparisons += 1;
            match compare(member, row, subspace, directions) {
                DominanceOrdering::Dominates => {
                    dominated = true;
                    true
                }
                DominanceOrdering::DominatedBy => false,
                DominanceOrdering::Equal | DominanceOrdering::Incomparable => true,
            }
        });
        if !dominated {
            skyline.push((id, row));
        }
    }
    skyline
}

/// `left ≻_M right` on raw measure slices.
#[inline]
pub fn dominates_measures(
    left: &[f64],
    right: &[f64],
    m: SubspaceMask,
    directions: &[Direction],
) -> bool {
    let mut strictly_better = false;
    for i in m.indices() {
        let a = left[i];
        let b = right[i];
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

/// Three-way partition (Proposition 4) on raw measure slices: returns
/// `(better, worse)` masks from the perspective of `left`.
#[inline]
pub fn partition_measures(
    left: &[f64],
    right: &[f64],
    directions: &[Direction],
) -> (SubspaceMask, SubspaceMask) {
    let mut better = 0u32;
    let mut worse = 0u32;
    for (i, dir) in directions.iter().enumerate() {
        let a = left[i];
        let b = right[i];
        if a == b {
            continue;
        }
        if dir.better(a, b) {
            better |= 1 << i;
        } else {
            worse |= 1 << i;
        }
    }
    (SubspaceMask(better), SubspaceMask(worse))
}

/// Whether, given a `(better, worse)` partition for `left` vs `right`,
/// `left` is dominated by `right` in subspace `m` (Proposition 4).
#[inline]
pub fn dominated_in(better: SubspaceMask, worse: SubspaceMask, m: SubspaceMask) -> bool {
    !m.intersect(worse).is_empty() && m.intersect(better).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitfact_core::{SchemaBuilder, Tuple};

    fn schema(d: usize, m: usize) -> Schema {
        let mut b = SchemaBuilder::new("s");
        for i in 0..d {
            b = b.dimension(format!("d{i}"));
        }
        for i in 0..m {
            b = b.measure(format!("m{i}"), Direction::HigherIsBetter);
        }
        b.build().unwrap()
    }

    #[test]
    fn params_respect_caps() {
        let s = schema(5, 4);
        let p = AlgoParams::new(&s, DiscoveryConfig::capped(3, 2));
        assert_eq!(p.lattice.max_bound(), 3);
        assert_eq!(p.subspaces.len(), 4 + 6); // C(4,1) + C(4,2)
        assert!(!p.reports_full_space());
        assert_eq!(p.full_space, SubspaceMask::full(4));
        assert!(p.proper_subspaces.iter().all(|&m| m != p.full_space));

        let unrestricted = AlgoParams::new(&s, DiscoveryConfig::unrestricted());
        assert_eq!(unrestricted.subspaces.len(), 15);
        assert!(unrestricted.reports_full_space());
        assert_eq!(unrestricted.proper_subspaces.len(), 14);
    }

    #[test]
    fn constraint_cache_matches_direct_construction() {
        let t = Tuple::new(vec![3, 7, 9], vec![1.0]);
        let mut cache = ConstraintCache::default();
        assert!(!cache.holds(&Constraint::top(3)));
        cache = ConstraintCache::new(&t, 3);
        // A refill rebinds every mask in place.
        let u = Tuple::new(vec![4, 7, 1], vec![1.0]);
        cache.fill(&u, 3);
        for mask in 0..8u32 {
            let mask = BoundMask(mask);
            assert_eq!(*cache.get(mask), Constraint::from_tuple_mask(&u, mask));
            assert!(cache.holds(&Constraint::from_tuple_mask(&u, mask)));
        }
        assert!(!cache.holds(&Constraint::from_tuple_mask(&t, BoundMask(0b001))));
        assert!(cache.holds(&Constraint::from_tuple_mask(&t, BoundMask(0b010))));
        assert!(!cache.holds(&Constraint::top(2)));
    }

    #[test]
    fn slice_dominance_agrees_with_tuple_dominance() {
        use sitfact_core::dominance;
        let dirs = [Direction::HigherIsBetter, Direction::LowerIsBetter];
        let a = Tuple::new(vec![], vec![5.0, 2.0]);
        let b = Tuple::new(vec![], vec![4.0, 3.0]);
        for m in SubspaceMask::enumerate(2, 2) {
            assert_eq!(
                dominates_measures(a.measures(), b.measures(), m, &dirs),
                dominance::dominates(&a, &b, m, &dirs)
            );
        }
        let (better, worse) = partition_measures(a.measures(), b.measures(), &dirs);
        assert_eq!(better, SubspaceMask(0b11));
        assert_eq!(worse, SubspaceMask::EMPTY);
        assert!(!dominated_in(better, worse, SubspaceMask(0b01)));
    }

    #[test]
    fn counted_skyline_matches_the_oracle_and_counts_its_tests() {
        use rand::prelude::*;
        let dirs = [
            Direction::HigherIsBetter,
            Direction::LowerIsBetter,
            Direction::HigherIsBetter,
        ];
        let mut rng = StdRng::seed_from_u64(17);
        for n in [0usize, 1, 2, 40] {
            let tuples: Vec<Tuple> = (0..n)
                .map(|_| Tuple::new(vec![], (0..3).map(|_| rng.gen_range(0..4) as f64).collect()))
                .collect();
            let rows: Vec<(TupleId, TupleRef<'_>)> = tuples
                .iter()
                .enumerate()
                .map(|(i, t)| (i as TupleId, t.into()))
                .collect();
            for m in SubspaceMask::enumerate(3, 3) {
                let mut comparisons = 0;
                let got: Vec<TupleId> = skyline_counted(&rows, m, &dirs, &mut comparisons)
                    .iter()
                    .map(|(id, _)| *id)
                    .collect();
                let expected: Vec<TupleId> =
                    sitfact_core::dominance::skyline_of(rows.iter().copied(), m, &dirs)
                        .iter()
                        .map(|(id, _)| *id)
                        .collect();
                assert_eq!(got, expected, "n={n} m={m:?}");
                // At least one test per row after the first, at most one per pair.
                let n = n as u64;
                assert!(comparisons >= n.saturating_sub(1));
                assert!(comparisons <= n * n.saturating_sub(1) / 2);
            }
        }
    }

    #[test]
    fn partition_dominated_in_matches_slice_dominance() {
        let dirs = [
            Direction::HigherIsBetter,
            Direction::HigherIsBetter,
            Direction::LowerIsBetter,
        ];
        let samples = [
            vec![1.0, 2.0, 3.0],
            vec![2.0, 2.0, 3.0],
            vec![1.0, 1.0, 4.0],
            vec![0.0, 5.0, 0.0],
        ];
        for a in &samples {
            for b in &samples {
                let (better, worse) = partition_measures(a, b, &dirs);
                for m in SubspaceMask::enumerate(3, 3) {
                    assert_eq!(
                        dominated_in(better, worse, m),
                        dominates_measures(b, a, m, &dirs),
                        "a={a:?} b={b:?} m={m:?}"
                    );
                }
            }
        }
    }
}
