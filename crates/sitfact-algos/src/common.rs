//! Shared plumbing for the discovery algorithms: per-tuple constraint caches,
//! measure-slice dominance helpers and the parameters every algorithm derives
//! from a schema + [`DiscoveryConfig`].

use sitfact_core::{
    BoundMask, Constraint, ConstraintLattice, DimValueId, Direction, DiscoveryConfig, Schema,
    SubspaceMask, TupleId, TupleView,
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
/// cell read buffer) for the lattice passes, and the buffers of `retract`.
///
/// Allocated lazily to the lattice's flag length and kept on the algorithm
/// struct, so a window of arrivals (`begin_batch` … `end_batch`) re-clears
/// the same buffers instead of re-allocating three vectors per pass per
/// arrival. [`TraversalScratch::release`] drops the capacity again once a
/// batch ends, except for [`ExpiryScratch`]'s.
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
    /// The buffers of `retract`.
    pub expiry: ExpiryScratch,
}

/// The buffers of one `retract` of a lattice kind, refilled by every call.
/// They are sized by the lattice and the measure-subspace family, or grow
/// to the largest contexts met, so a steady sliding window allocates
/// nothing per expired row once it is warm. An eviction runs after the
/// batch that ended, so [`TraversalScratch::release`] keeps them.
///
/// The affected subspaces of a constraint are a bitset over its *family
/// slots* (positions in the list of subspaces the kind keeps cells for),
/// `words` 64-bit words per constraint.
#[derive(Debug, Default)]
pub struct ExpiryScratch {
    /// The family slots of the constraint being repaired whose cells hold
    /// the expired tuple, `words` words.
    pub held: Vec<u64>,
    /// `affected[mask.0 * words + w]`, bit `k`: family slot `64 w + k` is
    /// repaired at that constraint of `C^x` — the expired tuple was in its
    /// skyline.
    pub affected: Vec<u64>,
    /// `spans[mask.0]`: the constraint's live context, rows `start..end` of
    /// `ids`. Set by the call for the constraints with an affected slot.
    pub spans: Vec<(u32, u32)>,
    /// The live contexts the call built, each in id order.
    pub ids: Vec<TupleId>,
    /// The new skylines: the context at rows `start..end` keeps word `w` of
    /// its rows' skyline bitsets at `members[start * words + w * len..]`
    /// (`len = end - start`, one word per row in context order).
    pub members: Vec<u64>,
    /// The block-nested loop's window of context rows.
    pub window: Vec<u32>,
    /// The ids of the cell being repaired, before its re-promotion.
    pub cell: Vec<TupleId>,
    /// The cells below it a re-promoted survivor has left.
    pub left: Vec<BoundMask>,
    /// A constraint's values, written in place to probe the store for a
    /// constraint outside `C^x`.
    pub key: Vec<DimValueId>,
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

    /// Returns the traversal buffers' memory to the allocator (batch
    /// tear-down), keeping [`ExpiryScratch`]'s.
    pub fn release(&mut self) {
        *self = TraversalScratch {
            expiry: std::mem::take(&mut self.expiry),
            ..TraversalScratch::default()
        };
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

/// The skylines of up to 64 subspaces of one context, found together: on
/// return, bit `k` of `members[row]` says whether `row` is in the skyline of
/// `subspaces[k]`, for every `k` set in `wanted` (every other bit is clear).
/// `measures(row)` gives a row's measures. Rows are taken in order, so each
/// skyline lists the rows [`skyline_of`] returns in the same (id) order.
/// Returns the number of dominance tests — the Fig. 11 cost proxy of the
/// incremental `retract`s, which recompute a repaired constraint's
/// skylines through this; `skyline_of` itself stays the uncounted oracle.
///
/// One block-nested loop serves every subspace. Each row meets, in order,
/// the window of earlier rows still in some wanted skyline, but only the
/// members in a skyline the row is still in; such a pair costs one
/// [`partition_measures`], which answers every subspace they share
/// (Proposition 4). A row dominated in a subspace by a window member cannot
/// dominate another member there (the window is an antichain and dominance
/// is transitive), so it stops meeting that subspace's members. That is
/// where a loop over the one subspace stops too, so the count never exceeds
/// the sum of theirs.
///
/// [`skyline_of`]: sitfact_core::dominance::skyline_of
pub(crate) fn shared_skylines<'a>(
    measures: impl Fn(usize) -> &'a [f64],
    subspaces: &[SubspaceMask],
    wanted: u64,
    directions: &[Direction],
    members: &mut [u64],
    window: &mut Vec<u32>,
) -> u64 {
    let mut comparisons = 0;
    window.clear();
    for row in 0..members.len() {
        let point = measures(row);
        let mut alive = wanted;
        // The members met so far that stay are moved to `..kept`, and the
        // slots `kept..next` dropped; `next..` are not met, since a row in
        // no skyline any more meets no one.
        let (mut kept, mut next) = (0, 0);
        while next < window.len() && alive != 0 {
            let member = window[next];
            next += 1;
            let theirs = &mut members[member as usize];
            let mut shared = alive & *theirs;
            if shared != 0 {
                comparisons += 1;
                let (better, worse) =
                    partition_measures(point, measures(member as usize), directions);
                while shared != 0 {
                    let k = shared.trailing_zeros() as usize;
                    shared &= shared - 1;
                    if dominated_in(better, worse, subspaces[k]) {
                        alive &= !(1 << k);
                    } else if dominated_in(worse, better, subspaces[k]) {
                        *theirs &= !(1 << k);
                    }
                }
            }
            if *theirs != 0 {
                window[kept] = member;
                kept += 1;
            }
        }
        window.drain(kept..next);
        members[row] = alive;
        if alive != 0 {
            window.push(row as u32);
        }
    }
    comparisons
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

    /// The shared skylines against the oracle: random contexts with
    /// tie-heavy integer measures, `m ∈ {2, 3, 4}` with mixed directions,
    /// and every non-empty subset of the family as the wanted set. Each
    /// wanted subspace gets `skyline_of`'s rows in id order, and the shared
    /// loop never tests more pairs than the loops of its subspaces one at a
    /// time (a one-subspace call is the plain block-nested loop).
    #[test]
    fn shared_skylines_match_the_oracle_and_never_outcount_one_at_a_time() {
        use rand::prelude::*;
        use sitfact_core::dominance::skyline_of;
        use sitfact_core::TupleRef;
        let mut rng = StdRng::seed_from_u64(17);
        for m in [2usize, 3, 4] {
            let dirs: Vec<Direction> = (0..m)
                .map(|i| {
                    if i % 2 == 1 {
                        Direction::LowerIsBetter
                    } else {
                        Direction::HigherIsBetter
                    }
                })
                .collect();
            let family = SubspaceMask::enumerate(m, m);
            for n in [0usize, 1, 2, 9, 30] {
                let tuples: Vec<Tuple> = (0..n)
                    .map(|_| {
                        Tuple::new(vec![], (0..m).map(|_| rng.gen_range(0..4) as f64).collect())
                    })
                    .collect();
                let rows: Vec<(TupleId, TupleRef<'_>)> = tuples
                    .iter()
                    .enumerate()
                    .map(|(i, t)| (i as TupleId, t.into()))
                    .collect();
                let measures = |row: usize| rows[row].1.measures();
                let (mut members, mut window) = (vec![0u64; n], Vec::new());
                let in_skyline = |members: &[u64], k: usize| -> Vec<TupleId> {
                    (0..n)
                        .filter(|&row| members[row] >> k & 1 == 1)
                        .map(|row| row as TupleId)
                        .collect()
                };
                let mut expected = Vec::new();
                let mut alone = Vec::new();
                for (k, &subspace) in family.iter().enumerate() {
                    let oracle: Vec<TupleId> = skyline_of(rows.iter().copied(), subspace, &dirs)
                        .iter()
                        .map(|(id, _)| *id)
                        .collect();
                    let count = shared_skylines(
                        measures,
                        &family,
                        1 << k,
                        &dirs,
                        &mut members,
                        &mut window,
                    );
                    assert_eq!(in_skyline(&members, k), oracle, "m={m} n={n} {subspace:?}");
                    // At least one test per row after the first, at most one
                    // per pair.
                    let rows = n as u64;
                    assert!(count >= rows.saturating_sub(1));
                    assert!(count <= rows * rows.saturating_sub(1) / 2);
                    expected.push(oracle);
                    alone.push(count);
                }
                for wanted in 1..1u64 << family.len() {
                    let count = shared_skylines(
                        measures,
                        &family,
                        wanted,
                        &dirs,
                        &mut members,
                        &mut window,
                    );
                    for (k, oracle) in expected.iter().enumerate() {
                        if wanted >> k & 1 == 1 {
                            assert_eq!(&in_skyline(&members, k), oracle, "m={m} n={n} {wanted:b}");
                        } else {
                            assert!(in_skyline(&members, k).is_empty());
                        }
                    }
                    let one_at_a_time: u64 = (0..family.len())
                        .filter(|&k| wanted >> k & 1 == 1)
                        .map(|k| alone[k])
                        .sum();
                    assert!(count <= one_at_a_time, "m={m} n={n} {wanted:b}");
                }
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
