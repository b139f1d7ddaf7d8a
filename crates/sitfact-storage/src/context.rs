//! Incremental maintenance of context cardinalities `|σ_C(R)|`.
//!
//! The prominence measure of Section VII divides the context size by the
//! skyline size, and a context contributes a prominent fact only when it holds
//! at least `τ` tuples. Scanning the table per reported fact would dwarf the
//! discovery cost, so the counter below maintains, for every constraint that
//! any tuple has ever satisfied (capped at `d̂` bound attributes), the number
//! of tuples in its context — one hash-map update per constraint per arriving
//! tuple. The counts an arrival's constraints reach are recorded as it is
//! observed, so ranking that arrival reads them without probing again.

use crate::heap::{hash_table_bytes, vec_bytes, ALLOC_OVERHEAD};
use sitfact_core::{
    BoundMask, Constraint, ConstraintLattice, DimValueId, FxHashMap, TupleView, UNBOUND,
};
use std::mem::size_of;

/// Incremental counter of `|σ_C(R)|` for every observed constraint.
#[derive(Debug, Clone)]
pub struct ContextCounter {
    lattice: ConstraintLattice,
    /// The lattice's masks, materialised once at construction — `observe`
    /// runs once per arriving tuple and must not re-enumerate (and
    /// re-allocate) the constraint family every time.
    masks: Vec<BoundMask>,
    counts: FxHashMap<Constraint, u64>,
    observed_tuples: u64,
    /// `last[mask.0]`: the context size of the last observed tuple's
    /// constraint at `mask`, recorded by `observe` (0 outside the lattice,
    /// as [`ContextCounter::cardinality`] says). `forget` does not follow
    /// its decrements.
    last: Vec<u64>,
    /// The probe key `observe` and `forget` fill per mask, so a map lookup
    /// allocates only for a constraint seen for the first time.
    key: Vec<DimValueId>,
}

impl ContextCounter {
    /// Creates a counter for schemas with `n_dims` dimension attributes,
    /// counting constraints with at most `max_bound` bound attributes.
    pub fn new(n_dims: usize, max_bound: usize) -> Self {
        let lattice = ConstraintLattice::new(n_dims, max_bound);
        let masks = lattice.enumerate_top_down();
        let last = vec![0; lattice.flag_len()];
        ContextCounter {
            lattice,
            masks,
            counts: FxHashMap::default(),
            observed_tuples: 0,
            last,
            key: vec![UNBOUND; n_dims],
        }
    }

    /// Registers an arriving tuple: every constraint of `C^t` (up to the `d̂`
    /// cap) has its context cardinality incremented, and the counts it
    /// reaches are recorded for [`ContextCounter::last_observed`]. Accepts
    /// any [`TupleView`], so the table's zero-copy rows can be observed
    /// without materialising them.
    pub fn observe(&mut self, tuple: impl TupleView) {
        debug_assert_eq!(tuple.num_dims(), self.lattice.n_dims());
        for &mask in &self.masks {
            Constraint::write_tuple_mask(&mut self.key, &tuple, mask);
            let count = match self.counts.get_mut(&self.key[..]) {
                Some(count) => {
                    *count += 1;
                    *count
                }
                None => {
                    let key = Constraint::from_values(self.key.clone());
                    self.counts.insert(key, 1);
                    1
                }
            };
            self.last[mask.0 as usize] = count;
        }
        self.observed_tuples += 1;
    }

    /// Registers a whole window of arrivals. Equivalent to calling
    /// [`ContextCounter::observe`] once per tuple in order, but reserves the
    /// count map for the window's worst-case constraint growth up front so a
    /// bulk load does not rehash the map repeatedly.
    pub fn observe_batch<T, I>(&mut self, tuples: I)
    where
        T: TupleView,
        I: IntoIterator<Item = T>,
    {
        let tuples = tuples.into_iter();
        let (window, _) = tuples.size_hint();
        // Every tuple can introduce at most |masks| - 1 new constraints (the
        // top constraint is not tracked in the map), but reserving that much
        // for large windows over-allocates wildly. One slot per window tuple
        // is a realistic floor for a bulk load into an empty counter, and a
        // map that is already at least window-sized doubles itself at most
        // once more — so cap the worst case at the larger of the two.
        let growth = window
            .saturating_mul(self.masks.len().saturating_sub(1))
            .min(self.counts.len().max(window));
        self.counts.reserve(growth);
        for tuple in tuples {
            self.observe(tuple);
        }
    }

    /// Unregisters a retracted tuple: the exact inverse of
    /// [`ContextCounter::observe`]. Every constraint of `C^t` has its context
    /// cardinality decremented, and constraints whose context empties leave
    /// the map entirely — so a counter that observes a window and then
    /// forgets its expired prefix is indistinguishable from one that only
    /// ever observed the surviving suffix (the windowed ≡ rebuilt property).
    /// Forgetting a tuple that was never observed is a no-op per constraint
    /// (counts never wrap below zero).
    pub fn forget(&mut self, tuple: impl TupleView) {
        debug_assert_eq!(tuple.num_dims(), self.lattice.n_dims());
        for &mask in &self.masks {
            Constraint::write_tuple_mask(&mut self.key, &tuple, mask);
            if let Some(count) = self.counts.get_mut(&self.key[..]) {
                *count -= 1;
                if *count == 0 {
                    self.counts.remove(&self.key[..]);
                }
            }
        }
        self.observed_tuples = self.observed_tuples.saturating_sub(1);
    }

    /// The number of observed tuples satisfying `constraint`, i.e.
    /// `|σ_C(R)|`. Constraints never observed have cardinality 0; constraints
    /// with more than `d̂` bound attributes are not tracked and also report 0.
    pub fn cardinality(&self, constraint: &Constraint) -> u64 {
        if constraint.is_top() {
            return self.observed_tuples;
        }
        self.counts.get(constraint).copied().unwrap_or(0)
    }

    /// Cardinality for a constraint expressed as a tuple + bound mask, the
    /// form the discovery algorithms naturally produce.
    pub fn cardinality_for(&self, tuple: impl TupleView, mask: BoundMask) -> u64 {
        if mask.is_top() {
            return self.observed_tuples;
        }
        self.cardinality(&Constraint::from_tuple_mask(tuple, mask))
    }

    /// The context size of the last observed tuple's constraint at `mask`
    /// — [`ContextCounter::cardinality_for`]`(tuple, mask)` as
    /// [`ContextCounter::observe`] left it — read without a hash probe.
    /// Meaningful only right after that observation: a later
    /// [`ContextCounter::forget`] does not update it. `mask` must bind only
    /// the schema's attributes.
    pub fn last_observed(&self, mask: BoundMask) -> u64 {
        self.last[mask.0 as usize]
    }

    /// Total number of tuples observed so far.
    pub fn observed_tuples(&self) -> u64 {
        self.observed_tuples
    }

    /// Number of distinct constraints tracked.
    pub fn tracked_constraints(&self) -> usize {
        self.counts.len()
    }

    /// Approximate heap bytes consumed by the counter, counted the way the
    /// skyline store counts them: the map's buckets and control bytes at
    /// capacity, each key's boxed values, the mask list, the last-observed
    /// record and the probe key, each allocation with its allocator
    /// overhead.
    pub fn approx_heap_bytes(&self) -> usize {
        let keys =
            self.counts.len() * (self.lattice.n_dims() * size_of::<DimValueId>() + ALLOC_OVERHEAD);
        hash_table_bytes(self.counts.capacity(), size_of::<(Constraint, u64)>())
            + keys
            + vec_bytes(&self.masks)
            + vec_bytes(&self.last)
            + vec_bytes(&self.key)
    }

    /// Iterates over every tracked `(constraint, count)` pair, in no
    /// particular order. Only exposed to the deep validators: the monitor
    /// audits rebuild a counter from the table and compare entry-by-entry.
    pub fn iter_counts(&self) -> impl Iterator<Item = (&Constraint, u64)> {
        self.counts.iter().map(|(c, &n)| (c, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;
    use sitfact_core::{Direction, SchemaBuilder, Tuple};

    fn sample_table() -> Table {
        let schema = SchemaBuilder::new("gamelog")
            .dimension("player")
            .dimension("team")
            .dimension("month")
            .measure("points", Direction::HigherIsBetter)
            .build()
            .unwrap();
        let mut table = Table::new(schema);
        let rows: [(&str, &str, &str); 5] = [
            ("Wesley", "Celtics", "Feb"),
            ("Wesley", "Celtics", "Mar"),
            ("Sherman", "Celtics", "Feb"),
            ("Bogues", "Hornets", "Feb"),
            ("Wesley", "Celtics", "Feb"),
        ];
        for (p, t, m) in rows {
            table.append_raw(&[p, t, m], vec![1.0]).unwrap();
        }
        table
    }

    #[test]
    fn counts_match_table_scans() {
        let table = sample_table();
        let mut counter = ContextCounter::new(3, 3);
        for (_, tuple) in table.iter() {
            counter.observe(tuple);
        }
        assert_eq!(counter.observed_tuples(), 5);
        // Compare against ground-truth scans for several constraints.
        for bindings in [
            vec![("team", "Celtics")],
            vec![("player", "Wesley")],
            vec![("player", "Wesley"), ("month", "Feb")],
            vec![("team", "Hornets"), ("month", "Feb")],
            vec![("player", "Sherman"), ("team", "Celtics"), ("month", "Feb")],
        ] {
            let c = Constraint::parse(table.schema(), &bindings).unwrap();
            assert_eq!(
                counter.cardinality(&c),
                table.context(&c).count() as u64,
                "constraint {bindings:?}"
            );
        }
        // The top constraint covers every tuple.
        let top = Constraint::top(3);
        assert_eq!(counter.cardinality(&top), 5);
    }

    #[test]
    fn unseen_constraints_have_zero_cardinality() {
        let table = sample_table();
        let mut counter = ContextCounter::new(3, 3);
        for (_, tuple) in table.iter() {
            counter.observe(tuple);
        }
        let c = Constraint::parse(table.schema(), &[("player", "Bogues"), ("team", "Celtics")])
            .unwrap();
        assert_eq!(counter.cardinality(&c), 0);
    }

    #[test]
    fn cap_limits_tracked_constraints() {
        let table = sample_table();
        let mut capped = ContextCounter::new(3, 1);
        let mut full = ContextCounter::new(3, 3);
        for (_, tuple) in table.iter() {
            capped.observe(tuple);
            full.observe(tuple);
        }
        assert!(capped.tracked_constraints() < full.tracked_constraints());
        // Single-attribute constraints are still exact under the cap.
        let c = Constraint::parse(table.schema(), &[("team", "Celtics")]).unwrap();
        assert_eq!(capped.cardinality(&c), 4);
    }

    #[test]
    fn cardinality_for_mask_form() {
        let table = sample_table();
        let mut counter = ContextCounter::new(3, 3);
        for (_, tuple) in table.iter() {
            counter.observe(tuple);
        }
        let t = table.tuple(0); // Wesley, Celtics, Feb
        assert_eq!(counter.cardinality_for(t, BoundMask::TOP), 5);
        // player=Wesley ∧ team=Celtics -> 3 tuples.
        assert_eq!(
            counter.cardinality_for(t, BoundMask::from_indices([0, 1])),
            3
        );
        // month=Feb -> 4 tuples.
        assert_eq!(counter.cardinality_for(t, BoundMask::from_indices([2])), 4);
    }

    #[test]
    fn observe_batch_equals_observe_loop() {
        let table = sample_table();
        let mut looped = ContextCounter::new(3, 2);
        for (_, tuple) in table.iter() {
            looped.observe(tuple);
        }
        let mut batched = ContextCounter::new(3, 2);
        batched.observe_batch(table.iter().map(|(_, t)| t));
        assert_eq!(batched.observed_tuples(), looped.observed_tuples());
        assert_eq!(batched.tracked_constraints(), looped.tracked_constraints());
        for bindings in [
            vec![("team", "Celtics")],
            vec![("player", "Wesley"), ("month", "Feb")],
        ] {
            let c = Constraint::parse(table.schema(), &bindings).unwrap();
            assert_eq!(batched.cardinality(&c), looped.cardinality(&c));
        }
        // Batches compose: a second window continues the counts.
        batched.observe_batch(table.iter().map(|(_, t)| t));
        assert_eq!(batched.observed_tuples(), 10);
    }

    #[test]
    fn heap_estimate_counts_what_the_layout_allocates() {
        use crate::heap::hash_buckets;
        let mut counter = ContextCounter::new(3, 2);
        // Before any observation: the mask list (7 masks), the record of the
        // last observation (one count per mask of 2^3) and the probe key.
        let fixed = 7 * size_of::<BoundMask>()
            + ALLOC_OVERHEAD
            + 8 * 8
            + ALLOC_OVERHEAD
            + 3 * 4
            + ALLOC_OVERHEAD;
        assert_eq!(counter.approx_heap_bytes(), fixed);
        counter.observe(Tuple::new(vec![0, 1, 2], vec![1.0]));
        counter.observe(Tuple::new(vec![0, 1, 3], vec![1.0]));
        assert_eq!(counter.tracked_constraints(), 10);
        // The map: a bucket holds the key and the count plus a control
        // byte, with one spare group; each key boxes three value ids.
        let buckets = hash_buckets(counter.counts.capacity());
        assert_eq!(buckets, 16);
        let table = buckets * (size_of::<(Constraint, u64)>() + 1) + 16 + ALLOC_OVERHEAD;
        let keys = 10 * (3 * 4 + ALLOC_OVERHEAD);
        assert_eq!(counter.approx_heap_bytes(), fixed + table + keys);
    }

    #[test]
    fn last_observed_reads_the_counts_observe_reached() {
        let table = sample_table();
        let mut counter = ContextCounter::new(3, 2);
        for (_, tuple) in table.iter() {
            counter.observe(tuple);
            for mask in 0..8u32 {
                let mask = BoundMask(mask);
                assert_eq!(
                    counter.last_observed(mask),
                    counter.cardinality_for(tuple, mask),
                    "mask {mask}"
                );
            }
        }
        // Above the cap nothing is tracked, and the record says so too.
        assert_eq!(counter.last_observed(BoundMask(0b111)), 0);
    }

    #[test]
    fn forget_is_the_exact_inverse_of_observe() {
        let table = sample_table();
        // Observe everything, forget the first two arrivals: the counter
        // must be indistinguishable from one that only ever saw the suffix.
        let mut windowed = ContextCounter::new(3, 2);
        windowed.observe_batch(table.iter().map(|(_, t)| t));
        for (_, tuple) in table.iter().take(2) {
            windowed.forget(tuple);
        }
        let mut rebuilt = ContextCounter::new(3, 2);
        rebuilt.observe_batch(table.iter().skip(2).map(|(_, t)| t));
        assert_eq!(windowed.observed_tuples(), rebuilt.observed_tuples());
        assert_eq!(
            windowed.tracked_constraints(),
            rebuilt.tracked_constraints(),
            "emptied contexts must leave the map, not linger at zero"
        );
        for (_, tuple) in table.iter() {
            for mask in [
                BoundMask::from_indices([0]),
                BoundMask::from_indices([1]),
                BoundMask::from_indices([2]),
                BoundMask::from_indices([0, 1]),
                BoundMask::from_indices([1, 2]),
            ] {
                assert_eq!(
                    windowed.cardinality_for(tuple, mask),
                    rebuilt.cardinality_for(tuple, mask)
                );
            }
        }
        // Forgetting every remaining tuple drains the counter completely.
        for (_, tuple) in table.iter().skip(2) {
            windowed.forget(tuple);
        }
        assert_eq!(windowed.observed_tuples(), 0);
        assert_eq!(windowed.tracked_constraints(), 0);
    }
}
