//! The lattice of tuple-satisfied constraints `C^t` (Definition 7) and its
//! traversal orders.
//!
//! For a new tuple `t` over `n` dimension attributes, each constraint of `C^t`
//! binds a subset of the attributes to `t`'s own values, so the lattice is
//! isomorphic to the powerset lattice of `{0, …, n-1}` — here represented by
//! [`BoundMask`]s. An optional `d̂` cap (maximum number of bound attributes,
//! Section VI-A of the paper) truncates the lattice from below; the resulting
//! family is still closed under taking ancestors, which is what the pruning
//! arguments (Propositions 2–3) require.

use crate::constraint::BoundMask;
use std::collections::VecDeque;

/// The (possibly `d̂`-truncated) lattice of tuple-satisfied constraints,
/// parameterised only by the number of dimension attributes and the cap —
/// the actual bound values come from the tuple and are irrelevant to the
/// lattice structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstraintLattice {
    n_dims: usize,
    max_bound: usize,
}

impl ConstraintLattice {
    /// Creates the lattice over `n_dims` attributes where constraints may bind
    /// at most `max_bound` of them. `max_bound` is clamped to `n_dims`.
    pub fn new(n_dims: usize, max_bound: usize) -> Self {
        assert!(n_dims <= 32, "at most 32 dimension attributes supported");
        ConstraintLattice {
            n_dims,
            max_bound: max_bound.min(n_dims),
        }
    }

    /// The unrestricted lattice (`d̂ = |D|`).
    pub fn unrestricted(n_dims: usize) -> Self {
        Self::new(n_dims, n_dims)
    }

    /// Number of dimension attributes.
    #[inline]
    pub fn n_dims(&self) -> usize {
        self.n_dims
    }

    /// The `d̂` cap (maximum number of bound attributes).
    #[inline]
    pub fn max_bound(&self) -> usize {
        self.max_bound
    }

    /// Whether `mask` is a member of the lattice.
    #[inline]
    pub fn contains(&self, mask: BoundMask) -> bool {
        mask.0 < (1u32 << self.n_dims) && mask.bound_count() <= self.max_bound
    }

    /// Number of constraints in the lattice: `Σ_{k ≤ d̂} C(n, k)`.
    pub fn len(&self) -> usize {
        (0..=self.max_bound).map(|k| binomial(self.n_dims, k)).sum()
    }

    /// Whether the lattice is empty (it never is — ⊤ always belongs).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Size of a dense flag array indexed by `mask.0` (used by the traversal
    /// algorithms for `pruned` / `visited` bookkeeping).
    #[inline]
    pub fn flag_len(&self) -> usize {
        1usize << self.n_dims
    }

    /// The top element `⊤` (no attribute bound).
    #[inline]
    pub fn top(&self) -> BoundMask {
        BoundMask::TOP
    }

    /// The minimal (most specific) elements. Without a cap there is a single
    /// bottom `⊥(C^t)` binding every attribute; with `d̂ < n` every mask with
    /// exactly `d̂` bound attributes is minimal.
    pub fn bottoms(&self) -> Vec<BoundMask> {
        if self.max_bound == self.n_dims {
            vec![BoundMask::all(self.n_dims)]
        } else {
            self.masks_with_bound(self.max_bound)
        }
    }

    /// All masks with exactly `k` bound attributes.
    pub fn masks_with_bound(&self, k: usize) -> Vec<BoundMask> {
        (0u32..(1u32 << self.n_dims))
            .map(BoundMask)
            .filter(|m| m.bound_count() == k)
            .collect()
    }

    /// Enumerates every member of the lattice in breadth-first top-down order
    /// (by increasing number of bound attributes), starting from `⊤` — the
    /// order of Algorithm 1 of the paper.
    pub fn enumerate_top_down(&self) -> Vec<BoundMask> {
        let mut out = Vec::with_capacity(self.len());
        for k in 0..=self.max_bound {
            out.extend(self.masks_with_bound(k));
        }
        out
    }

    /// Algorithm 1 of the paper ("Find `C^t`"): breadth-first queue-based
    /// generation from `⊤`, generating each constraint exactly once by only
    /// binding attributes whose index is lower than the lowest already-bound
    /// attribute. Provided both as a faithful reference and as a useful
    /// generation order; results are identical (as a set) to
    /// [`Self::enumerate_top_down`].
    pub fn enumerate_algorithm1(&self) -> Vec<BoundMask> {
        let mut out = Vec::with_capacity(self.len());
        let mut queue = VecDeque::new();
        queue.push_back(BoundMask::TOP);
        while let Some(mask) = queue.pop_front() {
            out.push(mask);
            if mask.bound_count() >= self.max_bound {
                continue;
            }
            // Bind attributes d_i from the highest index downwards, stopping
            // at the first already-bound attribute — mirrors the `while i > 0
            // and C.d_i = *` loop of Algorithm 1 and guarantees uniqueness.
            let lowest_bound = if mask.is_top() {
                self.n_dims
            } else {
                mask.0.trailing_zeros() as usize
            };
            for i in (0..lowest_bound).rev() {
                queue.push_back(BoundMask(mask.0 | (1 << i)));
            }
        }
        out
    }

    /// Children of `mask` within the lattice (bind one more attribute),
    /// honouring the `d̂` cap.
    pub fn children(&self, mask: BoundMask) -> Vec<BoundMask> {
        if mask.bound_count() >= self.max_bound {
            return Vec::new();
        }
        mask.children(self.n_dims).collect()
    }

    /// Proper descendants of `mask` within the lattice (every strictly more
    /// specific member respecting the cap).
    pub fn descendants(&self, mask: BoundMask) -> Vec<BoundMask> {
        let free: Vec<usize> = (0..self.n_dims).filter(|&i| !mask.is_bound(i)).collect();
        let mut out = Vec::new();
        // Enumerate non-empty subsets of the free attributes.
        for bits in 1u32..(1u32 << free.len()) {
            let mut m = mask.0;
            for (j, &attr) in free.iter().enumerate() {
                if bits & (1 << j) != 0 {
                    m |= 1 << attr;
                }
            }
            let candidate = BoundMask(m);
            if candidate.bound_count() <= self.max_bound {
                out.push(candidate);
            }
        }
        out
    }
}

/// Binomial coefficient `C(n, k)` for the small values used here.
fn binomial(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result = 1usize;
    for i in 0..k {
        result = result * (n - i) / (i + 1);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(5, 6), 0);
        assert_eq!(binomial(8, 4), 70);
    }

    #[test]
    fn unrestricted_lattice_has_power_set_size() {
        let l = ConstraintLattice::unrestricted(5);
        assert_eq!(l.len(), 32);
        assert_eq!(l.enumerate_top_down().len(), 32);
        assert_eq!(l.enumerate_algorithm1().len(), 32);
        assert_eq!(l.bottoms(), vec![BoundMask::all(5)]);
    }

    #[test]
    fn capped_lattice_counts_match_paper_setting() {
        // The case study uses d = 5, d̂ = 3: 1 + 5 + 10 + 10 = 26 constraints.
        let l = ConstraintLattice::new(5, 3);
        assert_eq!(l.len(), 26);
        assert_eq!(l.enumerate_top_down().len(), 26);
        // All minimal elements bind exactly 3 attributes: C(5,3) = 10 of them.
        assert_eq!(l.bottoms().len(), 10);
        assert!(l.bottoms().iter().all(|m| m.bound_count() == 3));
    }

    #[test]
    fn max_bound_is_clamped() {
        let l = ConstraintLattice::new(3, 99);
        assert_eq!(l.max_bound(), 3);
        assert_eq!(l.len(), 8);
    }

    #[test]
    fn membership_and_flags() {
        let l = ConstraintLattice::new(4, 2);
        assert!(l.contains(BoundMask(0b0011)));
        assert!(!l.contains(BoundMask(0b0111))); // 3 bound > cap
        assert!(!l.contains(BoundMask(0b10000))); // attribute out of range
        assert_eq!(l.flag_len(), 16);
        assert!(!l.is_empty());
        assert_eq!(l.n_dims(), 4);
    }

    #[test]
    fn algorithm1_generates_each_constraint_once() {
        for n in 1..=6 {
            for cap in 1..=n {
                let l = ConstraintLattice::new(n, cap);
                let generated = l.enumerate_algorithm1();
                let mut dedup = generated.clone();
                dedup.sort();
                dedup.dedup();
                assert_eq!(
                    generated.len(),
                    dedup.len(),
                    "duplicates for n={n} cap={cap}"
                );
                let mut expected = l.enumerate_top_down();
                expected.sort();
                assert_eq!(dedup, expected, "wrong set for n={n} cap={cap}");
            }
        }
    }

    #[test]
    fn algorithm1_starts_at_top_and_is_breadth_first_compatible() {
        let l = ConstraintLattice::unrestricted(3);
        let order = l.enumerate_algorithm1();
        assert_eq!(order[0], BoundMask::TOP);
        // Every constraint appears no earlier than its parents (weaker than
        // strict BFS but what the traversal algorithms rely on).
        for (pos, &mask) in order.iter().enumerate() {
            for parent in mask.parents() {
                let parent_pos = order.iter().position(|&m| m == parent).unwrap();
                assert!(parent_pos < pos, "parent {parent} after child {mask}");
            }
        }
    }

    #[test]
    fn top_down_orders_by_bound_count() {
        let l = ConstraintLattice::new(4, 3);
        let order = l.enumerate_top_down();
        for pair in order.windows(2) {
            assert!(pair[0].bound_count() <= pair[1].bound_count());
        }
    }

    #[test]
    fn parents_children_are_inverse() {
        let l = ConstraintLattice::new(5, 4);
        for mask in l.enumerate_top_down() {
            for child in l.children(mask) {
                assert!(l.contains(child));
                assert!(child.parents().any(|parent| parent == mask));
                assert_eq!(child.bound_count(), mask.bound_count() + 1);
            }
            for parent in mask.parents() {
                assert!(l.children(parent).contains(&mask));
            }
        }
    }

    #[test]
    fn children_respect_cap() {
        let l = ConstraintLattice::new(5, 2);
        let at_cap = BoundMask(0b00011);
        assert!(l.children(at_cap).is_empty());
        let below_cap = BoundMask(0b00001);
        assert_eq!(l.children(below_cap).len(), 4);
    }

    #[test]
    fn descendants_and_ancestors() {
        let l = ConstraintLattice::unrestricted(4);
        let mask = BoundMask(0b0011);
        let desc = l.descendants(mask);
        assert_eq!(desc.len(), 3); // 0111, 1011, 1111
        assert!(desc.iter().all(|d| mask.is_submask_of(*d) && *d != mask));
        assert_eq!(mask.ancestors().count(), 3); // 0000, 0001, 0010
                                                 // With a cap, deep descendants disappear.
        let capped = ConstraintLattice::new(4, 3);
        assert_eq!(capped.descendants(mask).len(), 2);
    }

    #[test]
    fn example_5_neighbourhood() {
        // Fig. 1: C = ⟨a1, *, c1⟩ over 3 attributes has 2 parents, 1 child,
        // 3 ancestors (incl. ⊤) and 1 descendant.
        let l = ConstraintLattice::unrestricted(3);
        let c = BoundMask(0b101);
        assert_eq!(c.parents().count(), 2);
        assert_eq!(l.children(c).len(), 1);
        assert_eq!(c.ancestors().count(), 3);
        assert_eq!(l.descendants(c).len(), 1);
    }
}
