//! Measure subspaces `M ⊆ 𝕄` represented as bitmasks.

use std::fmt;

/// A measure subspace: bit `i` is set iff measure attribute `i` belongs to the
/// subspace.
///
/// The paper considers every non-empty subset of the measure space (optionally
/// capped at `m̂` attributes); with at most
/// [`MAX_MEASURES`](crate::schema::MAX_MEASURES) measures a `u32` mask is
/// ample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubspaceMask(pub u32);

impl SubspaceMask {
    /// The empty subspace (not a valid skyline subspace, but useful as an
    /// identity for set operations).
    pub const EMPTY: SubspaceMask = SubspaceMask(0);

    /// The full measure space over `m` attributes.
    #[inline]
    pub fn full(m: usize) -> Self {
        debug_assert!(m <= 32);
        if m == 32 {
            SubspaceMask(u32::MAX)
        } else {
            SubspaceMask((1u32 << m) - 1)
        }
    }

    /// A singleton subspace containing only measure `i`.
    #[inline]
    pub fn singleton(i: usize) -> Self {
        SubspaceMask(1 << i)
    }

    /// Builds a subspace from measure attribute indexes.
    pub fn from_indices<I: IntoIterator<Item = usize>>(indices: I) -> Self {
        let mut mask = 0u32;
        for i in indices {
            mask |= 1 << i;
        }
        SubspaceMask(mask)
    }

    /// Number of measure attributes in the subspace (`|M|`).
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the subspace is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether measure attribute `i` belongs to the subspace.
    #[inline]
    pub fn contains(self, i: usize) -> bool {
        self.0 & (1 << i) != 0
    }

    /// Whether `self` is a subset of (or equal to) `other`.
    #[inline]
    pub fn is_subset_of(self, other: SubspaceMask) -> bool {
        self.0 & !other.0 == 0
    }

    /// Set intersection.
    #[inline]
    pub fn intersect(self, other: SubspaceMask) -> SubspaceMask {
        SubspaceMask(self.0 & other.0)
    }

    /// Set union.
    #[inline]
    pub fn union(self, other: SubspaceMask) -> SubspaceMask {
        SubspaceMask(self.0 | other.0)
    }

    /// Set difference (`self \ other`).
    #[inline]
    pub fn difference(self, other: SubspaceMask) -> SubspaceMask {
        SubspaceMask(self.0 & !other.0)
    }

    /// Iterates over the measure attribute indexes contained in the subspace,
    /// in increasing order.
    pub fn indices(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(i)
            }
        })
    }

    /// Enumerates every non-empty subspace of the `m`-attribute measure space
    /// whose cardinality is at most `max_len`, in ascending mask order.
    ///
    /// This is the iteration order used by the per-subspace (non-shared)
    /// algorithms; the shared variants iterate the full space first and then
    /// the proper subspaces.
    pub fn enumerate(m: usize, max_len: usize) -> Vec<SubspaceMask> {
        let full = Self::full(m).0;
        (1..=full)
            .map(SubspaceMask)
            .filter(|s| s.len() <= max_len)
            .collect()
    }

    /// Enumerates all non-empty subsets of `self` (including `self`).
    pub fn subsets(self) -> Vec<SubspaceMask> {
        let mut out = Vec::new();
        let mut sub = self.0;
        while sub != 0 {
            out.push(SubspaceMask(sub));
            sub = (sub - 1) & self.0;
        }
        out.sort_unstable();
        out
    }

    /// Renders the subspace using the measure names of `names`.
    pub fn display(self, names: &[String]) -> String {
        let parts: Vec<&str> = self
            .indices()
            .filter_map(|i| names.get(i).map(String::as_str))
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

impl fmt::Display for SubspaceMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{:b}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_and_singleton() {
        assert_eq!(SubspaceMask::full(3).0, 0b111);
        assert_eq!(SubspaceMask::singleton(2).0, 0b100);
        assert_eq!(SubspaceMask::full(3).len(), 3);
        assert!(SubspaceMask::EMPTY.is_empty());
    }

    #[test]
    fn from_indices_and_contains() {
        let s = SubspaceMask::from_indices([0, 2]);
        assert!(s.contains(0));
        assert!(!s.contains(1));
        assert!(s.contains(2));
        assert_eq!(s.len(), 2);
        assert_eq!(s.indices().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn subset_relations() {
        let a = SubspaceMask(0b011);
        let b = SubspaceMask(0b111);
        assert!(a.is_subset_of(b));
        assert!(!b.is_subset_of(a));
        assert!(a.is_subset_of(a));
    }

    #[test]
    fn set_operations() {
        let a = SubspaceMask(0b011);
        let b = SubspaceMask(0b110);
        assert_eq!(a.intersect(b).0, 0b010);
        assert_eq!(a.union(b).0, 0b111);
        assert_eq!(a.difference(b).0, 0b001);
    }

    #[test]
    fn enumerate_counts() {
        // All non-empty subsets of a 3-attribute space: 2^3 - 1 = 7.
        assert_eq!(SubspaceMask::enumerate(3, 3).len(), 7);
        // Capped at 2 attributes: C(3,1) + C(3,2) = 6.
        assert_eq!(SubspaceMask::enumerate(3, 2).len(), 6);
        // The paper's NBA configuration: m = 7 -> 127 subspaces.
        assert_eq!(SubspaceMask::enumerate(7, 7).len(), 127);
    }

    #[test]
    fn enumerate_is_sorted_and_unique() {
        let all = SubspaceMask::enumerate(4, 4);
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(all, sorted);
    }

    #[test]
    fn subsets_are_the_nonempty_submasks() {
        let t = SubspaceMask(0b101);
        let sub = t.subsets();
        assert_eq!(sub.len(), 3); // 001, 100, 101
        assert!(sub.iter().all(|x| x.is_subset_of(t) && !x.is_empty()));
    }

    #[test]
    fn display_uses_measure_names() {
        let names = vec!["points".to_string(), "assists".to_string()];
        assert_eq!(SubspaceMask(0b11).display(&names), "{points, assists}");
        assert_eq!(SubspaceMask(0b10).display(&names), "{assists}");
    }

    #[test]
    fn full_32_does_not_overflow() {
        assert_eq!(SubspaceMask::full(32).0, u32::MAX);
    }
}
