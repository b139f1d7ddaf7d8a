//! The dominance relation of skyline analysis (Definition 2) and the
//! subspace-sharing partition of Proposition 4.

use crate::subspace::SubspaceMask;
use crate::tuple::TupleView;
use crate::value::Direction;

/// Outcome of comparing two tuples in a measure subspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DominanceOrdering {
    /// The left tuple dominates the right one.
    Dominates,
    /// The right tuple dominates the left one.
    DominatedBy,
    /// The tuples have identical values on every attribute of the subspace.
    Equal,
    /// Neither tuple dominates the other (each is strictly better somewhere).
    Incomparable,
}

/// Three-way partition of the full measure space with respect to two tuples
/// `t` (left) and `t'` (right): the attributes where `t` is better, where `t'`
/// is better, and where they tie (Proposition 4 of the paper).
///
/// One partition — computed from a single full-space comparison — answers the
/// dominance question for *every* measure subspace:
/// `t ≺_M t'` iff `M ∩ worse ≠ ∅` and `M ∩ better = ∅`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DominancePartition {
    /// Attributes on which the left tuple is strictly better (`M_>`).
    pub better: SubspaceMask,
    /// Attributes on which the left tuple is strictly worse (`M_<`).
    pub worse: SubspaceMask,
    /// Attributes on which both tuples are equal (`M_=`).
    pub equal: SubspaceMask,
}

impl DominancePartition {
    /// Computes the partition of `left` versus `right` over all measures,
    /// honouring the per-attribute preference directions. Accepts any
    /// [`TupleView`] — owned tuples and borrowed [`TupleRef`](crate::TupleRef)
    /// views alike.
    pub fn compute(left: impl TupleView, right: impl TupleView, directions: &[Direction]) -> Self {
        debug_assert_eq!(left.num_measures(), right.num_measures());
        debug_assert_eq!(left.num_measures(), directions.len());
        let mut better = 0u32;
        let mut worse = 0u32;
        let mut equal = 0u32;
        for (i, dir) in directions.iter().enumerate() {
            let a = left.measure(i);
            let b = right.measure(i);
            if a == b {
                equal |= 1 << i;
            } else if dir.better(a, b) {
                better |= 1 << i;
            } else {
                worse |= 1 << i;
            }
        }
        DominancePartition {
            better: SubspaceMask(better),
            worse: SubspaceMask(worse),
            equal: SubspaceMask(equal),
        }
    }

    /// Whether the left tuple dominates the right tuple in subspace `m`
    /// (Proposition 4, stated from the dominator's perspective).
    #[inline]
    pub fn left_dominates_in(&self, m: SubspaceMask) -> bool {
        !m.intersect(self.better).is_empty() && m.intersect(self.worse).is_empty()
    }

    /// Whether the left tuple is dominated by the right tuple in subspace `m`.
    #[inline]
    pub fn left_dominated_in(&self, m: SubspaceMask) -> bool {
        !m.intersect(self.worse).is_empty() && m.intersect(self.better).is_empty()
    }
}

/// Returns `true` iff `left` dominates `right` in measure subspace `m`:
/// better-or-equal everywhere in `m` and strictly better somewhere in `m`.
pub fn dominates(
    left: impl TupleView,
    right: impl TupleView,
    m: SubspaceMask,
    directions: &[Direction],
) -> bool {
    let mut strictly_better = false;
    for i in m.indices() {
        let a = left.measure(i);
        let b = right.measure(i);
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

/// Classifies the relation of `left` to `right` in subspace `m` without
/// computing a full partition. Useful for one-off comparisons.
pub fn compare(
    left: impl TupleView,
    right: impl TupleView,
    m: SubspaceMask,
    directions: &[Direction],
) -> DominanceOrdering {
    let mut better = false;
    let mut worse = false;
    for i in m.indices() {
        let a = left.measure(i);
        let b = right.measure(i);
        if a == b {
            continue;
        }
        if directions[i].better(a, b) {
            better = true;
        } else {
            worse = true;
        }
        if better && worse {
            return DominanceOrdering::Incomparable;
        }
    }
    match (better, worse) {
        (true, false) => DominanceOrdering::Dominates,
        (false, true) => DominanceOrdering::DominatedBy,
        (false, false) => DominanceOrdering::Equal,
        (true, true) => unreachable!("early return above"),
    }
}

/// Computes the skyline of `tuples` in subspace `m` by pairwise comparison.
///
/// This is the reference implementation used by tests and by the brute-force
/// baseline; it is O(n²) and deliberately simple. Works over any iterator of
/// `(id, view)` pairs — `&Tuple` references and zero-copy
/// [`TupleRef`](crate::TupleRef) views from the columnar table alike.
pub fn skyline_of<T, I>(
    tuples: I,
    m: SubspaceMask,
    directions: &[Direction],
) -> Vec<(crate::TupleId, T)>
where
    T: TupleView + Copy,
    I: IntoIterator<Item = (crate::TupleId, T)>,
{
    let all: Vec<(crate::TupleId, T)> = tuples.into_iter().collect();
    all.iter()
        .filter(|(_, t)| {
            !all.iter()
                .any(|(_, other)| dominates(other, t, m, directions))
        })
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tuple;

    const HIGHER: [Direction; 3] = [
        Direction::HigherIsBetter,
        Direction::HigherIsBetter,
        Direction::HigherIsBetter,
    ];

    fn t(measures: &[f64]) -> Tuple {
        Tuple::new(vec![0], measures.to_vec())
    }

    #[test]
    fn basic_domination() {
        let a = t(&[3.0, 3.0, 3.0]);
        let b = t(&[2.0, 3.0, 1.0]);
        let full = SubspaceMask::full(3);
        assert!(dominates(&a, &b, full, &HIGHER));
        assert!(!dominates(&b, &a, full, &HIGHER));
    }

    #[test]
    fn equal_tuples_do_not_dominate() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[1.0, 2.0, 3.0]);
        let full = SubspaceMask::full(3);
        assert!(!dominates(&a, &b, full, &HIGHER));
        assert!(!dominates(&b, &a, full, &HIGHER));
        assert_eq!(compare(&a, &b, full, &HIGHER), DominanceOrdering::Equal);
    }

    #[test]
    fn incomparable_tuples() {
        let a = t(&[3.0, 1.0, 2.0]);
        let b = t(&[1.0, 3.0, 2.0]);
        let full = SubspaceMask::full(3);
        assert!(!dominates(&a, &b, full, &HIGHER));
        assert!(!dominates(&b, &a, full, &HIGHER));
        assert_eq!(
            compare(&a, &b, full, &HIGHER),
            DominanceOrdering::Incomparable
        );
    }

    #[test]
    fn domination_respects_subspace() {
        let a = t(&[3.0, 1.0, 5.0]);
        let b = t(&[2.0, 4.0, 5.0]);
        // In {m0} a dominates; in {m1} b dominates; in {m2} they tie.
        assert!(dominates(&a, &b, SubspaceMask::singleton(0), &HIGHER));
        assert!(dominates(&b, &a, SubspaceMask::singleton(1), &HIGHER));
        assert!(!dominates(&a, &b, SubspaceMask::singleton(2), &HIGHER));
        // In {m0, m2} a dominates (better on m0, equal on m2).
        assert!(dominates(
            &a,
            &b,
            SubspaceMask::from_indices([0, 2]),
            &HIGHER
        ));
    }

    #[test]
    fn direction_is_honoured() {
        let dirs = [Direction::HigherIsBetter, Direction::LowerIsBetter];
        let a = Tuple::new(vec![], vec![10.0, 2.0]); // more points, fewer fouls
        let b = Tuple::new(vec![], vec![8.0, 5.0]);
        let full = SubspaceMask::full(2);
        assert!(dominates(&a, &b, full, &dirs));
        assert!(!dominates(&b, &a, full, &dirs));
    }

    #[test]
    fn partition_matches_paper_example() {
        // Example 10 of the paper: t5 = (11, 15) vs t2 = (15, 10):
        // M_> = {m2}, M_< = {m1}, M_= = {}.
        let dirs = [Direction::HigherIsBetter, Direction::HigherIsBetter];
        let t5 = Tuple::new(vec![], vec![11.0, 15.0]);
        let t2 = Tuple::new(vec![], vec![15.0, 10.0]);
        let p = DominancePartition::compute(&t5, &t2, &dirs);
        assert_eq!(p.better, SubspaceMask(0b10));
        assert_eq!(p.worse, SubspaceMask(0b01));
        assert_eq!(p.equal, SubspaceMask(0));
        // t5 is dominated by t2 in {m1} but not in {m2} nor the full space.
        assert!(p.left_dominated_in(SubspaceMask(0b01)));
        assert!(!p.left_dominated_in(SubspaceMask(0b10)));
        assert!(!p.left_dominated_in(SubspaceMask(0b11)));
        assert!(p.left_dominates_in(SubspaceMask(0b10)));
    }

    #[test]
    fn partition_agrees_with_direct_dominance() {
        // Cross-check Proposition 4 against the direct definition on a grid of
        // value combinations and subspaces.
        let dirs = [
            Direction::HigherIsBetter,
            Direction::LowerIsBetter,
            Direction::HigherIsBetter,
        ];
        let values = [0.0, 1.0, 2.0];
        let mut tuples = Vec::new();
        for &a in &values {
            for &b in &values {
                for &c in &values {
                    tuples.push(Tuple::new(vec![], vec![a, b, c]));
                }
            }
        }
        for x in &tuples {
            for y in &tuples {
                let p = DominancePartition::compute(x, y, &dirs);
                for m in SubspaceMask::enumerate(3, 3) {
                    assert_eq!(
                        p.left_dominates_in(m),
                        dominates(x, y, m, &dirs),
                        "mismatch for {:?} vs {:?} in {:?}",
                        x,
                        y,
                        m
                    );
                    assert_eq!(
                        p.left_dominated_in(m),
                        dominates(y, x, m, &dirs),
                        "mismatch (dominated) for {:?} vs {:?} in {:?}",
                        x,
                        y,
                        m
                    );
                }
            }
        }
    }

    #[test]
    fn skyline_of_reference() {
        let dirs = [Direction::HigherIsBetter, Direction::HigherIsBetter];
        let tuples = [
            Tuple::new(vec![], vec![10.0, 15.0]),
            Tuple::new(vec![], vec![15.0, 10.0]),
            Tuple::new(vec![], vec![17.0, 17.0]),
            Tuple::new(vec![], vec![20.0, 20.0]),
            Tuple::new(vec![], vec![11.0, 15.0]),
        ];
        let ids: Vec<(u32, &Tuple)> = tuples
            .iter()
            .enumerate()
            .map(|(i, t)| (i as u32, t))
            .collect();
        let sky = skyline_of(ids, SubspaceMask::full(2), &dirs);
        // Only t4 = (20, 20) is undominated (running example, Example 3).
        assert_eq!(sky.len(), 1);
        assert_eq!(sky[0].0, 3);
    }
}
