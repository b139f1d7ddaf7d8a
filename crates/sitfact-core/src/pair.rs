//! The output vocabulary of discovery: constraint–measure pairs.

use crate::constraint::Constraint;
use crate::schema::Schema;
use crate::subspace::SubspaceMask;

/// A constraint–measure pair `(C, M)` that qualifies a tuple as a contextual
/// skyline tuple — one element of the paper's result set `S_t`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SkylinePair {
    /// The conjunctive constraint defining the context `σ_C(R)`.
    pub constraint: Constraint,
    /// The measure subspace in which the tuple is undominated.
    pub subspace: SubspaceMask,
}

impl SkylinePair {
    /// Creates a new pair.
    pub fn new(constraint: Constraint, subspace: SubspaceMask) -> Self {
        SkylinePair {
            constraint,
            subspace,
        }
    }

    /// Human-readable rendering, e.g.
    /// `(month=Feb ∧ team=Celtics, {points, rebounds})`.
    pub fn display(&self, schema: &Schema) -> String {
        let measures: Vec<String> = schema.measures().iter().map(|m| m.name.clone()).collect();
        format!(
            "({}, {})",
            self.constraint.display(schema),
            self.subspace.display(&measures)
        )
    }
}

/// Canonical ordering key used by tests and reports so result sets can be
/// compared across algorithms: sort by constraint values, then subspace.
pub fn canonical_sort(pairs: &mut [SkylinePair]) {
    pairs.sort_by(|a, b| {
        a.constraint
            .values()
            .cmp(b.constraint.values())
            .then(a.subspace.cmp(&b.subspace))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::value::{Direction, UNBOUND};

    #[test]
    fn display_renders_both_parts() {
        let mut schema = SchemaBuilder::new("t")
            .dimension("team")
            .dimension("month")
            .measure("points", Direction::HigherIsBetter)
            .measure("assists", Direction::HigherIsBetter)
            .build()
            .unwrap();
        schema.intern_dims(&["Celtics", "Feb"]).unwrap();
        let pair = SkylinePair::new(
            Constraint::from_values(vec![0, UNBOUND]),
            SubspaceMask::from_indices([0]),
        );
        let shown = pair.display(&schema);
        assert!(shown.contains("team=Celtics"));
        assert!(shown.contains("{points}"));
    }

    #[test]
    fn canonical_sort_is_deterministic() {
        let a = SkylinePair::new(
            Constraint::from_values(vec![1, UNBOUND]),
            SubspaceMask(0b01),
        );
        let b = SkylinePair::new(
            Constraint::from_values(vec![1, UNBOUND]),
            SubspaceMask(0b10),
        );
        let c = SkylinePair::new(Constraint::from_values(vec![0, 3]), SubspaceMask(0b01));
        let mut v1 = vec![b.clone(), a.clone(), c.clone()];
        let mut v2 = vec![c.clone(), b.clone(), a.clone()];
        canonical_sort(&mut v1);
        canonical_sort(&mut v2);
        assert_eq!(v1, v2);
        assert_eq!(v1[0], c);
    }

    #[test]
    fn pairs_hash_and_compare() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(SkylinePair::new(Constraint::top(2), SubspaceMask(1)));
        set.insert(SkylinePair::new(Constraint::top(2), SubspaceMask(1)));
        assert_eq!(set.len(), 1);
    }
}
