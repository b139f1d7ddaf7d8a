//! Conjunctive constraints over dimension attributes (Definition 1), their
//! subsumption partial order (Definition 5), and the bound-attribute bitmasks
//! used inside per-tuple lattices.

use crate::error::{Result, SitFactError};
use crate::schema::Schema;
use crate::tuple::TupleView;
use crate::value::{DimValueId, UNBOUND};
use std::borrow::Borrow;
use std::fmt;

/// Bitmask over dimension attributes: bit `i` set iff attribute `d_i` is
/// *bound* in a constraint.
///
/// Inside the lattice of tuple-satisfied constraints `C^t`, a constraint is
/// fully determined by which attributes are bound (the bound value is forced
/// to `t.d_i`), so the traversal algorithms manipulate only these masks and
/// materialise a full [`Constraint`] just before touching the skyline store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BoundMask(pub u32);

impl BoundMask {
    /// The most general constraint `⊤ = ⟨*, *, …, *⟩` (nothing bound).
    pub const TOP: BoundMask = BoundMask(0);

    /// The mask binding every one of `n` attributes (the lattice bottom
    /// `⊥(C^t)` when no `d̂` cap applies).
    #[inline]
    pub fn all(n: usize) -> Self {
        debug_assert!(n <= 32);
        if n == 32 {
            BoundMask(u32::MAX)
        } else {
            BoundMask((1u32 << n) - 1)
        }
    }

    /// Builds a mask from bound attribute indexes.
    pub fn from_indices<I: IntoIterator<Item = usize>>(indices: I) -> Self {
        let mut mask = 0u32;
        for i in indices {
            mask |= 1 << i;
        }
        BoundMask(mask)
    }

    /// Number of bound attributes (`bound(C)` in the paper).
    #[inline]
    pub fn bound_count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether attribute `i` is bound.
    #[inline]
    pub fn is_bound(self, i: usize) -> bool {
        self.0 & (1 << i) != 0
    }

    /// Whether this is the top (empty) mask.
    #[inline]
    pub fn is_top(self) -> bool {
        self.0 == 0
    }

    /// `self ⊑ other` in the *mask* ordering: every attribute bound in `self`
    /// is also bound in `other`.
    ///
    /// Note the direction: binding **fewer** attributes gives a **more
    /// general** constraint, so in the constraint subsumption order of the
    /// paper, `self` (as a constraint of `C^t`) subsumes `other` iff
    /// `self.is_submask_of(other)`.
    #[inline]
    pub fn is_submask_of(self, other: BoundMask) -> bool {
        self.0 & !other.0 == 0
    }

    /// Intersection of the bound-attribute sets.
    #[inline]
    pub fn intersect(self, other: BoundMask) -> BoundMask {
        BoundMask(self.0 & other.0)
    }

    /// Union of the bound-attribute sets.
    #[inline]
    pub fn union(self, other: BoundMask) -> BoundMask {
        BoundMask(self.0 | other.0)
    }

    /// Iterates the indexes of bound attributes, in increasing order.
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

    /// Parents in the lattice of tuple-satisfied constraints: masks obtained
    /// by unbinding exactly one bound attribute (more general by one).
    pub fn parents(self) -> impl Iterator<Item = BoundMask> {
        let mask = self;
        mask.indices().map(move |i| BoundMask(mask.0 & !(1 << i)))
    }

    /// Children within an `n`-attribute dimension space: masks obtained by
    /// binding exactly one additional attribute (more specific by one).
    pub fn children(self, n: usize) -> impl Iterator<Item = BoundMask> {
        let mask = self;
        (0..n)
            .filter(move |&i| !mask.is_bound(i))
            .map(move |i| BoundMask(mask.0 | (1 << i)))
    }

    /// All proper ancestors (strictly more general masks): every proper
    /// submask of `self`, enumerated in place in the order of
    /// [`BoundMask::submasks`] (which yields `self` first), ending at the top
    /// mask. Callers that stop at the first hit depend on this order.
    pub fn ancestors(self) -> impl Iterator<Item = BoundMask> {
        self.submasks().skip(1)
    }

    /// All submasks of `self`, including `self` and the top mask. This is the
    /// shape of `C^{t,t'} ∩ C^t` when `self` is the agreement mask of `t` and
    /// `t'` (Definition 8 / Proposition 3).
    /// Enumerated in place, from `self` down to the top mask: the pruning
    /// loops of the algorithms run this once per dominating comparison.
    pub fn submasks(self) -> impl Iterator<Item = BoundMask> {
        let full = self.0;
        let mut next = Some(full);
        std::iter::from_fn(move || {
            let sub = next?;
            next = (sub != 0).then(|| (sub - 1) & full);
            Some(BoundMask(sub))
        })
    }

    /// The agreement mask of two tuples: attributes on which they share the
    /// same dimension value. The sub-lattice of constraints satisfied by both
    /// tuples, `C^{t,t'} ∩ C^t`, is exactly the set of submasks of this mask
    /// (the bottom `⊥(C^{t,t'})` of Definition 8 is the mask itself).
    pub fn agreement(left: impl TupleView, right: impl TupleView) -> BoundMask {
        debug_assert_eq!(left.num_dims(), right.num_dims());
        let mut mask = 0u32;
        for i in 0..left.num_dims() {
            if left.dim(i) == right.dim(i) {
                mask |= 1 << i;
            }
        }
        BoundMask(mask)
    }
}

impl fmt::Display for BoundMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{:b}", self.0)
    }
}

/// A conjunctive constraint `d_1=v_1 ∧ … ∧ d_n=v_n` where each `v_i` is either
/// a dictionary-encoded value or `*` (unbound).
///
/// `Constraint` is the *global* representation used as a key of the skyline
/// stores and reported in discovered facts; inside a per-tuple lattice the
/// compact [`BoundMask`] form is used instead.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    values: Box<[DimValueId]>,
}

impl Constraint {
    /// The most general constraint over `n` dimension attributes.
    pub fn top(n: usize) -> Self {
        Constraint {
            values: vec![UNBOUND; n].into_boxed_slice(),
        }
    }

    /// Builds a constraint from raw per-attribute values (`UNBOUND` = `*`).
    pub fn from_values(values: Vec<DimValueId>) -> Self {
        Constraint {
            values: values.into_boxed_slice(),
        }
    }

    /// The constraint obtained by binding exactly the attributes of `mask` to
    /// the corresponding values of `tuple` — an element of `C^t`.
    pub fn from_tuple_mask(tuple: impl TupleView, mask: BoundMask) -> Self {
        let mut values = vec![UNBOUND; tuple.num_dims()];
        for i in mask.indices() {
            values[i] = tuple.dim(i);
        }
        Constraint {
            values: values.into_boxed_slice(),
        }
    }

    /// Rebinds this constraint, in place and without allocating, to
    /// [`Constraint::from_tuple_mask`]`(tuple, mask)`. The tuple must have
    /// as many dimension attributes as the constraint.
    pub fn assign_tuple_mask(&mut self, tuple: impl TupleView, mask: BoundMask) {
        Self::write_tuple_mask(&mut self.values, tuple, mask);
    }

    /// Writes the values of [`Constraint::from_tuple_mask`]`(tuple, mask)`
    /// into `values` (one per dimension attribute): the key a map of
    /// constraints can be probed with, without building a constraint.
    pub fn write_tuple_mask(values: &mut [DimValueId], tuple: impl TupleView, mask: BoundMask) {
        debug_assert_eq!(tuple.num_dims(), values.len());
        for (i, value) in values.iter_mut().enumerate() {
            *value = if mask.is_bound(i) {
                tuple.dim(i)
            } else {
                UNBOUND
            };
        }
    }

    /// Builds a constraint by name from string values, e.g.
    /// `[("team", "Celtics"), ("opp_team", "Nets")]`. Values must already be
    /// present in the schema's dictionaries.
    pub fn parse(schema: &Schema, bindings: &[(&str, &str)]) -> Result<Self> {
        let mut values = vec![UNBOUND; schema.num_dimensions()];
        for (attr, value) in bindings {
            let idx = schema.dimension_index(attr).ok_or_else(|| {
                SitFactError::InvalidConstraint(format!("unknown dimension attribute `{attr}`"))
            })?;
            let id = schema.dictionary(idx).lookup(value).ok_or_else(|| {
                SitFactError::InvalidConstraint(format!(
                    "value `{value}` was never observed for attribute `{attr}`"
                ))
            })?;
            values[idx] = id;
        }
        Ok(Constraint {
            values: values.into_boxed_slice(),
        })
    }

    /// Per-attribute values (`UNBOUND` marks `*`).
    pub fn values(&self) -> &[DimValueId] {
        &self.values
    }

    /// Number of dimension attributes of the underlying schema.
    pub fn num_dims(&self) -> usize {
        self.values.len()
    }

    /// The bound-attribute mask of this constraint.
    pub fn bound_mask(&self) -> BoundMask {
        let mut mask = 0u32;
        for (i, &v) in self.values.iter().enumerate() {
            if v != UNBOUND {
                mask |= 1 << i;
            }
        }
        BoundMask(mask)
    }

    /// `bound(C)`: the number of bound attributes.
    pub fn bound_count(&self) -> usize {
        self.values.iter().filter(|&&v| v != UNBOUND).count()
    }

    /// Whether attribute `dim` is bound (out-of-range indexes are unbound).
    #[inline]
    pub fn binds(&self, dim: usize) -> bool {
        self.bound_value(dim).is_some()
    }

    /// The value attribute `dim` is bound to, or `None` when it is `*` (or
    /// out of range).
    #[inline]
    pub fn bound_value(&self, dim: usize) -> Option<DimValueId> {
        match self.values.get(dim) {
            Some(&v) if v != UNBOUND => Some(v),
            _ => None,
        }
    }

    /// Whether this is the most general constraint `⊤`.
    pub fn is_top(&self) -> bool {
        self.values.iter().all(|&v| v == UNBOUND)
    }

    /// Whether `tuple` satisfies the constraint (belongs to the context
    /// `σ_C(R)`).
    #[inline]
    pub fn matches(&self, tuple: impl TupleView) -> bool {
        debug_assert_eq!(tuple.num_dims(), self.values.len());
        self.values
            .iter()
            .enumerate()
            .all(|(i, &v)| v == UNBOUND || tuple.dim(i) == v)
    }

    /// `self ⊴ other`: `self` is subsumed by or equal to `other`
    /// (Definition 5) — `other` is at least as general.
    pub fn is_subsumed_by(&self, other: &Constraint) -> bool {
        debug_assert_eq!(self.values.len(), other.values.len());
        self.values
            .iter()
            .zip(other.values.iter())
            .all(|(&mine, &theirs)| theirs == UNBOUND || theirs == mine)
    }

    /// Renders the constraint with resolved dictionary values, e.g.
    /// `month=Feb ∧ team=Celtics` (the empty conjunction renders as `⊤`).
    pub fn display(&self, schema: &Schema) -> String {
        let parts: Vec<String> = self
            .values
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != UNBOUND)
            .map(|(i, &v)| {
                format!(
                    "{}={}",
                    schema.dimension_names()[i],
                    schema.resolve_dim(i, v).unwrap_or("?")
                )
            })
            .collect();
        if parts.is_empty() {
            "⊤".to_string()
        } else {
            parts.join(" ∧ ")
        }
    }
}

/// A constraint hashes and compares as its value slice, so a map keyed by
/// constraints can be probed with a scratch `&[DimValueId]` and allocate a
/// key only when it inserts one.
impl Borrow<[DimValueId]> for Constraint {
    fn borrow(&self) -> &[DimValueId] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::tuple::Tuple;
    use crate::value::Direction;

    fn tuple(dims: &[u32]) -> Tuple {
        Tuple::new(dims.to_vec(), vec![0.0])
    }

    #[test]
    fn bound_mask_basics() {
        let m = BoundMask::from_indices([0, 2]);
        assert_eq!(m.bound_count(), 2);
        assert!(m.is_bound(0));
        assert!(!m.is_bound(1));
        assert!(m.is_bound(2));
        assert!(!m.is_top());
        assert!(BoundMask::TOP.is_top());
        assert_eq!(BoundMask::all(3).0, 0b111);
        assert_eq!(m.indices().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn parents_unbind_one_attribute() {
        let m = BoundMask(0b101);
        let parents: Vec<BoundMask> = m.parents().collect();
        assert_eq!(parents.len(), 2);
        assert!(parents.contains(&BoundMask(0b100)));
        assert!(parents.contains(&BoundMask(0b001)));
        assert!(BoundMask::TOP.parents().next().is_none());
    }

    #[test]
    fn children_bind_one_attribute() {
        let m = BoundMask(0b001);
        let children: Vec<BoundMask> = m.children(3).collect();
        assert_eq!(children.len(), 2);
        assert!(children.contains(&BoundMask(0b011)));
        assert!(children.contains(&BoundMask(0b101)));
        assert!(BoundMask::all(3).children(3).next().is_none());
    }

    #[test]
    fn ancestors_are_proper_submasks_in_descending_order() {
        let m = BoundMask(0b011);
        assert_eq!(
            m.ancestors().collect::<Vec<_>>(),
            vec![BoundMask(0b010), BoundMask(0b001), BoundMask(0b000)]
        );
        assert_eq!(
            BoundMask(0b101).ancestors().collect::<Vec<_>>(),
            vec![BoundMask(0b100), BoundMask(0b001), BoundMask(0b000)]
        );
        assert!(BoundMask::TOP.ancestors().next().is_none());
    }

    #[test]
    fn constraints_are_found_by_their_value_slice() {
        let t = tuple(&[7, 8, 9]);
        let mut counts: crate::FxHashMap<Constraint, u32> = crate::FxHashMap::default();
        counts.insert(Constraint::from_tuple_mask(&t, BoundMask(0b101)), 3);
        assert_eq!(counts.get(&[7, UNBOUND, 9][..]), Some(&3));
        assert_eq!(counts.get(&[7, 8, 9][..]), None);
    }

    #[test]
    fn assign_tuple_mask_rebinds_in_place() {
        let mut c = Constraint::top(3);
        c.assign_tuple_mask(tuple(&[7, 8, 9]), BoundMask(0b110));
        assert_eq!(c, Constraint::from_values(vec![UNBOUND, 8, 9]));
        c.assign_tuple_mask(tuple(&[1, 2, 3]), BoundMask::TOP);
        assert!(c.is_top());
    }

    #[test]
    fn submasks_include_self_and_top() {
        let m = BoundMask(0b110);
        let mut subs: Vec<BoundMask> = m.submasks().collect();
        subs.sort();
        assert_eq!(
            subs,
            vec![
                BoundMask(0b000),
                BoundMask(0b010),
                BoundMask(0b100),
                BoundMask(0b110)
            ]
        );
        assert_eq!(
            BoundMask::TOP.submasks().collect::<Vec<_>>(),
            vec![BoundMask::TOP]
        );
    }

    #[test]
    fn agreement_mask_matches_definition_8() {
        // Running-example tuples t4 = (a2, b1, c1) and t5 = (a1, b1, c1):
        // ⊥(C^{t4,t5}) = ⟨*, b1, c1⟩, i.e. agreement on attributes 1 and 2.
        let t4 = tuple(&[1, 0, 0]);
        let t5 = tuple(&[0, 0, 0]);
        assert_eq!(BoundMask::agreement(&t4, &t5), BoundMask(0b110));
        // No shared values -> agreement is the top mask.
        let x = tuple(&[1, 2, 3]);
        let y = tuple(&[4, 5, 6]);
        assert_eq!(BoundMask::agreement(&x, &y), BoundMask::TOP);
        // Identical tuples agree everywhere.
        assert_eq!(BoundMask::agreement(&t5, &t5), BoundMask::all(3));
    }

    #[test]
    fn constraint_from_tuple_mask() {
        let t = tuple(&[7, 8, 9]);
        let c = Constraint::from_tuple_mask(&t, BoundMask(0b101));
        assert_eq!(c.values(), &[7, UNBOUND, 9]);
        assert_eq!(c.bound_count(), 2);
        assert_eq!(c.bound_mask(), BoundMask(0b101));
        assert!(c.matches(&t));
        assert!(!c.is_top());
        assert!(Constraint::top(3).is_top());
    }

    #[test]
    fn binds_and_bound_value() {
        let c = Constraint::from_values(vec![5, UNBOUND, 2]);
        assert!(c.binds(0));
        assert!(!c.binds(1));
        assert_eq!(c.bound_value(2), Some(2));
        assert_eq!(c.bound_value(1), None);
        // Out-of-range indexes read as unbound rather than panicking.
        assert!(!c.binds(99));
        assert_eq!(c.bound_value(99), None);
    }

    #[test]
    fn matches_respects_bound_values() {
        let c = Constraint::from_values(vec![5, UNBOUND, 2]);
        assert!(c.matches(tuple(&[5, 99, 2])));
        assert!(!c.matches(tuple(&[5, 99, 3])));
        assert!(!c.matches(tuple(&[4, 99, 2])));
        assert!(Constraint::top(3).matches(tuple(&[1, 2, 3])));
    }

    #[test]
    fn subsumption_matches_example_4() {
        // C1 = ⟨a, b, c⟩ is subsumed by C2 = ⟨a, *, c⟩.
        let c1 = Constraint::from_values(vec![0, 1, 2]);
        let c2 = Constraint::from_values(vec![0, UNBOUND, 2]);
        assert!(c1.is_subsumed_by(&c2));
        assert!(!c2.is_subsumed_by(&c1));
        // Every constraint is subsumed by itself and by ⊤.
        assert!(c1.is_subsumed_by(&c1));
        assert!(c1.is_subsumed_by(&Constraint::top(3)));
        // Different bound values are not subsumed.
        let c3 = Constraint::from_values(vec![9, UNBOUND, 2]);
        assert!(!c1.is_subsumed_by(&c3));
    }

    #[test]
    fn parse_and_display() {
        let mut schema = SchemaBuilder::new("gamelog")
            .dimension("player")
            .dimension("team")
            .dimension("month")
            .measure("points", Direction::HigherIsBetter)
            .build()
            .unwrap();
        schema.intern_dims(&["Wesley", "Celtics", "Feb"]).unwrap();
        let c = Constraint::parse(&schema, &[("team", "Celtics"), ("month", "Feb")]).unwrap();
        assert_eq!(c.bound_count(), 2);
        let shown = c.display(&schema);
        assert!(shown.contains("team=Celtics"));
        assert!(shown.contains("month=Feb"));
        assert_eq!(Constraint::top(3).display(&schema), "⊤");
        // Unknown attribute and unknown value are rejected.
        assert!(Constraint::parse(&schema, &[("city", "Boston")]).is_err());
        assert!(Constraint::parse(&schema, &[("team", "Lakers")]).is_err());
    }

    #[test]
    fn subsumption_is_consistent_with_masks() {
        // For constraints derived from the same tuple, subsumption must agree
        // with the submask relation (fewer bound attributes = more general).
        let t = tuple(&[3, 4, 5, 6]);
        for a in 0..16u32 {
            for b in 0..16u32 {
                let ca = Constraint::from_tuple_mask(&t, BoundMask(a));
                let cb = Constraint::from_tuple_mask(&t, BoundMask(b));
                assert_eq!(
                    ca.is_subsumed_by(&cb),
                    BoundMask(b).is_submask_of(BoundMask(a)),
                    "a={a:04b} b={b:04b}"
                );
            }
        }
    }
}
