//! Tuples of the append-only relation: the raw arrival [`RawRow`], the
//! owned [`Tuple`] it interns to, the borrowed zero-copy [`TupleRef`] view,
//! and the [`TupleView`] abstraction both implement.

use crate::error::{Result, SitFactError};
use crate::schema::Schema;
use crate::value::DimValueId;

/// Position of a tuple in the append-only table (also its arrival timestamp:
/// tuple `i` arrived before tuple `j` iff `i < j`).
pub type TupleId = u32;

/// Read access to a tuple's dimension and measure values.
///
/// The dominance routines, constraint operations and narration all accept
/// `impl TupleView` so they work identically on an owned [`Tuple`], a borrowed
/// `&Tuple`, or a zero-copy [`TupleRef`] produced by the columnar table —
/// the hot discovery loop never has to materialise a row.
pub trait TupleView {
    /// The dictionary-encoded dimension values.
    fn dims(&self) -> &[DimValueId];

    /// The measure values.
    fn measures(&self) -> &[f64];

    /// Value of dimension attribute `i`.
    #[inline]
    fn dim(&self, i: usize) -> DimValueId {
        self.dims()[i]
    }

    /// Value of measure attribute `i`.
    #[inline]
    fn measure(&self, i: usize) -> f64 {
        self.measures()[i]
    }

    /// Number of dimension attributes in this tuple.
    #[inline]
    fn num_dims(&self) -> usize {
        self.dims().len()
    }

    /// Number of measure attributes in this tuple.
    #[inline]
    fn num_measures(&self) -> usize {
        self.measures().len()
    }

    /// A borrowed view of this tuple.
    #[inline]
    fn as_tuple_ref(&self) -> TupleRef<'_> {
        TupleRef::new(self.dims(), self.measures())
    }

    /// Copies the values into an owned [`Tuple`].
    fn to_tuple(&self) -> Tuple {
        Tuple::new(self.dims().to_vec(), self.measures().to_vec())
    }
}

impl<T: TupleView + ?Sized> TupleView for &T {
    #[inline]
    fn dims(&self) -> &[DimValueId] {
        (**self).dims()
    }

    #[inline]
    fn measures(&self) -> &[f64] {
        (**self).measures()
    }
}

/// One arrival before interning: dimension strings plus measures, in schema
/// order. Clients submit it, generators emit it and the arrival log stores
/// it (ids depend on interning order, so a replay re-interns the strings).
#[derive(Debug, Clone, PartialEq)]
pub struct RawRow {
    /// Dimension attribute values, one string per dimension.
    pub dims: Vec<String>,
    /// Measure attribute values, one per measure.
    pub measures: Vec<f64>,
}

impl RawRow {
    /// Builds a row from borrowed dimension strings and measures.
    pub fn new(dims: &[impl AsRef<str>], measures: &[f64]) -> Self {
        RawRow {
            dims: dims.iter().map(|d| d.as_ref().to_string()).collect(),
            measures: measures.to_vec(),
        }
    }
}

/// A single row: dictionary-encoded dimension values plus raw measure values.
///
/// Tuples are deliberately plain data — all semantics (directions, which
/// attributes are dimensions vs. measures) live in the [`Schema`].
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    dims: Vec<DimValueId>,
    measures: Vec<f64>,
}

impl Tuple {
    /// Creates a tuple from encoded dimension ids and measure values.
    ///
    /// External input arrives as [`RawRow`]s: turn those into tuples with
    /// [`Schema::encode_rows`], which validates before it interns.
    pub fn new(dims: Vec<DimValueId>, measures: Vec<f64>) -> Self {
        Self { dims, measures }
    }

    /// Creates a tuple and validates it against `schema`: arity must match and
    /// measures must be finite.
    pub fn validated(dims: Vec<DimValueId>, measures: Vec<f64>, schema: &Schema) -> Result<Self> {
        let tuple = Self { dims, measures };
        tuple.validate(schema)?;
        Ok(tuple)
    }

    /// Validates this tuple against `schema` without consuming or copying it:
    /// arity must match and measures must be finite.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        validate_parts(self.dims.len(), &self.measures, schema)
    }

    /// The dictionary-encoded dimension values.
    #[inline]
    pub fn dims(&self) -> &[DimValueId] {
        &self.dims
    }

    /// The measure values.
    #[inline]
    pub fn measures(&self) -> &[f64] {
        &self.measures
    }

    /// Value of dimension attribute `i`.
    #[inline]
    pub fn dim(&self, i: usize) -> DimValueId {
        self.dims[i]
    }

    /// Value of measure attribute `i`.
    #[inline]
    pub fn measure(&self, i: usize) -> f64 {
        self.measures[i]
    }

    /// Number of dimension attributes in this tuple.
    pub fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// Number of measure attributes in this tuple.
    pub fn num_measures(&self) -> usize {
        self.measures.len()
    }

    /// Renders the tuple with resolved dimension strings, for logs and fact
    /// narration.
    pub fn display(&self, schema: &Schema) -> String {
        display_parts(&self.dims, &self.measures, schema)
    }
}

impl TupleView for Tuple {
    #[inline]
    fn dims(&self) -> &[DimValueId] {
        &self.dims
    }

    #[inline]
    fn measures(&self) -> &[f64] {
        &self.measures
    }
}

/// A borrowed, zero-copy view of one tuple: a dimension slice plus a measure
/// slice, typically pointing straight into the columnar table's flat arrays.
///
/// `TupleRef` is `Copy` — passing one around costs two fat pointers and never
/// touches the heap, which is what keeps per-tuple context iteration
/// allocation-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TupleRef<'a> {
    dims: &'a [DimValueId],
    measures: &'a [f64],
}

impl<'a> TupleRef<'a> {
    /// Creates a view over borrowed dimension and measure slices.
    #[inline]
    pub fn new(dims: &'a [DimValueId], measures: &'a [f64]) -> Self {
        TupleRef { dims, measures }
    }

    /// The dictionary-encoded dimension values.
    #[inline]
    pub fn dims(self) -> &'a [DimValueId] {
        self.dims
    }

    /// The measure values.
    #[inline]
    pub fn measures(self) -> &'a [f64] {
        self.measures
    }

    /// Value of dimension attribute `i`.
    #[inline]
    pub fn dim(self, i: usize) -> DimValueId {
        self.dims[i]
    }

    /// Value of measure attribute `i`.
    #[inline]
    pub fn measure(self, i: usize) -> f64 {
        self.measures[i]
    }

    /// Number of dimension attributes in this view.
    #[inline]
    pub fn num_dims(self) -> usize {
        self.dims.len()
    }

    /// Number of measure attributes in this view.
    #[inline]
    pub fn num_measures(self) -> usize {
        self.measures.len()
    }

    /// Copies the viewed values into an owned [`Tuple`].
    pub fn to_tuple(self) -> Tuple {
        Tuple::new(self.dims.to_vec(), self.measures.to_vec())
    }

    /// Renders the tuple with resolved dimension strings, for logs and fact
    /// narration.
    pub fn display(self, schema: &Schema) -> String {
        display_parts(self.dims, self.measures, schema)
    }
}

impl TupleView for TupleRef<'_> {
    #[inline]
    fn dims(&self) -> &[DimValueId] {
        self.dims
    }

    #[inline]
    fn measures(&self) -> &[f64] {
        self.measures
    }
}

impl<'a> From<&'a Tuple> for TupleRef<'a> {
    #[inline]
    fn from(tuple: &'a Tuple) -> Self {
        TupleRef::new(&tuple.dims, &tuple.measures)
    }
}

/// The checks a row must pass against `schema`, whether its dimensions are
/// strings or ids: arity, then finite measures.
pub(crate) fn validate_parts(num_dims: usize, measures: &[f64], schema: &Schema) -> Result<()> {
    if num_dims != schema.num_dimensions() {
        return Err(SitFactError::InvalidTuple(format!(
            "expected {} dimension values, got {num_dims}",
            schema.num_dimensions(),
        )));
    }
    if measures.len() != schema.num_measures() {
        return Err(SitFactError::InvalidTuple(format!(
            "expected {} measure values, got {}",
            schema.num_measures(),
            measures.len()
        )));
    }
    if let Some(idx) = measures.iter().position(|m| !m.is_finite()) {
        return Err(SitFactError::InvalidTuple(format!(
            "measure `{}` is not a finite number",
            schema.measures()[idx].name
        )));
    }
    Ok(())
}

fn display_parts(dims: &[DimValueId], measures: &[f64], schema: &Schema) -> String {
    let dims: Vec<String> = dims
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            format!(
                "{}={}",
                schema.dimension_names()[i],
                schema.resolve_dim(i, id).unwrap_or("?")
            )
        })
        .collect();
    let measures: Vec<String> = measures
        .iter()
        .enumerate()
        .map(|(i, v)| format!("{}={}", schema.measures()[i].name, v))
        .collect();
    format!("[{} | {}]", dims.join(", "), measures.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::value::Direction;

    fn schema() -> Schema {
        SchemaBuilder::new("t")
            .dimension("a")
            .dimension("b")
            .measure("m1", Direction::HigherIsBetter)
            .measure("m2", Direction::LowerIsBetter)
            .build()
            .unwrap()
    }

    #[test]
    fn accessors() {
        let t = Tuple::new(vec![1, 2], vec![10.0, 3.0]);
        assert_eq!(t.dims(), &[1, 2]);
        assert_eq!(t.measures(), &[10.0, 3.0]);
        assert_eq!(t.dim(1), 2);
        assert_eq!(t.measure(0), 10.0);
        assert_eq!(t.num_dims(), 2);
        assert_eq!(t.num_measures(), 2);
    }

    #[test]
    fn tuple_ref_views_the_same_data() {
        let t = Tuple::new(vec![1, 2], vec![10.0, 3.0]);
        let r = TupleRef::from(&t);
        assert_eq!(r.dims(), t.dims());
        assert_eq!(r.measures(), t.measures());
        assert_eq!(r.dim(0), 1);
        assert_eq!(r.measure(1), 3.0);
        assert_eq!(r.num_dims(), 2);
        assert_eq!(r.num_measures(), 2);
        // Round-trip back to an owned tuple.
        assert_eq!(r.to_tuple(), t);
        // TupleRef is Copy.
        let s = r;
        assert_eq!(s, r);
    }

    #[test]
    fn tuple_view_is_object_and_value_polymorphic() {
        fn first_measure(t: impl TupleView) -> f64 {
            t.measure(0)
        }
        let t = Tuple::new(vec![0], vec![7.0]);
        assert_eq!(first_measure(&t), 7.0);
        assert_eq!(first_measure(t.as_tuple_ref()), 7.0);
        assert_eq!(first_measure(t), 7.0);
    }

    #[test]
    fn validation_accepts_matching_tuple() {
        let s = schema();
        assert!(Tuple::validated(vec![0, 0], vec![1.0, 2.0], &s).is_ok());
        assert!(Tuple::new(vec![0, 0], vec![1.0, 2.0]).validate(&s).is_ok());
    }

    #[test]
    fn validation_rejects_bad_arity() {
        let s = schema();
        assert!(Tuple::validated(vec![0], vec![1.0, 2.0], &s).is_err());
        assert!(Tuple::validated(vec![0, 0], vec![1.0], &s).is_err());
    }

    #[test]
    fn validation_rejects_non_finite_measures() {
        let s = schema();
        assert!(Tuple::validated(vec![0, 0], vec![f64::NAN, 2.0], &s).is_err());
        assert!(Tuple::validated(vec![0, 0], vec![1.0, f64::INFINITY], &s).is_err());
    }

    #[test]
    fn display_resolves_dictionary_values() {
        let mut s = schema();
        let ids = s.intern_dims(&["Wesley", "Celtics"]).unwrap();
        let t = Tuple::new(ids, vec![12.0, 1.0]);
        let rendered = t.display(&s);
        assert!(rendered.contains("a=Wesley"));
        assert!(rendered.contains("b=Celtics"));
        assert!(rendered.contains("m1=12"));
        // The borrowed view renders identically.
        assert_eq!(t.as_tuple_ref().display(&s), rendered);
    }
}
