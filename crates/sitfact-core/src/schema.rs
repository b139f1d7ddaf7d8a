//! Relation schema `R(D; M)`: dimension attributes, measure attributes and
//! their preference directions.

use crate::dictionary::Dictionary;
use crate::error::{Result, SitFactError};
use crate::tuple::{validate_parts, RawRow, Tuple};
use crate::value::Direction;

/// Maximum number of dimension attributes supported by the bitmask-based
/// constraint lattice ([`BoundMask`](crate::BoundMask) is a `u32`, and flag
/// arrays are allocated with `2^|D|` entries).
pub const MAX_DIMENSIONS: usize = 20;

/// Maximum number of measure attributes supported by
/// [`SubspaceMask`](crate::SubspaceMask).
pub const MAX_MEASURES: usize = 20;

/// A measure attribute: a name plus its preference direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasureAttr {
    /// Attribute name (unique within the schema).
    pub name: String,
    /// Whether larger or smaller values dominate.
    pub direction: Direction,
}

/// Schema of the append-only relation: named dimension attributes (each with
/// its own string dictionary) and named, directed measure attributes.
#[derive(Debug, Clone)]
pub struct Schema {
    name: String,
    dimensions: Vec<String>,
    measures: Vec<MeasureAttr>,
    directions: Vec<Direction>,
    dictionaries: Vec<Dictionary>,
}

impl Schema {
    /// Human-readable name of the relation (e.g. `"nba_gamelog"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of dimension attributes `|D|`.
    pub fn num_dimensions(&self) -> usize {
        self.dimensions.len()
    }

    /// Number of measure attributes `|M|`.
    pub fn num_measures(&self) -> usize {
        self.measures.len()
    }

    /// Names of the dimension attributes, in declaration order.
    pub fn dimension_names(&self) -> &[String] {
        &self.dimensions
    }

    /// The measure attributes, in declaration order.
    pub fn measures(&self) -> &[MeasureAttr] {
        &self.measures
    }

    /// Preference directions of the measures, in declaration order. This slice
    /// is what the dominance routines consume.
    pub fn directions(&self) -> &[Direction] {
        &self.directions
    }

    /// Index of a dimension attribute by name.
    pub fn dimension_index(&self, name: &str) -> Option<usize> {
        self.dimensions.iter().position(|d| d == name)
    }

    /// The dictionary of dimension `dim` (panics if out of range).
    pub fn dictionary(&self, dim: usize) -> &Dictionary {
        &self.dictionaries[dim]
    }

    /// Mutable access to the dictionary of dimension `dim`, used while
    /// ingesting raw string records.
    pub fn dictionary_mut(&mut self, dim: usize) -> &mut Dictionary {
        &mut self.dictionaries[dim]
    }

    /// Turns a window of raw rows into tuples — the one raw-row → tuple path.
    /// Every row's arity and the finiteness of its measures are checked
    /// before a single string is interned, so a refused window (an error)
    /// leaves every dictionary as it was. A single row is a window of one.
    pub fn encode_rows(&mut self, rows: &[RawRow]) -> Result<Vec<Tuple>> {
        for row in rows {
            validate_parts(row.dims.len(), &row.measures, self)?;
        }
        Ok(rows
            .iter()
            .map(|row| {
                let dims = (row.dims.iter().zip(&mut self.dictionaries))
                    .map(|(value, dictionary)| dictionary.intern(value))
                    .collect();
                Tuple::new(dims, row.measures.clone())
            })
            .collect())
    }

    /// Interns a full row of dimension strings, returning their ids. It
    /// checks the arity only; [`Schema::encode_rows`] validates whole rows.
    pub fn intern_dims(&mut self, values: &[impl AsRef<str>]) -> Result<Vec<u32>> {
        if values.len() != self.num_dimensions() {
            return Err(SitFactError::InvalidTuple(format!(
                "expected {} dimension values, got {}",
                self.num_dimensions(),
                values.len()
            )));
        }
        Ok(values
            .iter()
            .enumerate()
            .map(|(i, v)| self.dictionaries[i].intern(v.as_ref()))
            .collect())
    }

    /// Resolves a dimension value id back to its string.
    pub fn resolve_dim(&self, dim: usize, id: u32) -> Option<&str> {
        self.dictionaries.get(dim).and_then(|d| d.resolve(id))
    }

    /// Approximate heap bytes held by the schema's dictionaries.
    pub fn approx_heap_bytes(&self) -> usize {
        self.dictionaries
            .iter()
            .map(Dictionary::approx_heap_bytes)
            .sum()
    }
}

/// Builder for [`Schema`].
///
/// ```
/// use sitfact_core::{SchemaBuilder, Direction};
/// let schema = SchemaBuilder::new("gamelog")
///     .dimension("player")
///     .dimension("team")
///     .measure("points", Direction::HigherIsBetter)
///     .measure("turnovers", Direction::LowerIsBetter)
///     .build()
///     .unwrap();
/// assert_eq!(schema.num_dimensions(), 2);
/// assert_eq!(schema.num_measures(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SchemaBuilder {
    name: String,
    dimensions: Vec<String>,
    measures: Vec<MeasureAttr>,
}

impl SchemaBuilder {
    /// Starts a new schema with the given relation name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            dimensions: Vec::new(),
            measures: Vec::new(),
        }
    }

    /// Adds a dimension attribute.
    pub fn dimension(mut self, name: impl Into<String>) -> Self {
        self.dimensions.push(name.into());
        self
    }

    /// Adds several dimension attributes at once.
    pub fn dimensions<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.dimensions.extend(names.into_iter().map(Into::into));
        self
    }

    /// Adds a measure attribute with its preference direction.
    pub fn measure(mut self, name: impl Into<String>, direction: Direction) -> Self {
        self.measures.push(MeasureAttr {
            name: name.into(),
            direction,
        });
        self
    }

    /// Validates the declaration and produces the [`Schema`].
    pub fn build(self) -> Result<Schema> {
        if self.dimensions.is_empty() {
            return Err(SitFactError::InvalidSchema(
                "at least one dimension attribute is required".into(),
            ));
        }
        if self.measures.is_empty() {
            return Err(SitFactError::InvalidSchema(
                "at least one measure attribute is required".into(),
            ));
        }
        if self.dimensions.len() > MAX_DIMENSIONS {
            return Err(SitFactError::InvalidSchema(format!(
                "{} dimension attributes exceed the supported maximum of {}",
                self.dimensions.len(),
                MAX_DIMENSIONS
            )));
        }
        if self.measures.len() > MAX_MEASURES {
            return Err(SitFactError::InvalidSchema(format!(
                "{} measure attributes exceed the supported maximum of {}",
                self.measures.len(),
                MAX_MEASURES
            )));
        }
        let mut seen = std::collections::HashSet::new();
        for name in self
            .dimensions
            .iter()
            .chain(self.measures.iter().map(|m| &m.name))
        {
            if !seen.insert(name.as_str()) {
                return Err(SitFactError::InvalidSchema(format!(
                    "duplicate attribute name `{name}`"
                )));
            }
        }
        let directions = self.measures.iter().map(|m| m.direction).collect();
        let dictionaries = self.dimensions.iter().map(|_| Dictionary::new()).collect();
        Ok(Schema {
            name: self.name,
            dimensions: self.dimensions,
            measures: self.measures,
            directions,
            dictionaries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        SchemaBuilder::new("test")
            .dimension("player")
            .dimension("team")
            .dimension("season")
            .measure("points", Direction::HigherIsBetter)
            .measure("fouls", Direction::LowerIsBetter)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_expected_shape() {
        let s = sample();
        assert_eq!(s.name(), "test");
        assert_eq!(s.num_dimensions(), 3);
        assert_eq!(s.num_measures(), 2);
        assert_eq!(s.dimension_index("team"), Some(1));
        assert_eq!(s.dimension_index("nope"), None);
        assert_eq!(s.directions()[1], Direction::LowerIsBetter);
    }

    #[test]
    fn rejects_empty_schemas() {
        assert!(SchemaBuilder::new("x").build().is_err());
        assert!(SchemaBuilder::new("x").dimension("d").build().is_err());
        assert!(SchemaBuilder::new("x")
            .measure("m", Direction::HigherIsBetter)
            .build()
            .is_err());
    }

    #[test]
    fn rejects_duplicate_names() {
        let err = SchemaBuilder::new("x")
            .dimension("a")
            .dimension("a")
            .measure("m", Direction::HigherIsBetter)
            .build()
            .unwrap_err();
        assert!(matches!(err, SitFactError::InvalidSchema(_)));
        // Duplicate across dimension/measure namespaces is also rejected.
        let err = SchemaBuilder::new("x")
            .dimension("a")
            .measure("a", Direction::HigherIsBetter)
            .build()
            .unwrap_err();
        assert!(matches!(err, SitFactError::InvalidSchema(_)));
    }

    #[test]
    fn rejects_too_many_attributes() {
        let mut b = SchemaBuilder::new("wide");
        for i in 0..(MAX_DIMENSIONS + 1) {
            b = b.dimension(format!("d{i}"));
        }
        let err = b
            .measure("m", Direction::HigherIsBetter)
            .build()
            .unwrap_err();
        assert!(matches!(err, SitFactError::InvalidSchema(_)));
    }

    #[test]
    fn interning_round_trips() {
        let mut s = sample();
        let ids = s.intern_dims(&["Wesley", "Celtics", "1995-96"]).unwrap();
        assert_eq!(ids.len(), 3);
        assert_eq!(s.resolve_dim(0, ids[0]), Some("Wesley"));
        assert_eq!(s.resolve_dim(1, ids[1]), Some("Celtics"));
        // Re-interning yields identical ids.
        let ids2 = s.intern_dims(&["Wesley", "Celtics", "1995-96"]).unwrap();
        assert_eq!(ids, ids2);
    }

    #[test]
    fn interning_checks_arity() {
        let mut s = sample();
        assert!(s.intern_dims(&["only", "two"]).is_err());
    }

    /// A refused window interns nothing, whichever row refuses it and
    /// wherever that row sits; an accepted one interns in row order.
    #[test]
    fn encode_rows_validates_the_window_before_interning() {
        let lens = |s: &Schema| (0..3).map(|d| s.dictionary(d).len()).collect::<Vec<_>>();
        let row =
            |player: &str, measures: &[f64]| RawRow::new(&[player, "Nets", "1996-97"], measures);
        let mut s = sample();
        let accepted = s
            .encode_rows(&[RawRow::new(&["Wesley", "Celtics", "1995-96"], &[1.0, 2.0])])
            .unwrap();
        assert_eq!(accepted, vec![Tuple::new(vec![0, 0, 0], vec![1.0, 2.0])]);
        let before = lens(&s);
        for refused in [
            vec![row("Ghost", &[f64::NAN, 1.0])],
            vec![row("Ghost", &[1.0, f64::INFINITY])],
            vec![row("Ghost", &[1.0, 1.0]), row("Other", &[1.0])],
            vec![
                row("Ghost", &[1.0, 1.0]),
                RawRow::new(&["only", "two"], &[1.0, 1.0]),
            ],
        ] {
            assert!(s.encode_rows(&refused).is_err(), "{refused:?}");
            assert_eq!(lens(&s), before, "{refused:?}");
        }
        let window = s
            .encode_rows(&[row("Ghost", &[2.0, 1.0]), row("Wesley", &[3.0, 1.0])])
            .unwrap();
        assert_eq!(window[0].dims(), &[1, 1, 1]);
        assert_eq!(window[1].dims(), &[0, 1, 1]);
        assert!(s.encode_rows(&[]).unwrap().is_empty());
    }

    #[test]
    fn dimensions_bulk_helper() {
        let s = SchemaBuilder::new("bulk")
            .dimensions(["a", "b", "c"])
            .measure("m", Direction::HigherIsBetter)
            .build()
            .unwrap();
        assert_eq!(s.num_dimensions(), 3);
    }
}
