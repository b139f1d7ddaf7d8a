//! Primitive value types: dimension value identifiers and measure directions.

/// Identifier of a dimension value inside its attribute's [`Dictionary`](crate::Dictionary).
///
/// Dimension attributes are categorical (player names, team codes, months…);
/// every distinct string is interned once and referenced by this id.
pub type DimValueId = u32;

/// Sentinel id used inside [`Constraint`](crate::Constraint) vectors for
/// *unbound* dimension attributes (the `*` of the paper's notation).
pub const UNBOUND: DimValueId = u32::MAX;

/// Preference direction of a measure attribute.
///
/// The paper's Definition 2 allows "better than" to mean either "larger than"
/// or "smaller than" per attribute (e.g. points vs. fouls in a box score).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Larger values dominate smaller values (points, rebounds, likes, …).
    HigherIsBetter,
    /// Smaller values dominate larger values (fouls, turnovers, latency, …).
    LowerIsBetter,
}

impl Direction {
    /// Returns `true` when `a` is strictly better than `b` under this
    /// direction.
    #[inline]
    pub fn better(self, a: f64, b: f64) -> bool {
        match self {
            Direction::HigherIsBetter => a > b,
            Direction::LowerIsBetter => a < b,
        }
    }

    /// Maps a raw measure to a canonical "higher is better" score. Used by the
    /// k-d tree so its one-sided range query can always ask for `>=`.
    #[inline]
    pub fn canonical(self, value: f64) -> f64 {
        match self {
            Direction::HigherIsBetter => value,
            Direction::LowerIsBetter => -value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn higher_is_better_semantics() {
        let d = Direction::HigherIsBetter;
        assert!(d.better(3.0, 2.0));
        assert!(!d.better(2.0, 2.0));
        assert_eq!(d.canonical(5.0), 5.0);
    }

    #[test]
    fn lower_is_better_semantics() {
        let d = Direction::LowerIsBetter;
        assert!(d.better(1.0, 2.0));
        assert!(!d.better(2.0, 2.0));
        assert_eq!(d.canonical(5.0), -5.0);
    }

    #[test]
    fn unbound_sentinel_is_distinct_from_real_ids() {
        assert_ne!(UNBOUND, 0);
        assert_eq!(UNBOUND, u32::MAX);
    }
}
