//! Discovery configuration: the `d̂` / `m̂` caps of the paper's experiments.

use crate::error::{Result, SitFactError};
use crate::schema::Schema;

/// Limits on which constraint–measure pairs are considered.
///
/// The paper caps the number of *bound* dimension attributes at `d̂`
/// (`max_bound_dims`) and the dimensionality of measure subspaces at `m̂`
/// (`max_measure_dims`) to avoid reporting over-specific, uninteresting facts
/// (Section VI-A). `None` means "no cap".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiscoveryConfig {
    /// `d̂`: maximum number of bound dimension attributes in a constraint.
    pub max_bound_dims: Option<usize>,
    /// `m̂`: maximum number of measure attributes in a subspace.
    pub max_measure_dims: Option<usize>,
    /// Anchor attribute: if set, only facts whose constraint *binds* this
    /// dimension attribute are reported. This is the routing-soundness
    /// restriction of sharded monitors (see [`crate::routing`]): a stream
    /// partitioned on attribute `r` reports exactly the facts of an
    /// unsharded monitor anchored on `r`, because those facts' contexts
    /// never span shards. `None` (the default) reports the full constraint
    /// space.
    pub anchor_dim: Option<usize>,
}

impl DiscoveryConfig {
    /// No caps: every constraint and every non-empty measure subspace is
    /// considered.
    pub fn unrestricted() -> Self {
        Self::default()
    }

    /// Caps constraints at `d_hat` bound attributes and subspaces at `m_hat`
    /// measures.
    pub fn capped(d_hat: usize, m_hat: usize) -> Self {
        DiscoveryConfig {
            max_bound_dims: Some(d_hat),
            max_measure_dims: Some(m_hat),
            anchor_dim: None,
        }
    }

    /// Returns a copy anchored on dimension attribute `dim`: only facts whose
    /// constraint binds `dim` are reported. Required (and auto-applied) by
    /// sharded monitors routing on `dim` — see [`crate::routing`] for why.
    pub fn with_anchor(mut self, dim: usize) -> Self {
        self.anchor_dim = Some(dim);
        self
    }

    /// Whether a fact with this constraint is admitted by the anchor
    /// restriction (always true when no anchor is set).
    #[inline]
    pub fn admits(&self, constraint: &crate::constraint::Constraint) -> bool {
        match self.anchor_dim {
            None => true,
            Some(dim) => constraint.binds(dim),
        }
    }

    /// The effective `d̂` for a schema with `n` dimension attributes.
    pub fn effective_d_hat(&self, schema: &Schema) -> usize {
        self.max_bound_dims
            .unwrap_or(schema.num_dimensions())
            .min(schema.num_dimensions())
    }

    /// The effective `m̂` for a schema with `m` measure attributes.
    pub fn effective_m_hat(&self, schema: &Schema) -> usize {
        self.max_measure_dims
            .unwrap_or(schema.num_measures())
            .min(schema.num_measures())
    }

    /// Validates the configuration against a schema.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        if let Some(d) = self.max_bound_dims {
            if d == 0 {
                return Err(SitFactError::InvalidConfig(
                    "d̂ must be at least 1 (otherwise only the trivial context exists)".into(),
                ));
            }
            let _ = d; // larger-than-schema caps are simply clamped
        }
        if let Some(m) = self.max_measure_dims {
            if m == 0 {
                return Err(SitFactError::InvalidConfig(
                    "m̂ must be at least 1 (a skyline needs at least one measure)".into(),
                ));
            }
        }
        if let Some(dim) = self.anchor_dim {
            if dim >= schema.num_dimensions() {
                return Err(SitFactError::InvalidConfig(format!(
                    "anchor dimension index {dim} is out of range for schema `{}` with {} dimension attributes",
                    schema.name(),
                    schema.num_dimensions()
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::value::Direction;

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
    fn unrestricted_uses_schema_sizes() {
        let s = schema(5, 7);
        let c = DiscoveryConfig::unrestricted();
        assert_eq!(c.effective_d_hat(&s), 5);
        assert_eq!(c.effective_m_hat(&s), 7);
        assert!(c.validate(&s).is_ok());
    }

    #[test]
    fn caps_are_clamped_to_schema() {
        let s = schema(5, 7);
        let c = DiscoveryConfig::capped(4, 3);
        assert_eq!(c.effective_d_hat(&s), 4);
        assert_eq!(c.effective_m_hat(&s), 3);
        let over = DiscoveryConfig::capped(10, 10);
        assert_eq!(over.effective_d_hat(&s), 5);
        assert_eq!(over.effective_m_hat(&s), 7);
    }

    #[test]
    fn zero_caps_are_rejected() {
        let s = schema(2, 2);
        assert!(DiscoveryConfig::capped(0, 1).validate(&s).is_err());
        assert!(DiscoveryConfig::capped(1, 0).validate(&s).is_err());
        assert!(DiscoveryConfig::capped(1, 1).validate(&s).is_ok());
    }

    #[test]
    fn anchor_is_validated_and_filters_constraints() {
        use crate::constraint::Constraint;
        use crate::value::UNBOUND;
        let s = schema(3, 2);
        let anchored = DiscoveryConfig::capped(2, 2).with_anchor(1);
        assert!(anchored.validate(&s).is_ok());
        assert!(DiscoveryConfig::unrestricted()
            .with_anchor(3)
            .validate(&s)
            .is_err());
        // The anchor admits exactly the constraints binding the anchored
        // attribute; without an anchor everything is admitted.
        let binds_anchor = Constraint::from_values(vec![UNBOUND, 4, UNBOUND]);
        let misses_anchor = Constraint::from_values(vec![4, UNBOUND, UNBOUND]);
        assert!(anchored.admits(&binds_anchor));
        assert!(!anchored.admits(&misses_anchor));
        assert!(!anchored.admits(&Constraint::top(3)));
        assert!(DiscoveryConfig::unrestricted().admits(&Constraint::top(3)));
    }
}
