//! Routing soundness for partitioned (sharded) streams.
//!
//! A sharded monitor partitions the arrival stream by one dimension attribute
//! — the *routing* attribute `r` — so that every tuple with the same value of
//! `r` lands on the same shard. A shard then only ever sees a subset of the
//! global history, which changes the answer for any constraint whose context
//! spans shards. Sharding is **sound** (the merged per-arrival reports equal
//! an unsharded monitor's) exactly when every emitted fact's constraint
//! *binds* the routing attribute:
//!
//! * a constraint that binds `r` to the arriving tuple's own value `v` has a
//!   context `σ_C(R)` entirely contained in `v`'s shard — the shard sees the
//!   whole context, so discovery, context cardinalities and skyline
//!   cardinalities all agree with the unsharded monitor;
//! * a constraint that binds `r` to a *different* value has an empty
//!   intersection with the tuple's own constraint family `C^t` and can never
//!   be emitted for the tuple in the first place;
//! * a constraint that leaves `r` unbound (including the top constraint `⊤`)
//!   has a context spread across shards, and its facts are therefore
//!   excluded from the constraint space by the `anchor`
//!   ([`crate::DiscoveryConfig::with_anchor`]) on *both* the sharded and the
//!   unsharded side — which is what makes the two provably identical.
//!
//! [`ensure_routable`] is the single entry point a sharded driver calls to
//! turn a user-supplied [`DiscoveryConfig`] into one that is consistent with
//! a routing attribute (or reject it).

use crate::config::DiscoveryConfig;
use crate::constraint::Constraint;
use crate::error::{Result, SitFactError};
use crate::schema::Schema;
use crate::value::DimValueId;

/// Whether `constraint` is sound to evaluate inside the shard that owns
/// `routing_value` on the routing attribute `routing_dim`: it must bind the
/// routing attribute to exactly that value.
pub fn is_routable(constraint: &Constraint, routing_dim: usize, routing_value: DimValueId) -> bool {
    constraint.bound_value(routing_dim) == Some(routing_value)
}

/// Validates that `config` is consistent with routing on `routing_dim` and
/// returns the anchored configuration a sharded driver must run with (on
/// every shard **and** on the unsharded reference it is compared against).
///
/// * `routing_dim` must name a dimension attribute of `schema`;
/// * if the config already carries an anchor it must be the routing
///   attribute — anchoring on a different attribute would emit facts whose
///   contexts span shards;
/// * a config without an anchor is anchored on `routing_dim` (the common
///   case: "shard by team" implies "facts must bind team");
/// * the anchor must survive the `d̂` cap: `d̂ ≥ 1` always holds
///   ([`DiscoveryConfig::validate`] rejects `d̂ = 0`), and binding the anchor
///   consumes one of the `d̂` bound attributes.
pub fn ensure_routable(
    config: DiscoveryConfig,
    schema: &Schema,
    routing_dim: usize,
) -> Result<DiscoveryConfig> {
    if routing_dim >= schema.num_dimensions() {
        return Err(SitFactError::InvalidConfig(format!(
            "routing dimension index {routing_dim} is out of range for schema `{}` with {} dimension attributes",
            schema.name(),
            schema.num_dimensions()
        )));
    }
    match config.anchor_dim {
        Some(anchor) if anchor != routing_dim => Err(SitFactError::InvalidConfig(format!(
            "discovery config is anchored on dimension {anchor} but the stream is routed on \
             dimension {routing_dim}; facts anchored off the routing attribute have contexts \
             that span shards, so sharding would change the reports"
        ))),
        _ => {
            let anchored = config.with_anchor(routing_dim);
            anchored.validate(schema)?;
            Ok(anchored)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::value::{Direction, UNBOUND};

    fn schema() -> Schema {
        SchemaBuilder::new("s")
            .dimension("player")
            .dimension("team")
            .measure("points", Direction::HigherIsBetter)
            .build()
            .unwrap()
    }

    #[test]
    fn routable_iff_bound_to_the_owning_value() {
        let c = Constraint::from_values(vec![UNBOUND, 7]);
        assert!(is_routable(&c, 1, 7));
        assert!(!is_routable(&c, 1, 8)); // bound, but to another shard's value
        assert!(!is_routable(&c, 0, 7)); // routing attribute unbound
    }

    #[test]
    fn ensure_routable_anchors_unanchored_configs() {
        let schema = schema();
        let anchored = ensure_routable(DiscoveryConfig::capped(2, 1), &schema, 1).unwrap();
        assert_eq!(anchored.anchor_dim, Some(1));
        // Idempotent when already anchored on the routing attribute.
        assert_eq!(ensure_routable(anchored, &schema, 1).unwrap(), anchored);
    }

    #[test]
    fn ensure_routable_rejects_mismatches() {
        let schema = schema();
        let anchored_elsewhere = DiscoveryConfig::unrestricted().with_anchor(0);
        assert!(ensure_routable(anchored_elsewhere, &schema, 1).is_err());
        // Routing attribute out of range.
        assert!(ensure_routable(DiscoveryConfig::unrestricted(), &schema, 2).is_err());
    }
}
