//! Algorithm 3 of the paper: the sequential-scan baseline.

use crate::common::{AlgoParams, ConstraintCache};
use crate::traits::Discovery;
use sitfact_core::{dominance, BoundMask, DiscoveryConfig, Schema, SkylinePair, Tuple, TupleId};
use sitfact_storage::{StoreStats, Table, WorkStats};

/// `BaselineSeq`: for every measure subspace, scan the whole table once;
/// whenever a historical tuple `t'` dominates the new tuple, remove every
/// constraint of `C^{t,t'}` (Proposition 3) from the candidate set. Whatever
/// constraints survive the scan are skyline constraints.
///
/// Unlike [`BruteForce`](crate::BruteForce) this exploits constraint pruning,
/// but it still pays one full scan of `R` per measure subspace per arriving
/// tuple and keeps no incremental state.
#[derive(Debug)]
pub struct BaselineSeq {
    params: AlgoParams,
    stats: WorkStats,
}

impl BaselineSeq {
    /// Creates the algorithm for a schema and discovery configuration.
    pub fn new(schema: &Schema, config: DiscoveryConfig) -> Self {
        BaselineSeq {
            params: AlgoParams::new(schema, config),
            stats: WorkStats::default(),
        }
    }
}

impl Discovery for BaselineSeq {
    fn name(&self) -> &'static str {
        "BaselineSeq"
    }

    fn discover_at(&mut self, table: &Table, t: &Tuple, t_id: TupleId) -> Vec<SkylinePair> {
        let cache = ConstraintCache::new(t, self.params.n_dims);
        let directions = &self.params.directions;
        let flag_len = self.params.lattice.flag_len();
        let mut out = Vec::new();
        let mut pruned = vec![false; flag_len];
        for &subspace in &self.params.subspaces {
            pruned.iter_mut().for_each(|p| *p = false);
            // The scan is in arrival order; stop at `t_id` so batched drivers
            // (table already extended past this arrival) see only history.
            for (_, other) in table.iter().take_while(|(id, _)| *id < t_id) {
                self.stats.comparisons += 1;
                if dominance::dominates(other, t, subspace, directions) {
                    let agreement = BoundMask::agreement(t, other);
                    // Small shortcut: if the agreement bottom is already
                    // pruned, every submask already is too.
                    if pruned[agreement.0 as usize] {
                        continue;
                    }
                    for sub in agreement.submasks() {
                        pruned[sub.0 as usize] = true;
                    }
                }
            }
            for mask in self.params.lattice.enumerate_top_down() {
                self.stats.traversed_constraints += 1;
                if !pruned[mask.0 as usize] {
                    out.push(SkylinePair::new(cache.get(mask).clone(), subspace));
                }
            }
        }
        out
    }

    fn work_stats(&self) -> WorkStats {
        self.stats
    }

    fn store_stats(&self) -> StoreStats {
        StoreStats::default()
    }

    fn can_retract(&self) -> bool {
        true
    }

    fn retract(&mut self, _table: &Table, _t_id: TupleId) -> sitfact_core::Result<()> {
        // Stateless: the per-arrival scan reads the table's live iterators,
        // which already exclude retracted rows.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::BruteForce;
    use sitfact_core::pair::canonical_sort;
    use sitfact_core::{Direction, SchemaBuilder};

    fn mini_world() -> Table {
        // Table I of the paper, restricted to 3 dimensions for brevity.
        let schema = SchemaBuilder::new("gamelog")
            .dimension("player")
            .dimension("month")
            .dimension("team")
            .measure("points", Direction::HigherIsBetter)
            .measure("assists", Direction::HigherIsBetter)
            .measure("rebounds", Direction::HigherIsBetter)
            .build()
            .unwrap();
        let mut table = Table::new(schema);
        let rows: [(&str, &str, &str, [f64; 3]); 6] = [
            ("Bogues", "Feb", "Hornets", [4.0, 12.0, 5.0]),
            ("Seikaly", "Feb", "Heat", [24.0, 5.0, 15.0]),
            ("Sherman", "Dec", "Celtics", [13.0, 13.0, 5.0]),
            ("Wesley", "Feb", "Celtics", [2.0, 5.0, 2.0]),
            ("Wesley", "Feb", "Celtics", [3.0, 5.0, 3.0]),
            ("Strickland", "Jan", "Blazers", [27.0, 18.0, 8.0]),
        ];
        for (p, m, t, meas) in rows {
            table.append_raw(&[p, m, t], meas.to_vec()).unwrap();
        }
        table
    }

    fn new_tuple(table: &mut Table) -> Tuple {
        let dims = table
            .schema_mut()
            .intern_dims(&["Wesley", "Feb", "Celtics"])
            .unwrap();
        // t7 of the paper: 12 points, 13 assists, 5 rebounds.
        Tuple::new(dims, vec![12.0, 13.0, 5.0])
    }

    #[test]
    fn agrees_with_brute_force_on_mini_world() {
        let mut table = mini_world();
        let t7 = new_tuple(&mut table);
        for config in [
            DiscoveryConfig::unrestricted(),
            DiscoveryConfig::capped(2, 2),
            DiscoveryConfig::capped(1, 3),
        ] {
            let mut reference = BruteForce::new(table.schema(), config);
            let mut subject = BaselineSeq::new(table.schema(), config);
            let mut expected = reference.discover(&table, &t7);
            let mut actual = subject.discover(&table, &t7);
            canonical_sort(&mut expected);
            canonical_sort(&mut actual);
            assert_eq!(expected, actual, "config {config:?}");
        }
    }

    #[test]
    fn month_feb_fact_from_example_1_is_found() {
        let mut table = mini_world();
        let t7 = new_tuple(&mut table);
        let mut algo = BaselineSeq::new(table.schema(), DiscoveryConfig::unrestricted());
        let facts = algo.discover(&table, &t7);
        // Example 1: with constraint month=Feb and the full measure space, t7
        // is a contextual skyline tuple.
        let schema = table.schema();
        let month_feb = sitfact_core::Constraint::parse(schema, &[("month", "Feb")]).unwrap();
        let full = sitfact_core::SubspaceMask::full(3);
        assert!(facts
            .iter()
            .any(|f| f.constraint == month_feb && f.subspace == full));
        // But with no constraint in the full space, t7 is dominated (t3/t6).
        let top = sitfact_core::Constraint::top(3);
        assert!(!facts
            .iter()
            .any(|f| f.constraint == top && f.subspace == full));
    }

    #[test]
    fn comparisons_scale_with_table_and_subspaces() {
        let mut table = mini_world();
        let t7 = new_tuple(&mut table);
        let mut algo = BaselineSeq::new(table.schema(), DiscoveryConfig::unrestricted());
        let _ = algo.discover(&table, &t7);
        // 6 historical tuples × (2^3 - 1) subspaces.
        assert_eq!(algo.work_stats().comparisons, 6 * 7);
        assert_eq!(algo.store_stats(), StoreStats::default());
    }
}
