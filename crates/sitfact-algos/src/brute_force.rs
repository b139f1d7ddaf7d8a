//! Algorithm 2 of the paper: the brute-force reference.

use crate::common::{AlgoParams, ConstraintCache};
use crate::traits::Discovery;
use sitfact_core::{dominance, DiscoveryConfig, Schema, SkylinePair, Tuple, TupleId};
use sitfact_storage::{StoreStats, Table, WorkStats};

/// Brute-force discovery: for every measure subspace and every constraint
/// satisfied by the new tuple, compare the tuple against **every** historical
/// tuple.
///
/// Exponentially many constraint–measure pairs times a full table scan makes
/// this unusable beyond toy sizes, but it is the unambiguous ground truth the
/// equivalence tests of every other algorithm are written against.
#[derive(Debug)]
pub struct BruteForce {
    params: AlgoParams,
    stats: WorkStats,
}

impl BruteForce {
    /// Creates the algorithm for a schema and discovery configuration.
    pub fn new(schema: &Schema, config: DiscoveryConfig) -> Self {
        BruteForce {
            params: AlgoParams::new(schema, config),
            stats: WorkStats::default(),
        }
    }
}

impl Discovery for BruteForce {
    fn name(&self) -> &'static str {
        "BruteForce"
    }

    fn discover_at(&mut self, table: &Table, t: &Tuple, t_id: TupleId) -> Vec<SkylinePair> {
        let cache = ConstraintCache::new(t, self.params.n_dims);
        let directions = &self.params.directions;
        let mut out = Vec::new();
        for &subspace in &self.params.subspaces {
            for mask in self.params.lattice.enumerate_top_down() {
                self.stats.traversed_constraints += 1;
                let constraint = cache.get(mask);
                let mut pruned = false;
                // Rows are scanned in arrival order, so stopping at `t_id`
                // restricts the comparison to the tuple's true history even
                // when a batch driver has already appended later rows.
                for (_, other) in table.iter().take_while(|(id, _)| *id < t_id) {
                    self.stats.comparisons += 1;
                    if constraint.matches(other)
                        && dominance::dominates(other, t, subspace, directions)
                    {
                        pruned = true;
                        break;
                    }
                }
                if !pruned {
                    out.push(SkylinePair::new(constraint.clone(), subspace));
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
        // Stateless: every discovery re-derives its answer from the table,
        // whose iterators already skip retracted rows — oracle-exact under a
        // sliding window with no repair work at all.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitfact_core::{Constraint, Direction, SchemaBuilder, SubspaceMask, UNBOUND};

    /// Builds the running-example table of the paper (Table IV) with tuples
    /// t1..t4 as history.
    fn running_example() -> (Table, Tuple) {
        let schema = SchemaBuilder::new("running")
            .dimension("d1")
            .dimension("d2")
            .dimension("d3")
            .measure("m1", Direction::HigherIsBetter)
            .measure("m2", Direction::HigherIsBetter)
            .build()
            .unwrap();
        let mut table = Table::new(schema);
        table
            .append_raw(&["a1", "b2", "c2"], vec![10.0, 15.0])
            .unwrap(); // t1
        table
            .append_raw(&["a1", "b1", "c1"], vec![15.0, 10.0])
            .unwrap(); // t2
        table
            .append_raw(&["a2", "b1", "c2"], vec![17.0, 17.0])
            .unwrap(); // t3
        table
            .append_raw(&["a2", "b1", "c1"], vec![20.0, 20.0])
            .unwrap(); // t4
                       // t5 = (a1, b1, c1, 11, 15) is the new arrival of the paper's examples.
        let dims = table.schema_mut().intern_dims(&["a1", "b1", "c1"]).unwrap();
        let t5 = Tuple::new(dims, vec![11.0, 15.0]);
        (table, t5)
    }

    #[test]
    fn matches_paper_example_7_full_space() {
        let (table, t5) = running_example();
        let mut algo = BruteForce::new(table.schema(), DiscoveryConfig::unrestricted());
        let facts = algo.discover(&table, &t5);
        let full = SubspaceMask::full(2);
        // In the full space {m1, m2}, t5 enters the skylines of
        // ⟨a1,b1,c1⟩, ⟨a1,b1,*⟩, ⟨a1,*,c1⟩ and ⟨a1,*,*⟩ (Fig. 3b) but not of
        // ⟨*,b1,c1⟩ or ⊤ (dominated by t4).
        let schema = table.schema();
        let a1 = schema.dictionary(0).lookup("a1").unwrap();
        let b1 = schema.dictionary(1).lookup("b1").unwrap();
        let c1 = schema.dictionary(2).lookup("c1").unwrap();
        let expect_in = [
            Constraint::from_values(vec![a1, b1, c1]),
            Constraint::from_values(vec![a1, b1, UNBOUND]),
            Constraint::from_values(vec![a1, UNBOUND, c1]),
            Constraint::from_values(vec![a1, UNBOUND, UNBOUND]),
        ];
        let expect_out = [
            Constraint::from_values(vec![UNBOUND, b1, c1]),
            Constraint::top(3),
        ];
        for c in &expect_in {
            assert!(
                facts
                    .iter()
                    .any(|f| f.subspace == full && &f.constraint == c),
                "missing {c:?}"
            );
        }
        for c in &expect_out {
            assert!(
                !facts
                    .iter()
                    .any(|f| f.subspace == full && &f.constraint == c),
                "unexpected {c:?}"
            );
        }
    }

    #[test]
    fn matches_paper_example_10_single_measures() {
        let (table, t5) = running_example();
        let mut algo = BruteForce::new(table.schema(), DiscoveryConfig::unrestricted());
        let facts = algo.discover(&table, &t5);
        // In {m1}, t5 (=11) is dominated by t2 (=15) which shares every
        // dimension value, so t5 has no skyline constraint at all.
        let m1 = SubspaceMask::singleton(0);
        assert!(facts.iter().all(|f| f.subspace != m1));
        // In {m2}, t5 (=15) ties t1 and is dominated by none within a1
        // contexts; its skyline constraints include ⟨a1,*,*⟩.
        let m2 = SubspaceMask::singleton(1);
        let schema = table.schema();
        let a1 = schema.dictionary(0).lookup("a1").unwrap();
        let expected = Constraint::from_values(vec![a1, UNBOUND, UNBOUND]);
        assert!(facts
            .iter()
            .any(|f| f.subspace == m2 && f.constraint == expected));
    }

    #[test]
    fn empty_history_makes_every_pair_a_fact() {
        let (table, t5) = running_example();
        let empty = Table::new(table.schema().clone());
        let mut algo = BruteForce::new(table.schema(), DiscoveryConfig::unrestricted());
        let facts = algo.discover(&empty, &t5);
        // 2^3 constraints × 3 subspaces.
        assert_eq!(facts.len(), 8 * 3);
    }

    #[test]
    fn caps_restrict_reported_pairs() {
        let (table, t5) = running_example();
        let mut algo = BruteForce::new(table.schema(), DiscoveryConfig::capped(1, 1));
        let facts = algo.discover(&table, &t5);
        assert!(facts.iter().all(|f| f.constraint.bound_count() <= 1));
        assert!(facts.iter().all(|f| f.subspace.len() == 1));
    }

    #[test]
    fn stats_accumulate() {
        let (table, t5) = running_example();
        let mut algo = BruteForce::new(table.schema(), DiscoveryConfig::unrestricted());
        let _ = algo.discover(&table, &t5);
        let stats = algo.work_stats();
        assert!(stats.comparisons > 0);
        assert!(stats.traversed_constraints > 0);
        assert_eq!(algo.store_stats(), StoreStats::default());
        assert_eq!(algo.name(), "BruteForce");
    }
}
