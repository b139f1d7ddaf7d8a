//! The k-d-tree baseline of Section IV (`BaselineIdx`).

use crate::common::{AlgoParams, ConstraintCache};
use crate::traits::Discovery;
use sitfact_core::{dominance, BoundMask, DiscoveryConfig, Schema, SkylinePair, Tuple, TupleId};
use sitfact_storage::{KdTree, StoreStats, Table, WorkStats};

/// `BaselineIdx`: like [`BaselineSeq`](crate::BaselineSeq), but instead of
/// scanning the whole table per subspace, the tuples able to dominate the new
/// tuple are retrieved with a one-sided range query
/// `⋀_{m_i ∈ M} (m_i ≥ t.m_i)` over a k-d tree on the full measure space.
///
/// The tree is maintained incrementally (each processed tuple is inserted
/// after its facts are discovered), making this the simplest incremental
/// competitor in the paper's evaluation.
#[derive(Debug)]
pub struct BaselineIdx {
    params: AlgoParams,
    tree: KdTree,
    stats: WorkStats,
    /// Number of arrivals processed so far — the id the next arrival must
    /// carry. Monotone even under retraction (expired tuples leave the tree
    /// but were still processed), unlike `tree.len()`.
    processed: TupleId,
}

impl BaselineIdx {
    /// Creates the algorithm for a schema and discovery configuration.
    pub fn new(schema: &Schema, config: DiscoveryConfig) -> Self {
        let params = AlgoParams::new(schema, config);
        let tree = KdTree::new(&params.directions);
        BaselineIdx {
            params,
            tree,
            stats: WorkStats::default(),
            processed: 0,
        }
    }
}

impl Discovery for BaselineIdx {
    fn name(&self) -> &'static str {
        "BaselineIdx"
    }

    fn discover_at(&mut self, table: &Table, t: &Tuple, t_id: TupleId) -> Vec<SkylinePair> {
        // The tree holds exactly the live arrivals processed so far, which is
        // what keeps this correct under the batched protocol: even if the
        // table was already extended past `t_id`, the range query can only
        // return ids the tree has seen — the tuple's true history.
        debug_assert_eq!(
            self.processed, t_id,
            "BaselineIdx must see every tuple exactly once"
        );
        let cache = ConstraintCache::new(t, self.params.n_dims);
        let directions = &self.params.directions;
        let flag_len = self.params.lattice.flag_len();
        let mut out = Vec::new();
        let mut pruned = vec![false; flag_len];
        for &subspace in &self.params.subspaces {
            pruned.iter_mut().for_each(|p| *p = false);
            // Candidates: at least as good as t on every attribute of the
            // subspace. Only a strictness check remains.
            let candidates = self.tree.candidates_at_least(t, subspace);
            self.stats.store_reads += 1;
            for id in candidates {
                let other = table.tuple(id);
                self.stats.comparisons += 1;
                if dominance::dominates(other, t, subspace, directions) {
                    let agreement = BoundMask::agreement(t, other);
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
        // The new tuple becomes part of the index for future arrivals.
        self.tree.insert(t_id, t);
        self.stats.store_writes += 1;
        self.processed = t_id + 1;
        out
    }

    fn can_retract(&self) -> bool {
        true
    }

    fn retract(&mut self, table: &Table, t_id: TupleId) -> sitfact_core::Result<()> {
        // The expired row is tombstoned but still physically present, so its
        // measures can steer the tree descent.
        if self.tree.remove(t_id, table.tuple(t_id)) {
            self.stats.store_writes += 1;
            Ok(())
        } else {
            Err(sitfact_core::SitFactError::InvalidTuple(format!(
                "BaselineIdx asked to retract tuple {t_id}, which its index never saw"
            )))
        }
    }

    fn work_stats(&self) -> WorkStats {
        self.stats
    }

    fn store_stats(&self) -> StoreStats {
        StoreStats {
            stored_entries: self.tree.len() as u64,
            non_empty_cells: if self.tree.is_empty() { 0 } else { 1 },
            approx_bytes: self.tree.approx_heap_bytes() as u64,
            file_reads: 0,
            file_writes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::BruteForce;
    use sitfact_core::pair::canonical_sort;
    use sitfact_core::{Direction, SchemaBuilder};

    fn schema() -> Schema {
        SchemaBuilder::new("s")
            .dimension("d1")
            .dimension("d2")
            .dimension("d3")
            .measure("m1", Direction::HigherIsBetter)
            .measure("m2", Direction::LowerIsBetter)
            .measure("m3", Direction::HigherIsBetter)
            .build()
            .unwrap()
    }

    /// Streams random tuples through both BaselineIdx (incremental) and
    /// BruteForce (stateless), asserting identical fact sets at each step.
    #[test]
    fn agrees_with_brute_force_over_a_stream() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        let schema = schema();
        let mut table = Table::new(schema.clone());
        let config = DiscoveryConfig::unrestricted();
        let mut subject = BaselineIdx::new(&schema, config);
        let mut reference = BruteForce::new(&schema, config);
        for _ in 0..60 {
            let dims = vec![
                rng.gen_range(0..3u32),
                rng.gen_range(0..2u32),
                rng.gen_range(0..3u32),
            ];
            let measures = vec![
                rng.gen_range(0..6) as f64,
                rng.gen_range(0..6) as f64,
                rng.gen_range(0..6) as f64,
            ];
            let t = Tuple::new(dims, measures);
            let mut expected = reference.discover(&table, &t);
            let mut actual = subject.discover(&table, &t);
            canonical_sort(&mut expected);
            canonical_sort(&mut actual);
            assert_eq!(expected, actual, "diverged at tuple {}", table.len());
            table.append(t).unwrap();
        }
        assert_eq!(subject.tree.len(), 60);
    }

    /// After a prefix retraction, the tree answers from survivors only and
    /// the stateless oracle (whose table scans are live-only) still agrees.
    #[test]
    fn retraction_keeps_agreement_with_brute_force() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(17);
        let schema = schema();
        let config = DiscoveryConfig::unrestricted();
        let random_tuple = |rng: &mut StdRng| {
            let dims = vec![
                rng.gen_range(0..3u32),
                rng.gen_range(0..2u32),
                rng.gen_range(0..3u32),
            ];
            let measures = vec![
                rng.gen_range(0..6) as f64,
                rng.gen_range(0..6) as f64,
                rng.gen_range(0..6) as f64,
            ];
            Tuple::new(dims, measures)
        };
        let mut table = Table::new(schema.clone());
        let mut subject = BaselineIdx::new(&schema, config);
        let mut reference = BruteForce::new(&schema, config);
        for _ in 0..40 {
            let t = random_tuple(&mut rng);
            let _ = subject.discover(&table, &t);
            let _ = reference.discover(&table, &t);
            table.append(t).unwrap();
        }
        table.retract_prefix(15);
        for id in 0..15u32 {
            subject.retract(&table, id).unwrap();
            reference.retract(&table, id).unwrap();
        }
        // Double retraction is an error, not a panic: the tombstoned row is
        // still physically readable, but the tree no longer holds its id.
        assert!(subject.retract(&table, 5).is_err());
        table.compact_retracted();
        assert_eq!(subject.tree.len(), 25);
        for _ in 0..15 {
            let t = random_tuple(&mut rng);
            let mut expected = reference.discover(&table, &t);
            let mut actual = subject.discover(&table, &t);
            canonical_sort(&mut expected);
            canonical_sort(&mut actual);
            assert_eq!(expected, actual, "diverged at tuple {}", table.len());
            table.append(t).unwrap();
        }
    }

    #[test]
    fn store_stats_track_tree_growth() {
        let schema = schema();
        let mut table = Table::new(schema.clone());
        let mut algo = BaselineIdx::new(&schema, DiscoveryConfig::unrestricted());
        assert_eq!(algo.store_stats().stored_entries, 0);
        for i in 0..5 {
            let t = Tuple::new(vec![0, 0, 0], vec![i as f64, 1.0, 2.0]);
            let _ = algo.discover(&table, &t);
            table.append(t).unwrap();
        }
        let stats = algo.store_stats();
        assert_eq!(stats.stored_entries, 5);
        assert!(stats.approx_bytes > 0);
        assert!(algo.work_stats().comparisons > 0);
    }
}
