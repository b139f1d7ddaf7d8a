//! `C-CSC`: the per-context Compressed Skycube adaptation the paper compares
//! against (Section II, evaluated in Section VI).
//!
//! The Compressed Skycube of Xia & Zhang (SIGMOD 2006) stores each tuple only
//! in its **minimal skyline subspaces**: the measure subspaces in which the
//! tuple is a skyline tuple but no proper subspace of which keeps it in the
//! skyline. Because the CSC knows nothing about contexts, adapting it to
//! situational-fact discovery means maintaining **one CSC per context** ever
//! observed and, when a tuple arrives, querying the CSC of every context the
//! tuple satisfies for every measure subspace — exactly the overkill the paper
//! describes, which is why C-CSC sits between the baselines and the lattice
//! algorithms in the evaluation.

use crate::common::{partition_measures, AlgoParams, ConstraintCache};
use crate::traits::Discovery;
use sitfact_core::{
    Constraint, Direction, DiscoveryConfig, FxHashMap, Schema, SkylinePair, SubspaceMask, Tuple,
    TupleId,
};
use sitfact_storage::{StoreStats, Table, WorkStats};

/// Compressed Skycube of a single context: tuple ids keyed by the minimal
/// skyline subspaces they are stored under (their measures are the table's).
#[derive(Debug, Default)]
struct ContextCsc {
    stored: FxHashMap<SubspaceMask, Vec<TupleId>>,
}

impl ContextCsc {
    fn entry_count(&self) -> u64 {
        self.stored.values().map(|v| v.len() as u64).sum()
    }

    fn all_entries(&self) -> impl Iterator<Item = (SubspaceMask, TupleId)> + '_ {
        self.stored
            .iter()
            .flat_map(|(&s, ids)| ids.iter().map(move |&id| (s, id)))
    }

    fn remove_everywhere(&mut self, id: TupleId) {
        self.stored.retain(|_, ids| {
            ids.retain(|&e| e != id);
            !ids.is_empty()
        });
    }

    fn insert(&mut self, subspace: SubspaceMask, id: TupleId) {
        self.stored.entry(subspace).or_default().push(id);
    }
}

/// Given the measure vector of a tuple and the measure vectors of the other
/// tuples of its context, returns for every family subspace whether the tuple
/// is dominated there (`true` = dominated). One partition per other tuple
/// (Proposition 4) answers all subspaces at once.
fn dominated_profile<'a>(
    measures: &[f64],
    others: impl Iterator<Item = &'a [f64]>,
    family: &[SubspaceMask],
    directions: &[Direction],
    n_measures: usize,
    comparisons: &mut u64,
) -> Vec<bool> {
    let mut dominated = vec![false; 1usize << n_measures];
    for other in others {
        *comparisons += 1;
        let (better, worse) = partition_measures(measures, other, directions);
        if worse.is_empty() {
            // The other tuple is nowhere strictly better: it cannot dominate
            // this one in any subspace.
            continue;
        }
        for &s in family {
            if !dominated[s.0 as usize] && crate::common::dominated_in(better, worse, s) {
                dominated[s.0 as usize] = true;
            }
        }
    }
    dominated
}

/// The minimal elements (by set inclusion) of the non-dominated family
/// subspaces.
fn minimal_skyline_subspaces(dominated: &[bool], family: &[SubspaceMask]) -> Vec<SubspaceMask> {
    let mut in_set = vec![false; dominated.len()];
    for &s in family {
        if !dominated[s.0 as usize] {
            in_set[s.0 as usize] = true;
        }
    }
    family
        .iter()
        .copied()
        .filter(|&s| in_set[s.0 as usize])
        .filter(|&s| {
            s.subsets()
                .into_iter()
                .filter(|&sub| sub != s)
                .all(|sub| !in_set.get(sub.0 as usize).copied().unwrap_or(false))
        })
        .collect()
}

/// `C-CSC`: one Compressed Skycube per observed context.
#[derive(Debug)]
pub struct CCsc {
    params: AlgoParams,
    contexts: FxHashMap<Constraint, ContextCsc>,
    stats: WorkStats,
}

impl CCsc {
    /// Creates the algorithm for a schema and discovery configuration.
    pub fn new(schema: &Schema, config: DiscoveryConfig) -> Self {
        CCsc {
            params: AlgoParams::new(schema, config),
            contexts: FxHashMap::default(),
            stats: WorkStats::default(),
        }
    }
}

impl Discovery for CCsc {
    fn name(&self) -> &'static str {
        "C-CSC"
    }

    fn discover_at(&mut self, table: &Table, t: &Tuple, t_id: TupleId) -> Vec<SkylinePair> {
        let measures = |id: TupleId| table.tuple(id).measures();
        let cache = ConstraintCache::new(t, self.params.n_dims);
        let directions = self.params.directions.clone();
        let family = self.params.subspaces.clone();
        let n_measures = self.params.n_measures;
        let mut out = Vec::new();

        for mask in self.params.lattice.enumerate_top_down() {
            self.stats.traversed_constraints += 1;
            let constraint = cache.get(mask);
            let csc = self.contexts.entry(constraint.clone()).or_default();
            self.stats.store_reads += 1;

            // 1. Dominance profile of the new tuple against the whole CSC of
            //    this context (every stored tuple is a context member, and any
            //    context member able to dominate in some subspace is stored).
            let dominated = dominated_profile(
                t.measures(),
                csc.all_entries().map(|(_, id)| measures(id)),
                &family,
                &directions,
                n_measures,
                &mut self.stats.comparisons,
            );

            // 2. Report the subspaces in which t enters the contextual skyline.
            for &s in &family {
                if !dominated[s.0 as usize] {
                    out.push(SkylinePair::new(constraint.clone(), s));
                }
            }

            // 3. Demote stored tuples that t dominates in a subspace they are
            //    stored under: their minimal skyline subspaces must be
            //    recomputed against the context including t.
            let mut demoted: Vec<TupleId> = Vec::new();
            // Snapshot of every distinct stored tuple *before* demotion —
            // demoted tuples are still context members and must keep acting
            // as potential dominators when each other's subspaces are
            // recomputed.
            let mut candidates: Vec<TupleId> = Vec::new();
            for (sub, id) in csc.all_entries() {
                if !candidates.contains(&id) {
                    candidates.push(id);
                }
                let (better, worse) = partition_measures(t.measures(), measures(id), &directions);
                self.stats.comparisons += 1;
                let t_dominates_here =
                    !sub.intersect(better).is_empty() && sub.intersect(worse).is_empty();
                if t_dominates_here && !demoted.contains(&id) {
                    demoted.push(id);
                }
            }
            for &id in &demoted {
                csc.remove_everywhere(id);
                self.stats.store_writes += 1;
            }
            for &id in &demoted {
                // Recompute the demoted tuple's skyline profile against every
                // other context candidate (stored or just demoted) plus the
                // new tuple.
                let others = candidates
                    .iter()
                    .filter(|&&other| other != id)
                    .map(|&other| measures(other))
                    .chain(std::iter::once(t.measures()));
                let profile = dominated_profile(
                    measures(id),
                    others,
                    &family,
                    &directions,
                    n_measures,
                    &mut self.stats.comparisons,
                );
                for s in minimal_skyline_subspaces(&profile, &family) {
                    csc.insert(s, id);
                    self.stats.store_writes += 1;
                }
            }

            // 4. Store the new tuple at its minimal skyline subspaces.
            for s in minimal_skyline_subspaces(&dominated, &family) {
                csc.insert(s, t_id);
                self.stats.store_writes += 1;
            }
        }
        out
    }

    fn work_stats(&self) -> WorkStats {
        self.stats
    }

    fn store_stats(&self) -> StoreStats {
        let mut stored_entries = 0u64;
        let mut non_empty_cells = 0u64;
        let mut bytes = 0u64;
        #[expect(
            clippy::iter_over_hash_type,
            reason = "the loop only sums, and integer sums do not depend on the order"
        )]
        for (constraint, csc) in &self.contexts {
            let entries = csc.entry_count();
            stored_entries += entries;
            non_empty_cells += csc.stored.len() as u64;
            bytes += (constraint.num_dims() * 4 + 48) as u64;
            bytes += entries * std::mem::size_of::<TupleId>() as u64;
        }
        StoreStats {
            stored_entries,
            non_empty_cells,
            approx_bytes: bytes,
            file_reads: 0,
            file_writes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::BruteForce;
    use sitfact_core::dominance;
    use sitfact_core::pair::canonical_sort;
    use sitfact_core::{Direction, SchemaBuilder};

    fn schema(m: usize) -> Schema {
        let mut b = SchemaBuilder::new("s")
            .dimension("d1")
            .dimension("d2")
            .dimension("d3");
        for i in 0..m {
            let dir = if i == 1 {
                Direction::LowerIsBetter
            } else {
                Direction::HigherIsBetter
            };
            b = b.measure(format!("m{i}"), dir);
        }
        b.build().unwrap()
    }

    #[test]
    fn minimal_subspace_helper() {
        // Family over 2 measures; suppose the tuple is dominated only in {m0}.
        let family = SubspaceMask::enumerate(2, 2);
        let mut dominated = vec![false; 4];
        dominated[0b01] = true;
        let minimal = minimal_skyline_subspaces(&dominated, &family);
        // Non-dominated: {m1}, {m0,m1}; minimal: {m1} only.
        assert_eq!(minimal, vec![SubspaceMask(0b10)]);
        // Nothing dominated -> the two singletons are the minimal subspaces.
        let minimal = minimal_skyline_subspaces(&[false; 4], &family);
        assert_eq!(minimal, vec![SubspaceMask(0b01), SubspaceMask(0b10)]);
        // Everything dominated -> stored nowhere.
        let minimal = minimal_skyline_subspaces(&[true; 4], &family);
        assert!(minimal.is_empty());
    }

    fn random_stream_check(m: usize, config: DiscoveryConfig, steps: usize, seed: u64) {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = schema(m);
        let mut table = Table::new(schema.clone());
        let mut subject = CCsc::new(&schema, config);
        let mut reference = BruteForce::new(&schema, config);
        for _ in 0..steps {
            let dims = vec![
                rng.gen_range(0..3u32),
                rng.gen_range(0..2u32),
                rng.gen_range(0..3u32),
            ];
            let measures = (0..m).map(|_| rng.gen_range(0..5) as f64).collect();
            let t = Tuple::new(dims, measures);
            let mut expected = reference.discover(&table, &t);
            let mut actual = subject.discover(&table, &t);
            canonical_sort(&mut expected);
            canonical_sort(&mut actual);
            assert_eq!(expected, actual, "diverged at tuple {}", table.len());
            table.append(t).unwrap();
        }
    }

    #[test]
    fn agrees_with_brute_force_two_measures() {
        random_stream_check(2, DiscoveryConfig::unrestricted(), 60, 307);
    }

    #[test]
    fn agrees_with_brute_force_three_measures() {
        random_stream_check(3, DiscoveryConfig::unrestricted(), 45, 311);
    }

    #[test]
    fn agrees_with_brute_force_with_caps() {
        random_stream_check(3, DiscoveryConfig::capped(2, 2), 45, 313);
    }

    /// The compressed-storage property: every stored (subspace, tuple) pair is
    /// a *minimal* skyline subspace of that tuple within its context.
    #[test]
    fn stores_only_minimal_skyline_subspaces() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(317);
        let schema = schema(2);
        let mut table = Table::new(schema.clone());
        let mut algo = CCsc::new(&schema, DiscoveryConfig::unrestricted());
        for _ in 0..60 {
            let dims = vec![
                rng.gen_range(0..2u32),
                rng.gen_range(0..2u32),
                rng.gen_range(0..2u32),
            ];
            let measures = vec![rng.gen_range(0..4) as f64, rng.gen_range(0..4) as f64];
            let t = Tuple::new(dims, measures);
            let _ = algo.discover(&table, &t);
            table.append(t).unwrap();
        }
        let directions = table.schema().directions().to_vec();
        let family = SubspaceMask::enumerate(2, 2);
        #[expect(
            clippy::iter_over_hash_type,
            reason = "every context is asserted alike: the verdict does not depend on the order"
        )]
        for (constraint, csc) in &algo.contexts {
            for (subspace, stored) in csc.all_entries() {
                // The tuple must be in the skyline of this subspace …
                let sky = dominance::skyline_of(table.context(constraint), subspace, &directions);
                assert!(
                    sky.iter().any(|(id, _)| *id == stored),
                    "tuple {stored} stored at non-skyline subspace {subspace:?} of {constraint:?}"
                );
                // … and in no proper subspace of it.
                let proper = |s: &&SubspaceMask| **s != subspace && s.is_subset_of(subspace);
                for sub in family.iter().filter(proper) {
                    let sky = dominance::skyline_of(table.context(constraint), *sub, &directions);
                    assert!(
                        !sky.iter().any(|(id, _)| *id == stored),
                        "subspace {subspace:?} is not minimal for tuple {stored}"
                    );
                }
            }
        }
    }

    #[test]
    fn stats_and_contexts_grow() {
        let schema = schema(2);
        let mut table = Table::new(schema.clone());
        let mut algo = CCsc::new(&schema, DiscoveryConfig::unrestricted());
        for i in 0..10u32 {
            let t = Tuple::new(vec![i % 2, i % 3, 0], vec![i as f64, (10 - i) as f64]);
            let _ = algo.discover(&table, &t);
            table.append(t).unwrap();
        }
        assert!(algo.store_stats().stored_entries > 0);
        assert!(algo.work_stats().comparisons > 0);
        assert!(algo.contexts.len() > 1);
        assert_eq!(algo.name(), "C-CSC");
    }
}
