//! The [`Discovery`] trait implemented by every algorithm, plus the
//! [`AlgorithmKind`] enumeration used by the experiment harness.

use crate::{
    BaselineIdx, BaselineSeq, BottomUp, BruteForce, CCsc, FsBottomUp, FsTopDown, SBottomUp,
    STopDown, TopDown,
};
use sitfact_core::{
    Constraint, DiscoveryConfig, Result, Schema, SitFactError, SkylinePair, SubspaceMask, Tuple,
    TupleId,
};
use sitfact_storage::{FileSkylineStore, StoreCell, StoreStats, Table, WorkStats};
use std::path::Path;

/// A situational-fact discovery algorithm.
///
/// ## Driving protocol
///
/// The caller owns the append-only [`Table`]. It appends a window of
/// arrivals first ([`Table::append_batch_slice`]; a single arrival is a
/// window of one) and then replays the arrivals in order against the
/// *already extended* table. Because rows beyond the current arrival are
/// physically present, it uses the id-explicit entry points:
///
/// 1. `algo.begin_batch(window_len)` — lets the algorithm warm caches and
///    defer per-arrival housekeeping (e.g. store flushes) to the batch end;
/// 2. for each arrival `i` with id `t_id`:
///    [`Discovery::discover_at`]`(table, t, t_id)` — the algorithm must
///    behave exactly as if the table ended just before `t_id`, and
///    [`Discovery::skyline_cardinality_at`]`(…, t_id + 1)` for ranking;
/// 3. `algo.end_batch()` — flush whatever was deferred.
///
/// The monitors drive only this protocol. The paper's per-arrival form —
/// [`Discovery::discover`] against a table holding exactly the history,
/// then `table.append(t)`, then [`Discovery::skyline_cardinality`] — stays
/// as provided methods: it is the reference the algorithm tests compare the
/// batched protocol with.
pub trait Discovery {
    /// Short, stable name used in reports (matches the paper's naming).
    fn name(&self) -> &'static str;

    /// Computes `S_t` for a tuple with an explicit id: every
    /// constraint–measure pair for which the new tuple `t` is a contextual
    /// skyline tuple against the rows that arrived *before* it, considering
    /// only constraints with at most `d̂` bound attributes and subspaces with
    /// at most `m̂` measures.
    ///
    /// `t_id` is the id the tuple occupies (or will occupy) in the table.
    /// The table may already contain rows with ids `>= t_id` (the batched
    /// protocol appends the window up front); implementations must ignore
    /// them — incremental algorithms do so naturally because their state
    /// only ever covers the arrivals already processed, while scanning
    /// baselines must bound their table scans to ids `< t_id`.
    fn discover_at(&mut self, table: &Table, t: &Tuple, t_id: TupleId) -> Vec<SkylinePair>;

    /// Computes `S_t` under the per-arrival protocol, where the table holds
    /// exactly the history and `t` will be appended next.
    fn discover(&mut self, table: &Table, t: &Tuple) -> Vec<SkylinePair> {
        self.discover_at(table, t, table.next_id())
    }

    /// Marks the start of a window of [`Discovery::discover_at`] calls.
    ///
    /// Default: no-op. Algorithms that keep per-arrival scratch (constraint
    /// caches, pruning matrices) or buffer store writes override this to keep
    /// that state warm across the window instead of resetting per arrival.
    fn begin_batch(&mut self, expected_arrivals: usize) {
        let _ = expected_arrivals;
    }

    /// Marks the end of a window started by [`Discovery::begin_batch`];
    /// deferred housekeeping (store flushes, scratch trimming) happens here.
    /// Default: no-op.
    fn end_batch(&mut self) {}

    /// Cumulative work counters (comparisons, traversed constraints, …).
    fn work_stats(&self) -> WorkStats;

    /// Storage counters of the algorithm's internal state.
    fn store_stats(&self) -> StoreStats;

    /// `|λ_M(σ_C(R_{<limit}))|` — the number of contextual skyline tuples for
    /// `(constraint, subspace)` among the rows with id `< limit`.
    ///
    /// The default implementation recomputes the skyline from the table (the
    /// ground truth, O(context²)), truncating the context at `limit` so a
    /// batch driver can rank an arrival without seeing rows that arrived
    /// after it. Algorithms that materialise skylines override it with a
    /// cheap store lookup: their store reflects exactly the arrivals
    /// processed so far, so `limit` only matters for their out-of-family
    /// fallback.
    fn skyline_cardinality_at(
        &mut self,
        table: &Table,
        constraint: &Constraint,
        subspace: SubspaceMask,
        limit: TupleId,
    ) -> usize {
        crate::common::skyline_cardinality_recompute(table, constraint, subspace, limit)
    }

    /// `|λ_M(σ_C(R))|` over the full table — the per-arrival form of
    /// [`Discovery::skyline_cardinality_at`]. Call after appending the tuple
    /// whose facts are being ranked.
    fn skyline_cardinality(
        &mut self,
        table: &Table,
        constraint: &Constraint,
        subspace: SubspaceMask,
    ) -> usize {
        self.skyline_cardinality_at(table, constraint, subspace, table.next_id())
    }

    /// Dumps the algorithm's durable state — its skyline-store cells — for a
    /// crash-recovery snapshot, or `None` when the algorithm cannot export
    /// (the default; recovery then falls back to full-log replay). Scratch
    /// state (pruning matrices, caches, work counters) is deliberately
    /// excluded: it is rebuilt per arrival and not observable through the
    /// monitor's query surface.
    ///
    /// Implemented, together with [`Discovery::import_store_cells`], by the
    /// four lattice kinds (`BottomUp`, `TopDown`, `SBottomUp`, `STopDown`)
    /// over a store backend that can dump itself — the in-memory store can,
    /// the file-backed one (`FsBottomUp`, `FsTopDown`) keeps the default.
    fn export_store_cells(&self) -> Option<Vec<StoreCell>> {
        None
    }

    /// Replaces the algorithm's durable state with previously exported
    /// cells. The default refuses, matching the default
    /// [`Discovery::export_store_cells`].
    fn import_store_cells(&mut self, cells: Vec<StoreCell>) -> Result<()> {
        let _ = cells;
        Err(SitFactError::InvalidConfig(format!(
            "algorithm {} does not support state import",
            self.name()
        )))
    }

    /// Whether [`Discovery::retract`] is implemented — asked by
    /// `FactMonitor::evict_prefix` *before* it tombstones anything, so that a
    /// refusal leaves table, counter and algorithm untouched. Refusing by
    /// default, like `retract` itself; an implementation overrides the two
    /// together.
    fn can_retract(&self) -> bool {
        false
    }

    /// Repairs the algorithm's internal state after the sliding window
    /// expires tuple `t_id`.
    ///
    /// ## Calling protocol
    ///
    /// An eviction expires a prefix of the arrival order, and the caller
    /// (`FactMonitor::evict_prefix`) runs it in this order, which the
    /// incremental implementations rely on:
    ///
    /// 1. [`Table::retract_prefix`] tombstones the **whole** prefix first, so
    ///    `table.iter()` and `table.context(…)` see only survivors during
    ///    every call below;
    /// 2. `retract` is called once per newly expired id, in **ascending**
    ///    order. `table.tuple(t_id)` still yields the expired row, for
    ///    targeted repair. The later ids of the same eviction are by then
    ///    dead in the table but still present in the algorithm's state: a
    ///    call removes only `t_id`'s own entries and leaves theirs alone,
    ///    because each of them locates the skylines it has to repair by
    ///    finding itself stored;
    /// 3. only then may [`Table::compact_retracted`] drop the rows
    ///    physically.
    ///
    /// After the last call of an eviction the state must be
    /// indistinguishable from that of an algorithm that only ever processed
    /// the surviving suffix under the same ids: where an expired tuple left
    /// contextual skylines, the region it dominated is re-promoted by
    /// recomputing them from the live context — the lattice kinds do this
    /// once per constraint for all its affected subspaces: one context, and
    /// one dominance test per compared pair; a skyline it was not in is
    /// unchanged and need not be touched. (Between the calls of one
    /// eviction the state may still hold the pending ids, and nothing reads
    /// it.)
    ///
    /// The default refuses (and [`Discovery::can_retract`] says so up front),
    /// so monitors can detect algorithms that cannot run under a sliding
    /// window: `CCsc`, and any implementation that does not override the two.
    /// The four lattice kinds over either store backend repair incrementally
    /// (one `retract` for both invariants), `BaselineIdx` deletes from its
    /// k-d tree, and the stateless scanning baselines accept trivially (they
    /// re-derive everything from the — now live-only — table).
    fn retract(&mut self, table: &Table, t_id: TupleId) -> Result<()> {
        let _ = (table, t_id);
        Err(SitFactError::InvalidConfig(format!(
            "algorithm {} does not support retraction",
            self.name()
        )))
    }
}

/// Enumeration of every implemented algorithm, used by benches and examples to
/// construct them uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// Algorithm 2 of the paper.
    BruteForce,
    /// Algorithm 3 of the paper.
    BaselineSeq,
    /// The k-d-tree baseline of Section IV.
    BaselineIdx,
    /// The per-context Compressed Skycube adaptation (Section II).
    CCsc,
    /// Algorithm 4 of the paper.
    BottomUp,
    /// Algorithm 5 of the paper.
    TopDown,
    /// BottomUp with sharing across measure subspaces (Section V-C).
    SBottomUp,
    /// Algorithm 6 of the paper.
    STopDown,
    /// SBottomUp over the file-backed store (Section VI-C).
    FsBottomUp,
    /// STopDown over the file-backed store (Section VI-C).
    FsTopDown,
}

impl AlgorithmKind {
    /// All in-memory algorithm kinds, in the order the paper introduces them.
    pub const IN_MEMORY: [AlgorithmKind; 8] = [
        AlgorithmKind::BruteForce,
        AlgorithmKind::BaselineSeq,
        AlgorithmKind::BaselineIdx,
        AlgorithmKind::CCsc,
        AlgorithmKind::BottomUp,
        AlgorithmKind::TopDown,
        AlgorithmKind::SBottomUp,
        AlgorithmKind::STopDown,
    ];

    /// Stable display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::BruteForce => "BruteForce",
            AlgorithmKind::BaselineSeq => "BaselineSeq",
            AlgorithmKind::BaselineIdx => "BaselineIdx",
            AlgorithmKind::CCsc => "C-CSC",
            AlgorithmKind::BottomUp => "BottomUp",
            AlgorithmKind::TopDown => "TopDown",
            AlgorithmKind::SBottomUp => "SBottomUp",
            AlgorithmKind::STopDown => "STopDown",
            AlgorithmKind::FsBottomUp => "FSBottomUp",
            AlgorithmKind::FsTopDown => "FSTopDown",
        }
    }

    /// Builds the algorithm of this kind behind the common trait. The
    /// file-backed kinds keep their store under `file_dir` and fail with a
    /// typed error without one (or when the directory cannot be created).
    pub fn build(
        self,
        schema: &Schema,
        config: DiscoveryConfig,
        file_dir: Option<&Path>,
    ) -> Result<Box<dyn Discovery>> {
        let file_store = || {
            let dir = file_dir.ok_or_else(|| {
                SitFactError::InvalidConfig(format!("{self} needs a store directory"))
            })?;
            Ok::<_, SitFactError>(FileSkylineStore::new(dir)?)
        };
        Ok(match self {
            AlgorithmKind::BruteForce => Box::new(BruteForce::new(schema, config)),
            AlgorithmKind::BaselineSeq => Box::new(BaselineSeq::new(schema, config)),
            AlgorithmKind::BaselineIdx => Box::new(BaselineIdx::new(schema, config)),
            AlgorithmKind::CCsc => Box::new(CCsc::new(schema, config)),
            AlgorithmKind::BottomUp => Box::new(BottomUp::new(schema, config)),
            AlgorithmKind::TopDown => Box::new(TopDown::new(schema, config)),
            AlgorithmKind::SBottomUp => Box::new(SBottomUp::new(schema, config)),
            AlgorithmKind::STopDown => Box::new(STopDown::new(schema, config)),
            AlgorithmKind::FsBottomUp => {
                Box::new(FsBottomUp::with_store(schema, config, file_store()?))
            }
            AlgorithmKind::FsTopDown => {
                Box::new(FsTopDown::with_store(schema, config, file_store()?))
            }
        })
    }

    /// Whether the algorithm keeps skyline state that grows with the stream
    /// (false only for the stateless baselines that re-derive everything from
    /// the table).
    pub fn is_incremental(self) -> bool {
        !matches!(self, AlgorithmKind::BruteForce | AlgorithmKind::BaselineSeq)
    }
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = AlgorithmKind::IN_MEMORY.iter().map(|k| k.name()).collect();
        names.push(AlgorithmKind::FsBottomUp.name());
        names.push(AlgorithmKind::FsTopDown.name());
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }

    #[test]
    fn statefulness_classification() {
        assert!(!AlgorithmKind::BruteForce.is_incremental());
        assert!(!AlgorithmKind::BaselineSeq.is_incremental());
        assert!(AlgorithmKind::BaselineIdx.is_incremental());
        assert!(AlgorithmKind::BottomUp.is_incremental());
        assert!(AlgorithmKind::FsTopDown.is_incremental());
    }

    #[test]
    fn build_constructs_every_kind_and_types_the_missing_directory() {
        use sitfact_core::{Direction, SchemaBuilder};
        let schema = SchemaBuilder::new("s")
            .dimension("d")
            .measure("m", Direction::HigherIsBetter)
            .build()
            .unwrap();
        let config = DiscoveryConfig::unrestricted();
        for kind in AlgorithmKind::IN_MEMORY {
            let algo = kind.build(&schema, config, None).unwrap();
            assert_eq!(algo.name(), kind.name());
        }
        let dir = std::env::temp_dir().join(format!("sitfact-build-{}", std::process::id()));
        for (kind, twin) in [
            (AlgorithmKind::FsBottomUp, AlgorithmKind::SBottomUp),
            (AlgorithmKind::FsTopDown, AlgorithmKind::STopDown),
        ] {
            let refused = kind.build(&schema, config, None).err();
            assert!(matches!(refused, Some(SitFactError::InvalidConfig(_))));
            let algo = kind.build(&schema, config, Some(&dir)).unwrap();
            assert_eq!(algo.name(), twin.name());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(AlgorithmKind::STopDown.to_string(), "STopDown");
    }
}
