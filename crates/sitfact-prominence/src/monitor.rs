//! The [`FactMonitor`]: turn a stream of tuples into ranked situational facts.

use crate::fact::{ArrivalReport, RankedFact};
use sitfact_algos::Discovery;
use sitfact_core::{
    DiscoveryConfig, RawRow, Result, Schema, SitFactError, SkylinePair, Tuple, TupleId, TupleRef,
};
use sitfact_storage::{wal, ContextCounter, PostingIndexStats, Table, WalStats};

/// Configuration of a [`FactMonitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// The `d̂` / `m̂` caps forwarded to the discovery algorithm.
    pub discovery: DiscoveryConfig,
    /// Prominence threshold `τ`: a fact is *prominent* only if its prominence
    /// is at least this value (and is maximal among the arrival's facts).
    /// Must be finite and non-negative (see [`MonitorConfig::validate`]).
    pub tau: f64,
    /// Retain at most this many ranked facts per arrival in the report. The
    /// maximum prominence and `prominent_count` stay exact, but a fact whose
    /// context size already rules it out of the retained ones is never
    /// evaluated (see `FactMonitor::rank_arrival`). `None` keeps all;
    /// `Some(0)` is rejected (it would silently discard every report's facts
    /// — use a larger cap or `None`).
    pub keep_top: Option<usize>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            discovery: DiscoveryConfig::unrestricted(),
            tau: 1.0,
            keep_top: None,
        }
    }
}

impl MonitorConfig {
    /// The configuration of the paper's case study: `d̂ = 3`, `m̂ = 3`,
    /// `τ = 500`.
    pub fn case_study() -> Self {
        MonitorConfig {
            discovery: DiscoveryConfig::capped(3, 3),
            tau: 500.0,
            keep_top: Some(32),
        }
    }

    /// Builder-style setter for `τ`.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is NaN, infinite or negative — a NaN threshold would
    /// make every `max ≥ τ` comparison silently false, reporting *nothing*
    /// forever, so it is rejected at construction instead.
    pub fn with_tau(mut self, tau: f64) -> Self {
        assert!(
            tau.is_finite() && tau >= 0.0,
            "MonitorConfig::with_tau: τ must be finite and non-negative, got {tau}"
        );
        self.tau = tau;
        self
    }

    /// Builder-style setter for the discovery caps.
    pub fn with_discovery(mut self, discovery: DiscoveryConfig) -> Self {
        self.discovery = discovery;
        self
    }

    /// Builder-style setter for the per-arrival fact retention limit.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is zero: a monitor that drops every fact it ranks is
    /// never what a caller meant (pass a positive cap, or leave the limit
    /// unset to keep all facts).
    pub fn with_keep_top(mut self, keep: usize) -> Self {
        assert!(
            keep > 0,
            "MonitorConfig::with_keep_top: the retention cap must be positive \
             (omit the cap to keep every fact)"
        );
        self.keep_top = Some(keep);
        self
    }

    /// Checks the invariants the builders enforce, for configurations
    /// assembled field-by-field: `τ` finite and non-negative, `keep_top`
    /// positive when set. Monitor constructors call this, so an invalid
    /// config is rejected before it can silently swallow reports.
    pub fn validate(&self) -> Result<()> {
        if !self.tau.is_finite() || self.tau < 0.0 {
            return Err(SitFactError::InvalidConfig(format!(
                "prominence threshold τ must be finite and non-negative, got {}",
                self.tau
            )));
        }
        if self.keep_top == Some(0) {
            return Err(SitFactError::InvalidConfig(
                "keep_top = 0 would drop every ranked fact; use None to keep all".into(),
            ));
        }
        Ok(())
    }
}

/// A monitor's counters as plain owned values — the record a server
/// publishes after every ingest, so `STATS` reads never touch the ingest
/// path. An [`ArrivalPipeline`](crate::ArrivalPipeline) adds its log's.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorStats {
    /// Number of tuples ingested so far.
    pub len: usize,
    /// The schema's relation name.
    pub schema_name: String,
    /// The prominence threshold τ.
    pub tau: f64,
    /// Per-arrival fact-retention cap, if configured.
    pub keep_top: Option<usize>,
    /// Anchored dimension index, if the discovery config carries one.
    pub anchor_dim: Option<usize>,
    /// Posting-index footprint (a sharded monitor sums its shards).
    pub postings: PostingIndexStats,
    /// Write-ahead-log counters (all zero without a logged pipeline).
    pub wal: WalStats,
    /// Tuples still answering queries (`len` minus everything retracted).
    pub live_rows: usize,
    /// Retracted tuples still physically present (awaiting compaction).
    pub tombstones: usize,
    /// Retracted tuples physically dropped by compaction.
    pub evicted: usize,
}

impl MonitorStats {
    /// The record of a monitor with no index, no log and no retraction path:
    /// identity fields filled in, every row live, every counter zero.
    pub fn new(schema: &Schema, config: &MonitorConfig, len: usize) -> Self {
        MonitorStats {
            len,
            schema_name: schema.name().to_string(),
            tau: config.tau,
            keep_top: config.keep_top,
            anchor_dim: config.discovery.anchor_dim,
            postings: PostingIndexStats::default(),
            wal: WalStats::default(),
            live_rows: len,
            tombstones: 0,
            evicted: 0,
        }
    }
}

/// The one result of a window of one (its tuple, or its report).
pub(crate) fn sole<T>(mut window: Vec<T>) -> Result<T> {
    window
        .pop()
        .ok_or_else(|| SitFactError::Io("a window of one produced nothing".to_string()))
}

/// Owns the table, the context-cardinality counter and a discovery algorithm,
/// and produces one [`ArrivalReport`] per ingested tuple.
///
/// ```
/// use sitfact_core::{Direction, SchemaBuilder, DiscoveryConfig};
/// use sitfact_algos::SBottomUp;
/// use sitfact_prominence::{FactMonitor, MonitorConfig};
///
/// let schema = SchemaBuilder::new("gamelog")
///     .dimension("player").dimension("team")
///     .measure("points", Direction::HigherIsBetter)
///     .measure("assists", Direction::HigherIsBetter)
///     .build().unwrap();
/// let algo = SBottomUp::new(&schema, DiscoveryConfig::unrestricted());
/// let mut monitor = FactMonitor::new(schema, algo, MonitorConfig::default().with_tau(2.0));
/// monitor.ingest_raw(&["Wesley", "Celtics"], vec![12.0, 13.0]).unwrap();
/// let report = monitor.ingest_raw(&["Sherman", "Celtics"], vec![13.0, 5.0]).unwrap();
/// assert!(!report.facts.is_empty());
/// ```
#[derive(Debug)]
pub struct FactMonitor<A: Discovery> {
    table: Table,
    counter: ContextCounter,
    algorithm: A,
    config: MonitorConfig,
}

impl<A: Discovery> FactMonitor<A> {
    /// Creates a monitor over an empty table.
    ///
    /// # Panics
    ///
    /// Panics if `config` violates [`MonitorConfig::validate`] (NaN or
    /// negative `τ`, zero `keep_top`) — the builders reject these up front,
    /// so only field-by-field construction can reach this.
    pub fn new(schema: Schema, algorithm: A, config: MonitorConfig) -> Self {
        #[expect(
            clippy::panic,
            reason = "documented panic; builders validate configs before this"
        )]
        if let Err(err) = config.validate() {
            panic!("FactMonitor::new: {err}");
        }
        let d_hat = config.discovery.effective_d_hat(&schema);
        let counter = ContextCounter::new(schema.num_dimensions(), d_hat);
        FactMonitor {
            table: Table::new(schema),
            counter,
            algorithm,
            config,
        }
    }

    /// Like [`FactMonitor::new`], but over an empty table whose id space
    /// starts at `base` (see [`Table::with_base`]): tuple ids `0..base` are
    /// considered already evicted. This is the constructor the windowed ≡
    /// rebuilt-from-scratch equivalence tests use — a fresh monitor fed only
    /// a window's survivors produces reports with the *same* tuple ids as the
    /// long-running monitor that evicted its way there.
    pub fn with_base(schema: Schema, algorithm: A, config: MonitorConfig, base: TupleId) -> Self {
        let mut monitor = FactMonitor::new(schema, algorithm, config);
        monitor.table = Table::with_base(monitor.table.schema().clone(), base);
        monitor
    }

    /// The underlying table (read access).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The underlying algorithm (read access, e.g. for statistics).
    pub fn algorithm(&self) -> &A {
        &self.algorithm
    }

    /// Deep structural self-check; see [`sitfact_core::audit::Audit`].
    pub fn audit(&self) -> std::result::Result<(), sitfact_core::AuditViolation> {
        sitfact_core::Audit::check(self)
    }

    /// Drops the pairs excluded by the config's anchor restriction (no-op for
    /// unanchored configs). Runs before ranking so excluded facts never pay
    /// the context/skyline cardinality lookups.
    fn apply_anchor(&self, pairs: &mut Vec<SkylinePair>) {
        if self.config.discovery.anchor_dim.is_some() {
            pairs.retain(|p| self.config.discovery.admits(&p.constraint));
        }
    }

    /// Ranks an arrival's discovered pairs by prominence. `tuple_id` is the
    /// arrival's id, the tuple the counter observed last (the caller
    /// observes it right before); context and skyline cardinalities are
    /// evaluated over the rows up to and including it (`limit = tuple_id +
    /// 1`), even though later rows of the window are already appended.
    ///
    /// Bound-and-prune top-k: a fact's skyline holds at least the arrival, so
    /// its prominence `|σ_C(R)| / |λ_M(σ_C(R))|` never exceeds its context
    /// size, and context sizes cost no lookup at all: the counter recorded
    /// them per bound mask when it observed the arrival, just before. The
    /// pairs are visited by descending context size while the `keep_top` best
    /// prominences seen so far are tracked; once the next context size is
    /// *strictly* below the `keep_top`-th best, every remaining pair has
    /// `prominence ≤ context size < keep_top-th best ≤ maximum` — it can
    /// neither enter the retained facts nor tie the maximum — and its
    /// skyline cardinality is never computed. Without a `keep_top` there is
    /// no bar: every pair is evaluated, in the order discovery emitted them.
    ///
    /// A skyline cardinality reads up to `2^d̂` store cells, but the facts of
    /// one arrival share them: a maximal-constraint store reads each cell of
    /// `C^t` at most once per arrival (see the `sitfact-algos` `lattice`
    /// module), so evaluating every fact costs about what the cells hold.
    /// Each prominence is then computed once, and the facts sorted by it.
    fn rank_arrival(&mut self, tuple_id: TupleId, pairs: Vec<SkylinePair>) -> ArrivalReport {
        let limit = tuple_id + 1;
        let keep_top = self.config.keep_top;
        let counter = &self.counter;
        let context_size = |pair: &SkylinePair| {
            let observed = counter.last_observed(pair.constraint.bound_mask());
            debug_assert_eq!(observed, counter.cardinality(&pair.constraint));
            observed
        };
        let mut candidates: Vec<(u64, SkylinePair)> = pairs
            .into_iter()
            .map(|pair| (context_size(&pair), pair))
            .collect();
        if keep_top.is_some() {
            candidates.sort_by_key(|(context_size, _)| std::cmp::Reverse(*context_size));
        }
        // The `keep_top` best prominences seen so far, descending.
        let mut best: Vec<f64> = Vec::new();
        // Every evaluated fact with its prominence.
        let mut facts: Vec<(f64, RankedFact)> = Vec::new();
        for (context_size, pair) in candidates {
            if let Some(keep) = keep_top {
                if best.len() == keep && (context_size as f64) < best[keep - 1] {
                    break;
                }
            }
            let skyline_size = self.algorithm.skyline_cardinality_at(
                &self.table,
                &pair.constraint,
                pair.subspace,
                limit,
            ) as u64;
            let fact = RankedFact {
                pair,
                context_size,
                skyline_size,
            };
            let prominence = fact.prominence();
            if let Some(keep) = keep_top {
                let at = best.partition_point(|&seen| seen >= prominence);
                if at < keep {
                    best.insert(at, prominence);
                    best.truncate(keep);
                }
            }
            facts.push((prominence, fact));
        }
        // Canonical total order (not just descending prominence): the report
        // is then fully determined by the fact *set*, independent of the
        // algorithm's emission order — so `keep_top` truncation at a
        // prominence tie is deterministic, and a sharded monitor's reports
        // are byte-identical to the unsharded reference's. Facts that
        // compare equal are equal, so the unstable sort is deterministic.
        facts.sort_unstable_by(RankedFact::ranking_cmp_keyed);
        let max = facts.first().map_or(0.0, |&(prominence, _)| prominence);
        let prominent_count = if max >= self.config.tau {
            facts
                .iter()
                .take_while(|(prominence, _)| (prominence - max).abs() < f64::EPSILON)
                .count()
        } else {
            0
        };
        if let Some(keep) = keep_top {
            facts.truncate(keep.max(prominent_count));
        }
        // A fresh exact-size vector: collecting in place would keep the
        // allocation of every evaluated fact in the report.
        let mut kept = Vec::with_capacity(facts.len());
        kept.extend(facts.into_iter().map(|(_, fact)| fact));
        ArrivalReport {
            tuple_id,
            facts: kept,
            prominent_count,
        }
    }
}

impl<A: Discovery> FactMonitor<A> {
    /// The schema the monitor ingests against (grows as raw rows intern new
    /// dimension values).
    pub fn schema(&self) -> &Schema {
        self.table.schema()
    }

    /// The schema, for encoding raw rows against it.
    pub(crate) fn schema_mut(&mut self) -> &mut Schema {
        self.table.schema_mut()
    }

    /// The monitor configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Number of tuples ingested so far.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether no tuple was ingested yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Zero-copy view of a live tuple by its id, if there is one.
    pub fn tuple(&self, tuple_id: TupleId) -> Option<TupleRef<'_>> {
        // Live rows only: a retracted id resolves to `None`, exactly like an
        // id that was never ingested.
        self.table.get(tuple_id)
    }

    /// Retracts every tuple below the watermark target `up_to`: the rows are
    /// tombstoned in the table, forgotten by the context counter, and
    /// retracted from the algorithm's skyline store ([`Discovery::retract`]),
    /// so subsequent reports are those of a monitor that only ever saw the
    /// survivors. Tombstones are physically dropped
    /// ([`Table::compact_retracted`]) once they outnumber the live rows —
    /// the classic amortized-halving schedule, keeping memory proportional
    /// to the live window.
    ///
    /// An algorithm that cannot retract ([`Discovery::can_retract`]) makes
    /// this an `Err` before anything is touched: table, counter and
    /// algorithm stay as they were.
    pub fn evict_prefix(&mut self, up_to: TupleId) -> Result<usize> {
        if !self.algorithm.can_retract() {
            return Err(SitFactError::InvalidConfig(format!(
                "algorithm {} does not support retraction",
                self.algorithm.name()
            )));
        }
        let start = self.table.watermark();
        let newly = self.table.retract_prefix(up_to as usize);
        for id in start..start + newly as TupleId {
            self.counter.forget(self.table.tuple(id));
            self.algorithm.retract(&self.table, id)?;
        }
        if newly > 0 && self.table.tombstone_rows() >= self.table.live_rows() {
            self.table.compact_retracted();
        }
        Ok(newly)
    }

    /// Validates a raw row against the schema, then interns it
    /// ([`Schema::encode_rows`]), without ingesting — the encoding half of
    /// [`FactMonitor::ingest_raw`], for callers assembling a window for
    /// [`FactMonitor::ingest_batch_slice`].
    pub fn encode_raw(&mut self, dims: &[impl AsRef<str>], measures: Vec<f64>) -> Result<Tuple> {
        let row = RawRow::new(dims, &measures);
        sole(self.schema_mut().encode_rows(&[row])?)
    }

    /// Ingests one already-encoded tuple as a window of one
    /// ([`FactMonitor::ingest_batch_slice`]) and returns its report.
    pub fn ingest(&mut self, tuple: Tuple) -> Result<ArrivalReport> {
        sole(self.ingest_batch_slice(std::slice::from_ref(&tuple))?)
    }

    /// Ingests a window of arrivals — the one way an arrival enters the
    /// monitor — and returns one report per tuple, in order: exactly what
    /// the paper's per-arrival protocol (discover against the history, then
    /// append) would produce. The window is all-or-nothing: if any tuple
    /// fails validation, no tuple of it is ingested.
    ///
    /// The window is appended to the table **once**
    /// ([`Table::append_batch_slice`] validates, grows the columns and
    /// maintains the posting lists), then each arrival is discovered and
    /// ranked against its true time-ordered prefix: arrival `i` sees only
    /// rows `< i` — the discovery algorithm receives the arrival's explicit
    /// id ([`Discovery::discover_at`]) and the ranking truncates any table
    /// recomputation at that id, even though later rows of the window are
    /// already physically present.
    ///
    /// When the discovery config carries an anchor
    /// ([`DiscoveryConfig::with_anchor`]), facts whose constraint does not
    /// bind the anchored attribute are dropped *before* ranking — the
    /// constraint space a sharded monitor is provably equivalent over (see
    /// `sitfact_core::routing`) — so they never pay the cardinality lookups
    /// either.
    pub fn ingest_batch_slice(&mut self, tuples: &[Tuple]) -> Result<Vec<ArrivalReport>> {
        if tuples.is_empty() {
            return Ok(Vec::new());
        }
        let first = self.table.next_id();
        self.table.append_batch_slice(tuples)?;
        self.algorithm.begin_batch(tuples.len());
        let mut reports = Vec::with_capacity(tuples.len());
        for (i, tuple) in tuples.iter().enumerate() {
            let tuple_id = first + i as TupleId;
            let mut pairs = self.algorithm.discover_at(&self.table, tuple, tuple_id);
            self.apply_anchor(&mut pairs);
            // The appended row is observed through a zero-copy view.
            self.counter.observe(self.table.tuple(tuple_id));
            reports.push(self.rank_arrival(tuple_id, pairs));
        }
        self.algorithm.end_batch();
        Ok(reports)
    }

    /// Ingests a tuple given as raw dimension strings plus measures.
    pub fn ingest_raw(
        &mut self,
        dims: &[impl AsRef<str>],
        measures: Vec<f64>,
    ) -> Result<ArrivalReport> {
        let tuple = self.encode_raw(dims, measures)?;
        self.ingest(tuple)
    }

    /// The monitor's counters as one owned record.
    pub fn stats(&self) -> MonitorStats {
        MonitorStats {
            postings: self.table.posting_index_stats(),
            live_rows: self.table.live_rows(),
            tombstones: self.table.tombstone_rows(),
            evicted: self.table.evicted_rows(),
            ..MonitorStats::new(self.table.schema(), &self.config, self.table.len())
        }
    }

    /// Serializes the full monitor state when the algorithm can export its
    /// skyline store (see [`Discovery::export_store_cells`]): the table —
    /// schema dictionaries and columns — then the store cells. The context
    /// counter and the table's posting index are deliberately not
    /// serialized: they are denormalized state, rebuilt from the table on
    /// restore (exactly as the deep audits' ground-truth recomputations
    /// do). `None` when the algorithm cannot export its store; `Err` when a
    /// string or count is too long for its `u32` length prefix.
    pub fn export_durable(&self) -> Result<Option<Vec<u8>>> {
        let Some(cells) = self.algorithm.export_store_cells() else {
            return Ok(None);
        };
        let mut out = Vec::new();
        wal::encode_table(&self.table, &mut out)?;
        wal::encode_cells(&cells, &mut out)?;
        Ok(Some(out))
    }

    /// Replaces the monitor's state with a snapshot produced by
    /// [`FactMonitor::export_durable`]; `Err` when the snapshot is corrupt,
    /// shaped for another relation, or the algorithm refuses the import —
    /// the monitor is untouched then (all-or-nothing).
    pub fn restore_durable(&mut self, snapshot: &[u8]) -> Result<()> {
        let mut cur = wal::ByteCursor::new(snapshot);
        let (table, cells) = wal::decode_state(&mut cur)?;
        if !cur.is_empty() {
            return Err(SitFactError::Parse(format!(
                "monitor snapshot has {} trailing bytes",
                cur.remaining()
            )));
        }
        // The snapshot must be shaped for this monitor: same relation name,
        // dimension attributes and measure attributes (with directions).
        // Dictionary *contents* may of course differ — that is the state
        // being restored.
        let (current, decoded) = (self.table.schema(), table.schema());
        let measures_match = decoded.measures().len() == current.measures().len()
            && decoded
                .measures()
                .iter()
                .zip(current.measures())
                .all(|(a, b)| a.name == b.name && a.direction == b.direction);
        if decoded.name() != current.name()
            || decoded.dimension_names() != current.dimension_names()
            || !measures_match
        {
            return Err(SitFactError::Parse(format!(
                "monitor snapshot is shaped for relation {:?}, not {:?}",
                decoded.name(),
                current.name()
            )));
        }
        // The algorithm import happens first: if it refuses (an algorithm
        // without state import), the monitor is left untouched and the
        // caller falls back to replaying the full log.
        self.algorithm.import_store_cells(cells)?;
        let mut counter = ContextCounter::new(
            decoded.num_dimensions(),
            self.config.discovery.effective_d_hat(table.schema()),
        );
        counter.observe_batch(table.iter().map(|(_, view)| view));
        self.counter = counter;
        self.table = table;
        Ok(())
    }
}

/// Re-derives the monitor's denormalized state from the table: a fresh
/// [`ContextCounter`] rebuilt from the rows must agree with the incrementally
/// maintained one entry-for-entry (same constraints, same cardinalities),
/// after the table passes its own deep audit.
impl<A: Discovery> sitfact_core::Audit for FactMonitor<A> {
    fn check(&self) -> std::result::Result<(), sitfact_core::AuditViolation> {
        use sitfact_core::AuditViolation;
        let fail = |invariant: &'static str, detail: String| {
            Err(AuditViolation::new("FactMonitor", invariant, detail))
        };
        self.table.audit()?;
        if self.counter.observed_tuples() != self.table.live_rows() as u64 {
            return fail(
                "counter-observed-len",
                format!(
                    "counter observed {} tuples, table holds {} live rows",
                    self.counter.observed_tuples(),
                    self.table.live_rows()
                ),
            );
        }
        let schema = self.table.schema();
        let mut rebuilt = ContextCounter::new(
            schema.num_dimensions(),
            self.config.discovery.effective_d_hat(schema),
        );
        rebuilt.observe_batch(self.table.iter().map(|(_, view)| view));
        if rebuilt.tracked_constraints() != self.counter.tracked_constraints() {
            return fail(
                "counter-rebuildable",
                format!(
                    "counter tracks {} constraints, a rebuild from the table tracks {}",
                    self.counter.tracked_constraints(),
                    rebuilt.tracked_constraints()
                ),
            );
        }
        for (constraint, count) in self.counter.iter_counts() {
            let truth = rebuilt.cardinality(constraint);
            if truth != count {
                return fail(
                    "counter-rebuildable",
                    format!(
                        "counter says |σ_{constraint:?}| = {count}, rebuilding from the \
                         table gives {truth}"
                    ),
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitfact_algos::{BottomUp, SBottomUp, STopDown};
    use sitfact_core::{Direction, SchemaBuilder};

    fn schema() -> Schema {
        SchemaBuilder::new("gamelog")
            .dimension("player")
            .dimension("team")
            .measure("points", Direction::HigherIsBetter)
            .measure("assists", Direction::HigherIsBetter)
            .build()
            .unwrap()
    }

    #[test]
    fn first_tuple_is_maximally_prominent_everywhere() {
        let schema = schema();
        let algo = SBottomUp::new(&schema, DiscoveryConfig::unrestricted());
        let mut monitor = FactMonitor::new(schema, algo, MonitorConfig::default());
        let report = monitor
            .ingest_raw(&["Wesley", "Celtics"], vec![10.0, 5.0])
            .unwrap();
        // 4 constraints × 3 subspaces, all with context = skyline = 1.
        assert_eq!(report.facts.len(), 12);
        assert!(report.facts.iter().all(|f| f.prominence() == 1.0));
        assert_eq!(report.prominent_count, 12);
    }

    #[test]
    fn prominence_matches_hand_computation() {
        let schema = schema();
        let algo = SBottomUp::new(&schema, DiscoveryConfig::unrestricted());
        let mut monitor = FactMonitor::new(schema, algo, MonitorConfig::default().with_tau(2.0));
        monitor.ingest_raw(&["A", "X"], vec![10.0, 1.0]).unwrap();
        monitor.ingest_raw(&["B", "X"], vec![8.0, 2.0]).unwrap();
        monitor.ingest_raw(&["C", "X"], vec![6.0, 3.0]).unwrap();
        // The fourth tuple tops everyone on both measures within team X.
        let report = monitor.ingest_raw(&["D", "X"], vec![12.0, 4.0]).unwrap();
        // Constraint team=X, full space: context 4 tuples, skyline {D} -> 4.
        let team_x = sitfact_core::Constraint::parse(monitor.schema(), &[("team", "X")]).unwrap();
        let full = sitfact_core::SubspaceMask::full(2);
        let fact = report
            .facts
            .iter()
            .find(|f| f.pair.constraint == team_x && f.pair.subspace == full)
            .expect("fact for (team=X, full space)");
        assert_eq!(fact.context_size, 4);
        assert_eq!(fact.skyline_size, 1);
        assert_eq!(fact.prominence(), 4.0);
        // That is also the maximal prominence, and 4 ≥ τ=2, so it is prominent.
        assert!(report.prominent_count >= 1);
        assert_eq!(report.max_prominence(), Some(4.0));
    }

    #[test]
    fn threshold_filters_prominent_facts() {
        let schema = schema();
        let algo = BottomUp::new(&schema, DiscoveryConfig::unrestricted());
        let mut monitor = FactMonitor::new(schema, algo, MonitorConfig::default().with_tau(1000.0));
        monitor.ingest_raw(&["A", "X"], vec![1.0, 1.0]).unwrap();
        let report = monitor.ingest_raw(&["B", "X"], vec![2.0, 2.0]).unwrap();
        // Max prominence is 2 (context {A,B}, skyline {B}), far below τ=1000.
        assert_eq!(report.prominent_count, 0);
        assert!(report.max_prominence().unwrap() <= 2.0);
    }

    #[test]
    fn keep_top_truncates_but_preserves_prominent() {
        let schema = schema();
        let algo = STopDown::new(&schema, DiscoveryConfig::unrestricted());
        let mut monitor = FactMonitor::new(
            schema,
            algo,
            MonitorConfig::default().with_tau(1.0).with_keep_top(2),
        );
        monitor.ingest_raw(&["A", "X"], vec![1.0, 5.0]).unwrap();
        let report = monitor.ingest_raw(&["B", "Y"], vec![5.0, 1.0]).unwrap();
        assert!(report.facts.len() >= 2);
        assert!(report.facts.len() <= report.prominent_count.max(2));
    }

    /// `STopDown` behind a counter of `skyline_cardinality_at` calls.
    struct CountingCalls {
        inner: STopDown,
        calls: usize,
    }

    impl Discovery for CountingCalls {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn discover_at(&mut self, table: &Table, t: &Tuple, t_id: TupleId) -> Vec<SkylinePair> {
            self.inner.discover_at(table, t, t_id)
        }
        fn work_stats(&self) -> sitfact_storage::WorkStats {
            self.inner.work_stats()
        }
        fn store_stats(&self) -> sitfact_storage::StoreStats {
            self.inner.store_stats()
        }
        fn skyline_cardinality_at(
            &mut self,
            table: &Table,
            constraint: &sitfact_core::Constraint,
            subspace: sitfact_core::SubspaceMask,
            limit: TupleId,
        ) -> usize {
            self.calls += 1;
            self.inner
                .skyline_cardinality_at(table, constraint, subspace, limit)
        }
    }

    #[test]
    fn keep_top_prunes_skyline_evaluations_but_not_the_report() {
        let schema = schema();
        let counting = |config: MonitorConfig| {
            let inner = STopDown::new(&schema, config.discovery);
            FactMonitor::new(schema.clone(), CountingCalls { inner, calls: 0 }, config)
        };
        let keep = 2;
        let mut full = counting(MonitorConfig::default().with_tau(2.0));
        let mut pruned = counting(MonitorConfig::default().with_tau(2.0).with_keep_top(keep));
        let mut pairs = 0;
        // Ever better rows of ever new players on one team: each arrival's
        // facts under ⊤ and team=X have the whole table as context, those
        // binding the player a context of one.
        for i in 0..12 {
            let (player, measures) = (format!("p{i}"), vec![i as f64, i as f64]);
            let all = full.ingest_raw(&[&player, "X"], measures.clone()).unwrap();
            let top = pruned.ingest_raw(&[&player, "X"], measures).unwrap();
            pairs += all.facts.len();
            assert_eq!(top.prominent_count, all.prominent_count);
            assert_eq!(top.facts, all.facts[..keep.max(all.prominent_count)]);
        }
        assert_eq!(full.algorithm().calls, pairs);
        assert!(
            pruned.algorithm().calls < pairs,
            "{} calls for {pairs} pairs",
            pruned.algorithm().calls
        );
    }

    #[test]
    fn reports_agree_across_algorithms() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(99);
        let schema = schema();
        let config = MonitorConfig::default().with_tau(2.0);
        let mut bu = FactMonitor::new(
            schema.clone(),
            SBottomUp::new(&schema, config.discovery),
            config,
        );
        let mut td = FactMonitor::new(
            schema.clone(),
            STopDown::new(&schema, config.discovery),
            config,
        );
        for _ in 0..60 {
            let dims = vec![rng.gen_range(0..4u32), rng.gen_range(0..3u32)];
            let measures = vec![rng.gen_range(0..6) as f64, rng.gen_range(0..6) as f64];
            let a = bu
                .ingest(Tuple::new(dims.clone(), measures.clone()))
                .unwrap();
            let b = td.ingest(Tuple::new(dims, measures)).unwrap();
            // Same fact count, same maximum prominence, same prominent count —
            // regardless of the storage scheme underneath.
            assert_eq!(a.facts.len(), b.facts.len());
            assert_eq!(a.prominent_count, b.prominent_count);
            match (a.max_prominence(), b.max_prominence()) {
                (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9),
                (x, y) => assert_eq!(x.is_none(), y.is_none()),
            }
        }
    }

    #[test]
    fn ingest_batch_equals_sequential_ingest() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(271);
        let schema = schema();
        let config = MonitorConfig::default().with_tau(2.0).with_keep_top(16);
        let mut sequential = FactMonitor::new(
            schema.clone(),
            STopDown::new(&schema, config.discovery),
            config,
        );
        let mut batched = FactMonitor::new(
            schema.clone(),
            STopDown::new(&schema, config.discovery),
            config,
        );
        // Several windows of varying size, so batches compose across calls.
        for window_len in [1usize, 7, 20, 3] {
            let window: Vec<Tuple> = (0..window_len)
                .map(|_| {
                    Tuple::new(
                        vec![rng.gen_range(0..4u32), rng.gen_range(0..3u32)],
                        vec![rng.gen_range(0..6) as f64, rng.gen_range(0..6) as f64],
                    )
                })
                .collect();
            let expected = window
                .clone()
                .into_iter()
                .map(|t| sequential.ingest(t))
                .collect::<Result<Vec<_>>>()
                .unwrap();
            let actual = batched.ingest_batch_slice(&window).unwrap();
            // Identical reports: ids, fact order, cardinalities, counts.
            assert_eq!(actual, expected);
        }
        assert_eq!(batched.len(), sequential.len());
    }

    #[test]
    fn ingest_batch_is_atomic_and_empty_safe() {
        let schema = schema();
        let algo = SBottomUp::new(&schema, DiscoveryConfig::unrestricted());
        let mut monitor = FactMonitor::new(schema, algo, MonitorConfig::default());
        assert!(monitor.ingest_batch_slice(&[]).unwrap().is_empty());
        monitor.ingest_raw(&["A", "X"], vec![1.0, 1.0]).unwrap();
        let window = vec![
            Tuple::new(vec![0, 0], vec![2.0, 2.0]),
            Tuple::new(vec![0], vec![3.0, 3.0]), // bad arity
        ];
        assert!(monitor.ingest_batch_slice(&window).is_err());
        // The invalid window left no trace.
        assert_eq!(monitor.len(), 1);
        let report = monitor.ingest_raw(&["B", "X"], vec![2.0, 2.0]).unwrap();
        assert_eq!(report.tuple_id, 1);
    }

    #[test]
    fn ingest_batch_empty_window_is_noop() {
        let schema = schema();
        let algo = SBottomUp::new(&schema, DiscoveryConfig::unrestricted());
        let mut monitor = FactMonitor::new(schema, algo, MonitorConfig::default());
        monitor.ingest_raw(&["A", "X"], vec![1.0, 1.0]).unwrap();
        let len_before = monitor.len();
        let reports = monitor.ingest_batch_slice(&[]).unwrap();
        assert!(reports.is_empty());
        // A true no-op: nothing appended, nothing observed, and the returned
        // vec is the unallocated `Vec::new()` (capacity 0), so an idle feed
        // polling with empty windows costs nothing.
        assert_eq!(reports.capacity(), 0);
        assert_eq!(monitor.len(), len_before);
        let reports = monitor.ingest_batch_slice(&[]).unwrap();
        assert!(reports.is_empty() && reports.capacity() == 0);
        // The next arrival gets the id it would have had without the empty
        // windows in between.
        let report = monitor.ingest_raw(&["B", "X"], vec![2.0, 2.0]).unwrap();
        assert_eq!(report.tuple_id, 1);
    }

    #[test]
    fn evict_prefix_matches_a_monitor_fed_only_survivors() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(431);
        let schema = schema();
        let config = MonitorConfig::default().with_tau(2.0);
        let random_tuple = |rng: &mut StdRng| {
            Tuple::new(
                vec![rng.gen_range(0..4u32), rng.gen_range(0..3u32)],
                vec![rng.gen_range(0..6) as f64, rng.gen_range(0..6) as f64],
            )
        };
        let mut windowed = FactMonitor::new(
            schema.clone(),
            STopDown::new(&schema, config.discovery),
            config,
        );
        let tuples: Vec<Tuple> = (0..48).map(|_| random_tuple(&mut rng)).collect();
        windowed.ingest_batch_slice(&tuples).unwrap();
        assert_eq!(windowed.evict_prefix(20).unwrap(), 20);
        // Watermark targets are monotone: re-evicting is a no-op.
        assert_eq!(windowed.evict_prefix(20).unwrap(), 0);
        assert_eq!(windowed.stats().live_rows, 28);
        assert_eq!(windowed.len(), 48);
        assert!(windowed.tuple(5).is_none(), "retracted ids resolve to None");
        assert!(windowed.tuple(25).is_some());
        windowed.audit().unwrap();
        // A fresh monitor over the surviving suffix, id space aligned.
        let mut rebuilt = FactMonitor::with_base(
            schema.clone(),
            STopDown::new(&schema, config.discovery),
            config,
            20,
        );
        rebuilt.ingest_batch_slice(&tuples[20..]).unwrap();
        // Subsequent arrivals produce byte-identical reports on both.
        for _ in 0..10 {
            let t = random_tuple(&mut rng);
            let a = windowed.ingest(t.clone()).unwrap();
            let b = rebuilt.ingest(t).unwrap();
            assert_eq!(a, b);
        }
        // Evicting past the halfway point triggers physical compaction.
        windowed.evict_prefix(40).unwrap();
        assert_eq!(windowed.stats().evicted, 40);
        assert_eq!(windowed.stats().tombstones, 0);
        windowed.audit().unwrap();
    }

    /// A refused eviction is decided before the table is tombstoned: the
    /// monitor is the one it was, and goes on as one that never tried.
    #[test]
    fn refused_eviction_leaves_the_monitor_untouched() {
        use rand::prelude::*;
        use sitfact_algos::CCsc;
        let mut rng = StdRng::seed_from_u64(433);
        let schema = schema();
        let config = MonitorConfig::default().with_tau(1.0);
        let fresh =
            || FactMonitor::new(schema.clone(), CCsc::new(&schema, config.discovery), config);
        let (mut tried, mut never) = (fresh(), fresh());
        let tuples: Vec<Tuple> = (0..20)
            .map(|_| {
                Tuple::new(
                    vec![rng.gen_range(0..4u32), rng.gen_range(0..3u32)],
                    vec![rng.gen_range(0..6) as f64, rng.gen_range(0..6) as f64],
                )
            })
            .collect();
        tried.ingest_batch_slice(&tuples[..10]).unwrap();
        never.ingest_batch_slice(&tuples[..10]).unwrap();
        let refused = tried.evict_prefix(5).unwrap_err();
        assert!(
            matches!(refused, SitFactError::InvalidConfig(_)),
            "{refused}"
        );
        tried.audit().unwrap();
        assert_eq!((tried.stats().live_rows, tried.len()), (10, 10));
        assert!(tried.tuple(0).is_some());
        for t in &tuples[10..] {
            assert_eq!(
                tried.ingest(t.clone()).unwrap(),
                never.ingest(t.clone()).unwrap()
            );
        }
        tried.audit().unwrap();
    }

    #[test]
    fn anchored_config_reports_only_anchored_facts() {
        let schema = schema();
        let discovery = DiscoveryConfig::unrestricted().with_anchor(1); // team
        let config = MonitorConfig::default()
            .with_discovery(discovery)
            .with_tau(1.0);
        let algo = STopDown::new(&schema, discovery);
        let mut anchored = FactMonitor::new(schema.clone(), algo, config);
        let algo = STopDown::new(&schema, DiscoveryConfig::unrestricted());
        let mut unanchored =
            FactMonitor::new(schema.clone(), algo, MonitorConfig::default().with_tau(1.0));
        let rows: [(&[&str; 2], [f64; 2]); 4] = [
            (&["A", "X"], [10.0, 1.0]),
            (&["B", "Y"], [8.0, 2.0]),
            (&["A", "Y"], [6.0, 3.0]),
            (&["C", "X"], [12.0, 4.0]),
        ];
        for (dims, measures) in rows {
            let got = anchored.ingest_raw(dims, measures.to_vec()).unwrap();
            let all = unanchored.ingest_raw(dims, measures.to_vec()).unwrap();
            // Every reported fact binds the anchored attribute …
            assert!(
                got.facts.iter().all(|f| f.pair.constraint.binds(1)),
                "unanchored fact leaked"
            );
            // … and the anchored report is exactly the unanchored one with
            // the non-binding facts removed (same order, same cardinalities).
            let expected: Vec<_> = all
                .facts
                .iter()
                .filter(|f| f.pair.constraint.binds(1))
                .cloned()
                .collect();
            assert_eq!(got.facts, expected);
        }
    }

    #[test]
    fn encode_raw_interns_without_ingesting() {
        let schema = schema();
        let algo = SBottomUp::new(&schema, DiscoveryConfig::unrestricted());
        let mut monitor = FactMonitor::new(schema, algo, MonitorConfig::default());
        let t = monitor
            .encode_raw(&["Wesley", "Celtics"], vec![1.0, 2.0])
            .unwrap();
        assert_eq!(monitor.len(), 0);
        assert!(monitor.is_empty());
        assert!(monitor.encode_raw(&["Wesley"], vec![1.0, 2.0]).is_err());
        let reports = monitor.ingest_batch_slice(&[t]).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(monitor.len(), 1);
    }

    /// Feeds one accepted row, then refused windows of one — a `NaN` or
    /// infinite measure, a measure too few, a dimension too few, each with
    /// values never seen — through `encode`, which returns whether the row
    /// was accepted and the dictionary lengths after it.
    fn refuses_without_interning(
        path: &str,
        mut encode: impl FnMut(&[&str], Vec<f64>) -> (bool, [usize; 2]),
    ) {
        assert_eq!(
            encode(&["Wesley", "Celtics"], vec![1.0, 2.0]),
            (true, [1, 1]),
            "{path}"
        );
        let refused: [(&[&str], Vec<f64>); 4] = [
            (&["Ghost", "Nets"], vec![f64::NAN, 1.0]),
            (&["Ghost", "Nets"], vec![1.0, f64::INFINITY]),
            (&["Ghost", "Nets"], vec![1.0]),
            (&["Ghost"], vec![1.0, 1.0]),
        ];
        for (dims, measures) in refused {
            let case = format!("{path}: {dims:?} {measures:?}");
            assert_eq!(encode(dims, measures), (false, [1, 1]), "{case}");
        }
    }

    /// Every raw-row path validates before it interns: a refused window
    /// leaves every dictionary's length unchanged, through the schema, the
    /// table and both monitors.
    #[test]
    fn a_refused_window_leaves_every_dictionary_unchanged() {
        use crate::sharded::ShardedMonitor;
        use sitfact_storage::Table;
        let lens = |schema: &Schema| [schema.dictionary(0).len(), schema.dictionary(1).len()];
        let mut bare = schema();
        refuses_without_interning("Schema::encode_rows", |dims, measures| {
            let ok = bare.encode_rows(&[RawRow::new(dims, &measures)]).is_ok();
            (ok, lens(&bare))
        });
        let mut table = Table::new(schema());
        refuses_without_interning("Table::append_raw", |dims, measures| {
            let ok = table.append_raw(dims, measures).is_ok();
            (ok, lens(table.schema()))
        });
        let config = MonitorConfig::default();
        let algo = STopDown::new(&schema(), config.discovery);
        let mut plain = FactMonitor::new(schema(), algo, config);
        refuses_without_interning("FactMonitor::encode_raw", |dims, measures| {
            let ok = plain.encode_raw(dims, measures).is_ok();
            (ok, lens(plain.schema()))
        });
        let mut sharded = ShardedMonitor::new(schema(), 1, 2, config, STopDown::new).unwrap();
        refuses_without_interning("ShardedMonitor::encode_raw", |dims, measures| {
            let ok = sharded.encode_raw(dims, measures).is_ok();
            (ok, lens(sharded.schema()))
        });
    }

    #[test]
    fn tuple_by_id_resolves_or_declines() {
        let schema = schema();
        let algo = SBottomUp::new(&schema, DiscoveryConfig::unrestricted());
        let mut monitor = FactMonitor::new(schema, algo, MonitorConfig::default());
        assert!(monitor.tuple(0).is_none());
        monitor.ingest_raw(&["A", "X"], vec![3.0, 4.0]).unwrap();
        let view = monitor.tuple(0).expect("tuple 0 exists");
        assert_eq!(view.measures(), &[3.0, 4.0]);
        assert!(monitor.tuple(1).is_none());
    }

    #[test]
    fn monitor_config_builders() {
        let c = MonitorConfig::case_study();
        assert_eq!(c.tau, 500.0);
        assert_eq!(c.discovery, DiscoveryConfig::capped(3, 3));
        let c = MonitorConfig::default()
            .with_tau(7.0)
            .with_keep_top(3)
            .with_discovery(DiscoveryConfig::capped(2, 2));
        assert_eq!(c.tau, 7.0);
        assert_eq!(c.keep_top, Some(3));
        assert!(c.validate().is_ok());
        // τ = 0 is explicitly allowed: every maximal fact is prominent.
        assert!(MonitorConfig::default().with_tau(0.0).validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn with_tau_rejects_nan() {
        let _ = MonitorConfig::default().with_tau(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn with_tau_rejects_negative() {
        let _ = MonitorConfig::default().with_tau(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn with_tau_rejects_infinite() {
        let _ = MonitorConfig::default().with_tau(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn with_keep_top_rejects_zero() {
        let _ = MonitorConfig::default().with_keep_top(0);
    }

    #[test]
    fn validate_rejects_field_level_violations() {
        let config = MonitorConfig {
            tau: f64::NAN,
            ..MonitorConfig::default()
        };
        assert!(matches!(
            config.validate(),
            Err(SitFactError::InvalidConfig(_))
        ));
        let config = MonitorConfig {
            tau: -3.0,
            ..MonitorConfig::default()
        };
        assert!(config.validate().is_err());
        let config = MonitorConfig {
            keep_top: Some(0),
            ..MonitorConfig::default()
        };
        assert!(matches!(
            config.validate(),
            Err(SitFactError::InvalidConfig(_))
        ));
    }

    #[test]
    #[should_panic(expected = "invalid config: prominence threshold")]
    fn fact_monitor_new_rejects_invalid_config() {
        // Field-level construction bypasses the builder's check on purpose.
        let config = MonitorConfig {
            tau: f64::NAN,
            ..MonitorConfig::default()
        };
        let schema = schema();
        let algo = SBottomUp::new(&schema, DiscoveryConfig::unrestricted());
        let _ = FactMonitor::new(schema, algo, config);
    }

    /// A snapshot restores only into a monitor whose kind keeps every cell
    /// it holds: a `d̂ = m̂ = 3` snapshot is refused by a `d̂ = 1` monitor
    /// (cells binding two or three dimensions) and by an `m̂ = 1` one (cells
    /// of wider subspaces), each with a typed error and the monitor left
    /// empty; a monitor of the writer's shape restores it.
    #[test]
    fn a_snapshot_restores_only_into_a_kind_that_keeps_its_cells() {
        let schema = SchemaBuilder::new("gamelog")
            .dimension("player")
            .dimension("team")
            .dimension("month")
            .measure("points", Direction::HigherIsBetter)
            .measure("assists", Direction::HigherIsBetter)
            .measure("rebounds", Direction::HigherIsBetter)
            .build()
            .unwrap();
        let monitor = |d_hat, m_hat| {
            let config =
                MonitorConfig::default().with_discovery(DiscoveryConfig::capped(d_hat, m_hat));
            FactMonitor::new(
                schema.clone(),
                STopDown::new(&schema, config.discovery),
                config,
            )
        };
        let mut written = monitor(3, 3);
        for i in 0..24u32 {
            let dims = [
                ["A", "B", "C"][i as usize % 3],
                ["X", "Y"][i as usize % 2],
                ["Jan", "Feb"][i as usize / 12],
            ];
            let measures = vec![f64::from(i % 5), f64::from(i % 7), f64::from(i % 4)];
            written.ingest_raw(&dims, measures).unwrap();
        }
        let blob = written.export_durable().unwrap().unwrap();

        let mut narrow = monitor(1, 3);
        let err = narrow.restore_durable(&blob).unwrap_err();
        assert!(matches!(err, SitFactError::InvalidConstraint(_)), "{err:?}");
        assert!(narrow.is_empty());
        let mut thin = monitor(3, 1);
        let err = thin.restore_durable(&blob).unwrap_err();
        assert!(matches!(err, SitFactError::InvalidSubspace(_)), "{err:?}");
        assert!(thin.is_empty());

        let mut same = monitor(3, 3);
        same.restore_durable(&blob).unwrap();
        assert_eq!(same.export_durable().unwrap().unwrap(), blob);
    }
}
