//! The [`ShardedMonitor`]: partition the arrival stream across independent
//! [`FactMonitor`] shards and fan batched windows out in parallel.
//!
//! ## Why sharding is sound (and when it is not)
//!
//! Each shard owns its own table and only ever sees the arrivals routed to it,
//! so any fact whose context `σ_C(R)` mixes tuples from different shards would
//! come out wrong. Routing on a dimension attribute `r` makes exactly the
//! facts *binding* `r` safe: all tuples sharing the arriving tuple's value of
//! `r` live on the same shard, so those contexts are complete there.
//! Sharding is therefore only sound for constraint templates where the
//! routing dimension is bound in every emitted fact — the monitor enforces
//! this by anchoring the discovery config on the routing attribute
//! ([`sitfact_core::routing::ensure_routable`]), and the unsharded monitor it
//! is provably equivalent to is the one running the *same anchored config*.
//! Facts that leave `r` unbound (the top constraint `⊤`, "best of the whole
//! league" facts) are outside the sharded constraint space by construction;
//! serve those from an unsharded monitor instead.
//!
//! ## Parallelism
//!
//! A batched window ([`ShardedMonitor::ingest_batch_slice`]) is partitioned by
//! routing value and handed to the shards through a
//! [`ThreadPool`]: each shard is *moved* into
//! its task together with its sub-window and moved back with its reports
//! (ownership transfer instead of scoped borrows keeps everything
//! `unsafe`-free). A window that routes to one shard only — a single row
//! always — runs on the calling thread instead. Reports come back in global
//! arrival order with global tuple ids, byte-identical to what the unsharded
//! monitor would have produced: the ranking orders each report's facts by the
//! canonical total order
//! ([`RankedFact::ranking_cmp`](crate::RankedFact::ranking_cmp)), so a report
//! depends only on the discovered fact *set* — never on the emission order,
//! which legitimately differs between a shard and the unsharded monitor
//! (their pruning paths differ).

use crate::fact::ArrivalReport;
use crate::monitor::{sole, FactMonitor, MonitorConfig, MonitorStats};
use sitfact_algos::Discovery;
use sitfact_core::pool::ThreadPool;
use sitfact_core::{
    routing, DimValueId, FxBuildHasher, RawRow, Result, Schema, SitFactError, Tuple, TupleId,
    TupleRef,
};
use std::hash::BuildHasher;

/// A router over `N` independent [`FactMonitor`] shards, partitioning the
/// stream by one dimension attribute.
///
/// A sharded monitor is fed exactly like an unsharded one, so a server holds
/// either as a [`Served`](crate::Served) and sharding is a pure deployment
/// choice.
///
/// The discovery config is anchored on the routing attribute, so the merged
/// per-arrival reports are identical to an unsharded [`FactMonitor`] running
/// the same anchored config — that is the routing-soundness restriction
/// documented on the module. The doctest below is exactly that equivalence:
///
/// ```
/// use sitfact_core::{Direction, SchemaBuilder};
/// use sitfact_algos::STopDown;
/// use sitfact_prominence::{FactMonitor, MonitorConfig, ShardedMonitor};
///
/// let schema = SchemaBuilder::new("gamelog")
///     .dimension("player")
///     .dimension("team")
///     .measure("points", Direction::HigherIsBetter)
///     .build()
///     .unwrap();
/// // Route by team across 2 shards; the config is auto-anchored on `team`,
/// // restricting reports to facts that bind the routing attribute.
/// let mut sharded = ShardedMonitor::by_attribute(
///     schema.clone(),
///     "team",
///     2,
///     MonitorConfig::default().with_tau(1.0),
///     STopDown::new,
/// )
/// .unwrap();
/// assert_eq!(sharded.config().discovery.anchor_dim, Some(1));
///
/// // The unsharded reference monitor over the *same anchored* space.
/// let anchored = *sharded.config();
/// let mut reference =
///     FactMonitor::new(schema.clone(), STopDown::new(&schema, anchored.discovery), anchored);
///
/// for (dims, points) in [
///     (["A", "X"], 10.0),
///     (["B", "Y"], 8.0),
///     (["C", "X"], 12.0),
///     (["A", "Y"], 11.0),
/// ] {
///     let tuple = sharded.encode_raw(&dims, vec![points]).unwrap();
///     let sharded_report = sharded.ingest(tuple).unwrap();
///     let reference_report = reference.ingest_raw(&dims, vec![points]).unwrap();
///     assert_eq!(sharded_report, reference_report);
/// }
/// ```
#[derive(Debug)]
pub struct ShardedMonitor<A: Discovery + Send + 'static> {
    /// Master schema: interns raw rows, resolves ids for narration. The
    /// shards hold clones made at construction; their dictionaries are never
    /// consulted (tuples arrive pre-encoded), so only this copy grows.
    schema: Schema,
    routing_dim: usize,
    config: MonitorConfig,
    shards: Vec<FactMonitor<A>>,
    /// Global tuple id → (shard index, shard-local tuple id).
    locations: Vec<(u32, TupleId)>,
    pool: ThreadPool,
}

impl<A: Discovery + Send + 'static> ShardedMonitor<A> {
    /// Creates a monitor with `num_shards` shards routed on the dimension
    /// attribute at index `routing_dim`.
    ///
    /// `config.discovery` must either be unanchored (it is then anchored on
    /// `routing_dim` automatically) or anchored on exactly `routing_dim`;
    /// anything else is rejected as routing-unsound. `make_algo` builds one
    /// discovery algorithm per shard from the schema and the anchored config.
    pub fn new(
        schema: Schema,
        routing_dim: usize,
        num_shards: usize,
        mut config: MonitorConfig,
        make_algo: impl Fn(&Schema, sitfact_core::DiscoveryConfig) -> A,
    ) -> Result<Self> {
        if num_shards == 0 {
            return Err(SitFactError::InvalidConfig(
                "a sharded monitor needs at least one shard".into(),
            ));
        }
        config.validate()?;
        config.discovery = routing::ensure_routable(config.discovery, &schema, routing_dim)?;
        let shards = (0..num_shards)
            .map(|_| FactMonitor::new(schema.clone(), make_algo(&schema, config.discovery), config))
            .collect();
        let hardware = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Ok(ShardedMonitor {
            schema,
            routing_dim,
            config,
            shards,
            locations: Vec::new(),
            pool: ThreadPool::new(num_shards.min(hardware)),
        })
    }

    /// [`ShardedMonitor::new`] with the routing attribute given by name.
    pub fn by_attribute(
        schema: Schema,
        routing_attr: &str,
        num_shards: usize,
        config: MonitorConfig,
        make_algo: impl Fn(&Schema, sitfact_core::DiscoveryConfig) -> A,
    ) -> Result<Self> {
        let dim = schema.dimension_index(routing_attr).ok_or_else(|| {
            SitFactError::InvalidConfig(format!(
                "unknown routing attribute `{routing_attr}` in schema `{}`",
                schema.name()
            ))
        })?;
        Self::new(schema, dim, num_shards, config, make_algo)
    }

    /// Index of the routing dimension attribute.
    pub fn routing_dim(&self) -> usize {
        self.routing_dim
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Read access to the shards (e.g. for per-shard statistics).
    pub fn shards(&self) -> &[FactMonitor<A>] {
        &self.shards
    }

    /// The shard that owns `routing_value`. Stable for the monitor's
    /// lifetime: a deterministic hash of the value modulo the shard count.
    pub fn shard_of(&self, routing_value: DimValueId) -> usize {
        self.assert_usable();
        (FxBuildHasher::default().hash_one(routing_value) % self.shards.len() as u64) as usize
    }

    /// Where a globally-numbered tuple lives: `(shard index, local id)`.
    pub fn locate(&self, tuple_id: TupleId) -> Option<(usize, TupleId)> {
        self.assert_usable();
        let (shard, local) = *self.locations.get(tuple_id as usize)?;
        Some((shard as usize, local))
    }

    /// Validates and partitions a window into per-shard windows (one clone
    /// per tuple — shard windows need owned tuples), then fans out and
    /// merges. Validation precedes any dispatch, so a failure anywhere leaves
    /// every shard untouched (all-or-nothing).
    fn partition_dispatch(&mut self, tuples: &[Tuple]) -> Result<Vec<ArrivalReport>> {
        let n_shards = self.shards.len();
        let mut windows: Vec<Vec<Tuple>> = (0..n_shards).map(|_| Vec::new()).collect();
        let mut positions: Vec<Vec<usize>> = (0..n_shards).map(|_| Vec::new()).collect();
        // Routing values by global position, for the merge's
        // routing-consistency check.
        let mut route_values: Vec<DimValueId> = Vec::with_capacity(tuples.len());
        for (i, tuple) in tuples.iter().enumerate() {
            // Validate before touching the routing dimension (a wrong-arity
            // tuple may not have one); an error here only drops the local
            // windows — nothing was ingested yet.
            tuple.validate(&self.schema)?;
            let value = tuple.dim(self.routing_dim);
            let shard = self.shard_of(value);
            route_values.push(value);
            windows[shard].push(tuple.clone());
            positions[shard].push(i);
        }
        self.dispatch_windows(windows, positions, route_values)
    }

    /// Fans pre-validated, pre-partitioned windows out to the shards and
    /// merges the reports back into global arrival order. When at most one
    /// sub-window is non-empty, that shard runs on the calling thread: no
    /// pool hop.
    fn dispatch_windows(
        &mut self,
        windows: Vec<Vec<Tuple>>,
        positions: Vec<Vec<usize>>,
        route_values: Vec<DimValueId>,
    ) -> Result<Vec<ArrivalReport>> {
        let outcomes: Vec<Result<Vec<ArrivalReport>>> =
            if windows.iter().filter(|w| !w.is_empty()).count() <= 1 {
                self.shards
                    .iter_mut()
                    .zip(&windows)
                    .map(|(monitor, window)| monitor.ingest_batch_slice(window))
                    .collect()
            } else {
                self.fan_out(windows)
            };

        // Check every outcome *before* touching the global id map.
        // Pre-validation makes a shard-level error unreachable; if one ever
        // occurs, some shards have ingested rows the map will never cover,
        // so the monitor poisons itself (fail fast on later calls) rather
        // than continuing with irreconcilable state.
        if let Some(err_at) = outcomes.iter().position(|o| o.is_err()) {
            self.shards.clear();
            let Some(Err(error)) = outcomes.into_iter().nth(err_at) else {
                unreachable!("position() found an Err at this index");
            };
            return Err(error);
        }

        // Merge: shard-local reports → global order, global ids. Every
        // placeholder is overwritten because each position belongs to exactly
        // one shard's sub-window.
        let total = route_values.len();
        let base = self.locations.len();
        let mut merged: Vec<Option<ArrivalReport>> = (0..total).map(|_| None).collect();
        self.locations
            .extend(std::iter::repeat_n((u32::MAX, 0), total));
        for (shard, outcome) in outcomes.into_iter().enumerate() {
            #[expect(
                clippy::expect_used,
                reason = "the error pass over `outcomes` above returned early"
            )]
            let reports = outcome.expect("errors were handled above");
            debug_assert_eq!(reports.len(), positions[shard].len());
            for (j, mut report) in reports.into_iter().enumerate() {
                let pos = positions[shard][j];
                let local_id = report.tuple_id;
                self.check_routing(&report, route_values[pos]);
                report.tuple_id = (base + pos) as TupleId;
                self.locations[base + pos] = (shard as u32, local_id);
                merged[pos] = Some(report);
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "each position was routed to exactly one shard batch"
        )]
        let reports = merged
            .into_iter()
            .map(|r| r.expect("every arrival produced exactly one report"))
            .collect();
        Ok(reports)
    }

    /// Moves each shard with its sub-window onto the pool and back with its
    /// reports; a shard with an empty sub-window returns immediately. If a
    /// shard panics the pool re-raises here and the monitor stays poisoned
    /// (shards lost) — subsequent calls fail fast in `assert_usable`.
    fn fan_out(&mut self, windows: Vec<Vec<Tuple>>) -> Vec<Result<Vec<ArrivalReport>>> {
        type ShardResult<A> = (FactMonitor<A>, Result<Vec<ArrivalReport>>);
        let tasks: Vec<Box<dyn FnOnce() -> ShardResult<A> + Send>> = self
            .shards
            .drain(..)
            .zip(windows)
            .map(|(mut monitor, window)| {
                Box::new(move || {
                    let reports = monitor.ingest_batch_slice(&window);
                    (monitor, reports)
                }) as Box<dyn FnOnce() -> ShardResult<A> + Send>
            })
            .collect();
        let results = self.pool.run_all(tasks);
        let mut outcomes = Vec::with_capacity(results.len());
        for (monitor, outcome) in results {
            self.shards.push(monitor);
            outcomes.push(outcome);
        }
        outcomes
    }

    /// The routing-consistency check of `sitfact_core::routing`: every fact a
    /// shard reports must bind the routing attribute to the arriving tuple's
    /// own value — never to a different shard's value, never leave it
    /// unbound. Debug builds verify every report; violations mean the
    /// anchor/routing plumbing is broken, so release builds skip the scan.
    fn check_routing(&self, report: &ArrivalReport, routing_value: DimValueId) {
        debug_assert!(
            report.facts.iter().all(|fact| routing::is_routable(
                &fact.pair.constraint,
                self.routing_dim,
                routing_value
            )),
            "shard emitted a fact that does not bind the routing attribute to its own value"
        );
        let _ = (report, routing_value);
    }

    fn assert_usable(&self) {
        assert!(
            !self.shards.is_empty(),
            "ShardedMonitor is poisoned: a shard panicked during an earlier parallel ingest"
        );
    }

    /// Deep structural self-check; see [`sitfact_core::audit::Audit`].
    pub fn audit(&self) -> std::result::Result<(), sitfact_core::AuditViolation> {
        sitfact_core::Audit::check(self)
    }
}

/// Re-derives the global-to-local routing table: `locations` must be a
/// bijection onto the shard rows, every recorded shard must be the one
/// [`ShardedMonitor::shard_of`] routes the tuple's routing value to, and
/// every shard must pass its own [`FactMonitor`] audit.
impl<A: Discovery + Send + 'static> sitfact_core::Audit for ShardedMonitor<A> {
    fn check(&self) -> std::result::Result<(), sitfact_core::AuditViolation> {
        use sitfact_core::AuditViolation;
        let fail = |invariant: &'static str, detail: String| {
            Err(AuditViolation::new("ShardedMonitor", invariant, detail))
        };
        if self.shards.is_empty() {
            if self.locations.is_empty() {
                // A poisoned monitor with no history is merely unusable.
                return Ok(());
            }
            return fail(
                "poisoned-with-history",
                format!(
                    "no shards remain but {} tuples are still located",
                    self.locations.len()
                ),
            );
        }
        let total: usize = self.shards.iter().map(|s| s.table().len()).sum();
        if total != self.locations.len() {
            return fail(
                "location-coverage",
                format!(
                    "shards hold {total} rows in total but {} global ids are located",
                    self.locations.len()
                ),
            );
        }
        let mut seen: Vec<Vec<bool>> = self
            .shards
            .iter()
            .map(|s| vec![false; s.table().len()])
            .collect();
        for (global, &(shard, local)) in self.locations.iter().enumerate() {
            let Some(monitor) = self.shards.get(shard as usize) else {
                return fail(
                    "location-in-range",
                    format!(
                        "global id {global} routes to shard {shard} of {}",
                        self.shards.len()
                    ),
                );
            };
            if local as usize >= monitor.table().len() {
                return fail(
                    "location-in-range",
                    format!(
                        "global id {global} routes to row {local} of shard {shard}, which \
                         holds {} rows",
                        monitor.table().len()
                    ),
                );
            }
            if std::mem::replace(&mut seen[shard as usize][local as usize], true) {
                return fail(
                    "location-bijective",
                    format!(
                        "shard {shard} row {local} is claimed by global id {global} and an \
                         earlier global id"
                    ),
                );
            }
            let value = monitor.table().tuple(local).dim(self.routing_dim);
            let expect = self.shard_of(value);
            if expect != shard as usize {
                return fail(
                    "routing-consistent",
                    format!(
                        "global id {global} (routing value {value}) lives on shard {shard} \
                         but shard_of routes it to {expect}"
                    ),
                );
            }
        }
        for (index, monitor) in self.shards.iter().enumerate() {
            if let Err(violation) = monitor.audit() {
                return fail(
                    "shard-audit",
                    format!("shard {index}: {}", violation.explain()),
                );
            }
        }
        Ok(())
    }
}

impl<A: Discovery + Send + 'static> ShardedMonitor<A> {
    /// The master schema (grows as raw rows are interned).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The master schema, for encoding raw rows against it.
    pub(crate) fn schema_mut(&mut self) -> &mut Schema {
        &mut self.schema
    }

    /// The effective (anchored) monitor configuration every shard runs.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Total number of tuples ingested across all shards.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// Whether no tuple was ingested yet.
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// Zero-copy view of a globally-numbered tuple (resolve its dimension
    /// strings against [`ShardedMonitor::schema`]).
    pub fn tuple(&self, tuple_id: TupleId) -> Option<TupleRef<'_>> {
        let (shard, local) = self.locate(tuple_id)?;
        Some(self.shards[shard].table().tuple(local))
    }

    /// Validates a raw row against the master schema, then interns it
    /// ([`Schema::encode_rows`]), without ingesting.
    pub fn encode_raw(&mut self, dims: &[impl AsRef<str>], measures: Vec<f64>) -> Result<Tuple> {
        sole(self.schema.encode_rows(&[RawRow::new(dims, &measures)])?)
    }

    /// Ingests one already-encoded tuple as a window of one
    /// ([`ShardedMonitor::ingest_batch_slice`]), on the calling thread, and
    /// returns its report with its global tuple id.
    pub fn ingest(&mut self, tuple: Tuple) -> Result<ArrivalReport> {
        sole(self.ingest_batch_slice(std::slice::from_ref(&tuple))?)
    }

    /// Ingests a whole window through all shards **in parallel**: the window
    /// is partitioned by routing value (one clone per tuple — shard windows
    /// need owned tuples), every shard ingests its sub-window through
    /// [`FactMonitor::ingest_batch_slice`] on the pool — or on the calling
    /// thread when only one shard has work — and the reports are merged back
    /// into global arrival order with global tuple ids.
    ///
    /// An empty window is a no-op returning an empty vec. Validation is
    /// all-or-nothing against the master schema before any shard is touched.
    pub fn ingest_batch_slice(&mut self, tuples: &[Tuple]) -> Result<Vec<ArrivalReport>> {
        self.assert_usable();
        if tuples.is_empty() {
            return Ok(Vec::new());
        }
        self.partition_dispatch(tuples)
    }

    /// Posting-index footprint summed over all shards; a sharded monitor
    /// has no retraction path, so every row stays live.
    pub fn stats(&self) -> MonitorStats {
        let mut postings = sitfact_storage::PostingIndexStats::default();
        for shard in &self.shards {
            let stats = shard.table().posting_index_stats();
            postings.lists += stats.lists;
            postings.ids += stats.ids;
            postings.sealed_blocks += stats.sealed_blocks;
            postings.tail_ids += stats.tail_ids;
            postings.compressed_bytes += stats.compressed_bytes;
            postings.uncompressed_bytes += stats.uncompressed_bytes;
        }
        MonitorStats {
            postings,
            ..MonitorStats::new(&self.schema, &self.config, self.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitfact_algos::{SBottomUp, STopDown};
    use sitfact_core::{Direction, DiscoveryConfig, SchemaBuilder};

    fn schema() -> Schema {
        SchemaBuilder::new("gamelog")
            .dimension("player")
            .dimension("team")
            .dimension("month")
            .measure("points", Direction::HigherIsBetter)
            .measure("assists", Direction::HigherIsBetter)
            .build()
            .unwrap()
    }

    fn rows(n: usize, seed: u64) -> Vec<Tuple> {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Tuple::new(
                    vec![
                        rng.gen_range(0..5u32),
                        rng.gen_range(0..3u32),
                        rng.gen_range(0..4u32),
                    ],
                    vec![rng.gen_range(0..8) as f64, rng.gen_range(0..8) as f64],
                )
            })
            .collect()
    }

    fn sharded(num_shards: usize) -> ShardedMonitor<STopDown> {
        ShardedMonitor::new(
            schema(),
            1, // team
            num_shards,
            MonitorConfig::default().with_tau(1.0),
            STopDown::new,
        )
        .unwrap()
    }

    fn ingest_raw(
        monitor: &mut ShardedMonitor<STopDown>,
        dims: &[&str],
        measures: Vec<f64>,
    ) -> Result<ArrivalReport> {
        let tuple = monitor.encode_raw(dims, measures)?;
        monitor.ingest(tuple)
    }

    fn reference() -> FactMonitor<STopDown> {
        let schema = schema();
        let discovery = DiscoveryConfig::unrestricted().with_anchor(1);
        let config = MonitorConfig::default()
            .with_tau(1.0)
            .with_discovery(discovery);
        FactMonitor::new(schema.clone(), STopDown::new(&schema, discovery), config)
    }

    fn assert_equivalent(actual: Vec<ArrivalReport>, expected: Vec<ArrivalReport>) {
        // Byte-identical, order included: the ranking's canonical total
        // order makes each report a pure function of its fact set.
        assert_eq!(actual, expected);
    }

    #[test]
    fn construction_validates_routing() {
        // Unknown attribute name.
        assert!(ShardedMonitor::by_attribute(
            schema(),
            "city",
            2,
            MonitorConfig::default(),
            STopDown::new
        )
        .is_err());
        // Zero shards.
        assert!(
            ShardedMonitor::new(schema(), 1, 0, MonitorConfig::default(), STopDown::new).is_err()
        );
        // Config anchored off the routing attribute is routing-unsound.
        let conflicting =
            MonitorConfig::default().with_discovery(DiscoveryConfig::unrestricted().with_anchor(0));
        assert!(ShardedMonitor::new(schema(), 1, 2, conflicting, STopDown::new).is_err());
        // Anchored *on* the routing attribute is accepted, as is unanchored.
        let aligned =
            MonitorConfig::default().with_discovery(DiscoveryConfig::unrestricted().with_anchor(1));
        assert!(ShardedMonitor::new(schema(), 1, 2, aligned, STopDown::new).is_ok());
        let monitor = sharded(3);
        assert_eq!(monitor.config().discovery.anchor_dim, Some(1));
        assert_eq!(monitor.num_shards(), 3);
        assert_eq!(monitor.routing_dim(), 1);
    }

    #[test]
    fn construction_validates_monitor_config() {
        // An invalid MonitorConfig is rejected with an error, not a panic,
        // because ShardedMonitor::new is already fallible.
        let config = MonitorConfig {
            tau: f64::NAN,
            ..MonitorConfig::default()
        };
        assert!(matches!(
            ShardedMonitor::new(schema(), 1, 2, config, STopDown::new),
            Err(SitFactError::InvalidConfig(_))
        ));
        let config = MonitorConfig {
            keep_top: Some(0),
            ..MonitorConfig::default()
        };
        assert!(ShardedMonitor::new(schema(), 1, 2, config, STopDown::new).is_err());
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let monitor = sharded(3);
        for value in 0..100u32 {
            let s = monitor.shard_of(value);
            assert!(s < 3);
            assert_eq!(s, monitor.shard_of(value));
        }
        // Every tuple with the same routing value lands on the same shard.
        let one = sharded(1);
        assert_eq!(one.shard_of(7), 0);
    }

    #[test]
    fn per_arrival_ingest_matches_unsharded_reference() {
        for num_shards in [1, 2, 4] {
            let mut monitor = sharded(num_shards);
            let mut unsharded = reference();
            let stream = rows(40, 11);
            let actual = stream
                .clone()
                .into_iter()
                .map(|t| monitor.ingest(t))
                .collect::<Result<Vec<_>>>()
                .unwrap();
            let expected = stream
                .into_iter()
                .map(|t| unsharded.ingest(t))
                .collect::<Result<Vec<_>>>()
                .unwrap();
            assert_equivalent(actual, expected);
            assert_eq!(monitor.len(), 40);
        }
    }

    #[test]
    fn parallel_batches_match_unsharded_reference() {
        for num_shards in [1, 2, 5] {
            let mut monitor = sharded(num_shards);
            let mut unsharded = reference();
            let stream = rows(60, 23);
            let mut actual = Vec::new();
            for window in stream.chunks(13) {
                actual.extend(monitor.ingest_batch_slice(window).unwrap());
            }
            let expected = stream
                .into_iter()
                .map(|t| unsharded.ingest(t))
                .collect::<Result<Vec<_>>>()
                .unwrap();
            assert_equivalent(actual, expected);
        }
    }

    #[test]
    fn keep_top_truncation_is_shard_invariant() {
        // keep_top truncates at a prominence tie; the canonical ranking
        // order makes the surviving facts identical no matter which side of
        // the shard boundary discovered them first.
        let config = MonitorConfig::default().with_tau(1.0).with_keep_top(2);
        let mut monitor = ShardedMonitor::new(schema(), 1, 3, config, STopDown::new).unwrap();
        let anchored = *monitor.config();
        let s = schema();
        let mut unsharded =
            FactMonitor::new(s.clone(), STopDown::new(&s, anchored.discovery), anchored);
        let stream = rows(50, 41);
        let actual = monitor.ingest_batch_slice(&stream).unwrap();
        let expected = stream
            .into_iter()
            .map(|t| unsharded.ingest(t))
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_equivalent(actual, expected);
    }

    #[test]
    fn batch_and_per_arrival_interleave() {
        let mut batched = sharded(3);
        let mut sequential = sharded(3);
        let stream = rows(30, 5);
        let from_batches = batched.ingest_batch_slice(&stream).unwrap();
        let one_by_one = stream
            .into_iter()
            .map(|t| sequential.ingest(t))
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(from_batches, one_by_one);
        // Global ids are the arrival order, regardless of shard placement.
        assert!(from_batches
            .iter()
            .enumerate()
            .all(|(i, r)| r.tuple_id == i as TupleId));
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut monitor = sharded(2);
        ingest_raw(&mut monitor, &["A", "X", "Jan"], vec![1.0, 2.0]).unwrap();
        let reports = monitor.ingest_batch_slice(&[]).unwrap();
        assert!(reports.is_empty());
        assert_eq!(monitor.len(), 1);
        let report = ingest_raw(&mut monitor, &["B", "Y", "Jan"], vec![2.0, 1.0]).unwrap();
        assert_eq!(report.tuple_id, 1);
    }

    #[test]
    fn invalid_window_is_rejected_before_any_shard_ingests() {
        let mut monitor = sharded(2);
        ingest_raw(&mut monitor, &["A", "X", "Jan"], vec![1.0, 2.0]).unwrap();
        let window = vec![
            Tuple::new(vec![0, 0, 0], vec![3.0, 3.0]),
            Tuple::new(vec![0, 1], vec![4.0, 4.0]), // bad arity
        ];
        assert!(monitor.ingest_batch_slice(&window).is_err());
        assert_eq!(monitor.len(), 1);
        assert!(
            monitor
                .shards()
                .iter()
                .map(|s| s.table().len())
                .sum::<usize>()
                == 1
        );
        // NaN measures are also caught up front.
        let window = vec![Tuple::new(vec![0, 0, 0], vec![f64::NAN, 1.0])];
        assert!(monitor.ingest_batch_slice(&window).is_err());
        assert_eq!(monitor.len(), 1);
    }

    #[test]
    fn locate_and_tuple_resolve_global_ids() {
        let mut monitor = sharded(3);
        let stream = rows(25, 77);
        monitor.ingest_batch_slice(&stream).unwrap();
        for (i, original) in stream.iter().enumerate() {
            let (shard, local) = monitor.locate(i as TupleId).unwrap();
            assert!(shard < 3);
            let view = monitor.tuple(i as TupleId).unwrap();
            assert_eq!(view.dims(), original.dims());
            assert_eq!(view.measures(), original.measures());
            assert_eq!(
                monitor.shards()[shard].table().tuple(local).dims(),
                original.dims()
            );
        }
        assert!(monitor.locate(25).is_none());
        assert!(monitor.tuple(25).is_none());
        assert!(!monitor.is_empty());
    }

    #[test]
    fn works_with_other_algorithms() {
        let mut monitor: ShardedMonitor<SBottomUp> = ShardedMonitor::new(
            schema(),
            1,
            2,
            MonitorConfig::default().with_tau(1.0),
            SBottomUp::new,
        )
        .unwrap();
        let schema = schema();
        let discovery = DiscoveryConfig::unrestricted().with_anchor(1);
        let mut unsharded = FactMonitor::new(
            schema.clone(),
            SBottomUp::new(&schema, discovery),
            MonitorConfig::default()
                .with_tau(1.0)
                .with_discovery(discovery),
        );
        let stream = rows(30, 3);
        let actual = monitor.ingest_batch_slice(&stream).unwrap();
        let expected = stream
            .into_iter()
            .map(|t| unsharded.ingest(t))
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_equivalent(actual, expected);
    }
}
