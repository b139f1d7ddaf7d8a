//! Property-based tests (proptest) for the core invariants the algorithms
//! rely on: the dominance relation is a strict partial order, Proposition 4's
//! partition agrees with direct dominance in every subspace, constraint
//! subsumption mirrors the bound-mask lattice, skyline constraints are
//! downward-closed, and the incremental algorithms match the brute-force
//! reference on arbitrary streams.
#![allow(
    clippy::unwrap_used,
    reason = "test code: a failed unwrap is a failed test"
)]

use proptest::prelude::*;
use sitfact_core::dominance::{self, DominancePartition};
use sitfact_core::pair::canonical_sort;
use situational_facts::prelude::*;

/// Ends a property with a structure's deep [`Audit`], converting a violation
/// into a failing case carrying its `explain()` message.
fn deep_audit(subject: &impl Audit) -> Result<(), String> {
    subject.check().map_err(|v| v.explain())
}

const DIRS: [Direction; 3] = [
    Direction::HigherIsBetter,
    Direction::LowerIsBetter,
    Direction::HigherIsBetter,
];

fn tuple_strategy() -> impl Strategy<Value = Tuple> {
    (
        prop::collection::vec(0u32..4, 3),
        prop::collection::vec(0i32..6, 3),
    )
        .prop_map(|(dims, measures)| {
            Tuple::new(dims, measures.into_iter().map(|m| m as f64).collect())
        })
}

/// Body of the `windowed_monitor_equals_rebuild_from_suffix*` properties for
/// one `(dimension cardinalities, measures, discovery config)` shape.
fn windowed_equals_rebuild(
    (dim_cardinalities, measures, discovery): (Vec<usize>, usize, DiscoveryConfig),
    n_rows: usize,
    extra: usize,
    window: usize,
    window_seed: usize,
    gen_seed: u64,
    shuffle_seed: u64,
) -> Result<(), String> {
    use situational_facts::datagen::generic::{Correlation, GenericConfig, GenericGenerator};

    let mut gen = GenericGenerator::new(GenericConfig {
        dim_cardinalities,
        measures,
        correlation: Correlation::Independent,
        seed: gen_seed,
    });
    // The order-shuffled replay: the same row multiset in an arbitrary
    // seeded order, since a windowed report stream is a function of
    // arrival order, not just of the rows.
    let mut replay = ShuffledReplay::new(&mut gen, n_rows, shuffle_seed);
    let schema = replay.schema().clone();
    // Encode every row against one shared dictionary (both monitors see
    // identical value ids — each interning independently would drift, as
    // the rebuild never observes the evicted rows' strings).
    let mut scratch = Table::new(schema.clone());
    let mut encode = |rows: &[Row]| -> Vec<Tuple> {
        rows.iter()
            .map(|row| situational_facts::datagen::encode_row(&mut scratch, row).unwrap())
            .collect()
    };
    let tuples = encode(&replay.take_rows(n_rows));
    let continuation = encode(&replay.take_rows(extra));

    let config = MonitorConfig::default()
        .with_discovery(discovery)
        .with_tau(2.0);
    let policy = WindowPolicy::count(window).unwrap();
    let mut windowed = ArrivalPipeline::new(
        FactMonitor::new(
            schema.clone(),
            STopDown::new(&schema, config.discovery),
            config,
        ),
        policy,
    );

    for chunk in tuples.chunks(window_seed) {
        windowed.ingest_batch_slice(chunk).unwrap();
        // Bookkeeping reconciles at every batch boundary.
        prop_assert_eq!(
            windowed.stats().live_rows,
            windowed.inner().len().min(window)
        );
        prop_assert_eq!(
            windowed.inner().len(),
            windowed.stats().live_rows + windowed.stats().tombstones + windowed.stats().evicted
        );
    }
    deep_audit(windowed.inner())?;

    // Rebuild from scratch: a fresh monitor, id space starting at the
    // windowed monitor's watermark, fed only the surviving suffix.
    let start = windowed.inner().len() - windowed.stats().live_rows;
    let mut rebuilt = ArrivalPipeline::new(
        FactMonitor::with_base(
            schema.clone(),
            STopDown::new(&schema, config.discovery),
            config,
            start as TupleId,
        ),
        policy,
    );
    rebuilt.ingest_batch_slice(&tuples[start..]).unwrap();
    prop_assert_eq!(rebuilt.stats().live_rows, windowed.stats().live_rows);

    // Both monitors must now be observably identical: every future
    // arrival — same continuation, same batch partitioning — produces
    // byte-identical reports.
    for chunk in continuation.chunks(window_seed) {
        let expected = windowed.ingest_batch_slice(chunk).unwrap();
        let actual = rebuilt.ingest_batch_slice(chunk).unwrap();
        prop_assert_eq!(&actual, &expected);
        for report in &actual {
            deep_audit(report)?;
        }
    }
    deep_audit(windowed.inner())?;
    deep_audit(rebuilt.inner())?;
    Ok(())
}

/// Test-only oracle of [`FactMonitor`]'s ranking: the arrival path replayed by
/// hand over its own table, counter and algorithm, computing the skyline
/// cardinality of **every** discovered pair before sorting and cutting — the
/// full-evaluation loop the monitor ran before it pruned by context size.
struct FullRankingOracle {
    table: Table,
    counter: ContextCounter,
    algo: STopDown,
    config: MonitorConfig,
}

impl FullRankingOracle {
    fn new(schema: Schema, config: MonitorConfig) -> Self {
        let d_hat = config.discovery.effective_d_hat(&schema);
        FullRankingOracle {
            counter: ContextCounter::new(schema.num_dimensions(), d_hat),
            algo: STopDown::new(&schema, config.discovery),
            table: Table::new(schema),
            config,
        }
    }

    fn ingest(&mut self, tuple: Tuple) -> ArrivalReport {
        let pairs = self.algo.discover(&self.table, &tuple);
        let tuple_id = self.table.append(tuple).unwrap();
        self.counter.observe(self.table.tuple(tuple_id));
        let mut facts: Vec<RankedFact> = pairs
            .into_iter()
            .map(|pair| RankedFact {
                context_size: self.counter.cardinality(&pair.constraint),
                skyline_size: self.algo.skyline_cardinality_at(
                    &self.table,
                    &pair.constraint,
                    pair.subspace,
                    tuple_id + 1,
                ) as u64,
                pair,
            })
            .collect();
        facts.sort_by(RankedFact::ranking_cmp);
        let max = facts.first().map(RankedFact::prominence).unwrap_or(0.0);
        let prominent_count = if max >= self.config.tau {
            facts
                .iter()
                .take_while(|f| (f.prominence() - max).abs() < f64::EPSILON)
                .count()
        } else {
            0
        };
        if let Some(keep) = self.config.keep_top {
            facts.truncate(keep.max(prominent_count));
        }
        ArrivalReport {
            tuple_id,
            facts,
            prominent_count,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Dominance is irreflexive and asymmetric in every subspace.
    #[test]
    fn dominance_is_a_strict_partial_order(a in tuple_strategy(), b in tuple_strategy(), c in tuple_strategy()) {
        for m in SubspaceMask::enumerate(3, 3) {
            prop_assert!(!dominance::dominates(&a, &a, m, &DIRS));
            if dominance::dominates(&a, &b, m, &DIRS) {
                prop_assert!(!dominance::dominates(&b, &a, m, &DIRS));
            }
            // Transitivity.
            if dominance::dominates(&a, &b, m, &DIRS) && dominance::dominates(&b, &c, m, &DIRS) {
                prop_assert!(dominance::dominates(&a, &c, m, &DIRS));
            }
        }
    }

    /// Proposition 4: the full-space partition decides dominance in every
    /// subspace exactly.
    #[test]
    fn partition_agrees_with_direct_dominance(a in tuple_strategy(), b in tuple_strategy()) {
        let p = DominancePartition::compute(&a, &b, &DIRS);
        for m in SubspaceMask::enumerate(3, 3) {
            prop_assert_eq!(p.left_dominates_in(m), dominance::dominates(&a, &b, m, &DIRS));
            prop_assert_eq!(p.left_dominated_in(m), dominance::dominates(&b, &a, m, &DIRS));
        }
        // The three masks partition the measure space.
        let union = p.better.union(p.worse).union(p.equal);
        prop_assert_eq!(union, SubspaceMask::full(3));
        prop_assert!(p.better.intersect(p.worse).is_empty());
        prop_assert!(p.better.intersect(p.equal).is_empty());
    }

    /// For constraints derived from the same tuple, subsumption is exactly the
    /// submask relation, and σ_C monotonically shrinks as constraints bind
    /// more attributes.
    #[test]
    fn subsumption_mirrors_bound_masks(t in tuple_strategy(), other in tuple_strategy(), a in 0u32..8, b in 0u32..8) {
        let ca = Constraint::from_tuple_mask(&t, BoundMask(a));
        let cb = Constraint::from_tuple_mask(&t, BoundMask(b));
        prop_assert_eq!(ca.is_subsumed_by(&cb), BoundMask(b).is_submask_of(BoundMask(a)));
        // Subsumption implies context containment for arbitrary tuples.
        if ca.is_subsumed_by(&cb) && ca.matches(&other) {
            prop_assert!(cb.matches(&other));
        }
        // The agreement mask is exactly the set of constraints of C^t that the
        // other tuple satisfies.
        let agreement = BoundMask::agreement(&t, &other);
        for mask in 0u32..8 {
            let c = Constraint::from_tuple_mask(&t, BoundMask(mask));
            prop_assert_eq!(c.matches(&other), BoundMask(mask).is_submask_of(agreement));
        }
    }

    /// Skyline constraints are downward-closed: if the new tuple is in the
    /// contextual skyline at C, it is also in the skyline at every descendant
    /// of C it satisfies.
    #[test]
    fn skyline_constraints_are_downward_closed(
        history in prop::collection::vec(tuple_strategy(), 1..40),
        t in tuple_strategy(),
    ) {
        let schema = SchemaBuilder::new("p")
            .dimension("d0").dimension("d1").dimension("d2")
            .measure("m0", DIRS[0])
            .measure("m1", DIRS[1])
            .measure("m2", DIRS[2])
            .build().unwrap();
        let mut table = Table::new(schema.clone());
        for h in &history {
            table.append(h.clone()).unwrap();
        }
        let mut algo = BruteForce::new(&schema, DiscoveryConfig::unrestricted());
        let facts = algo.discover(&table, &t);
        let lattice = ConstraintLattice::unrestricted(3);
        for fact in &facts {
            let mask = fact.constraint.bound_mask();
            for descendant in lattice.descendants(mask) {
                let child = Constraint::from_tuple_mask(&t, descendant);
                prop_assert!(
                    facts.iter().any(|f| f.subspace == fact.subspace && f.constraint == child),
                    "skyline at {:?} but not at descendant {:?}", mask, descendant
                );
            }
        }
        deep_audit(&table)?;
    }

    /// The flagship incremental algorithm (STopDown) matches BruteForce on
    /// arbitrary random streams — a property-based restatement of the
    /// equivalence tests with proptest-driven inputs and shrinking.
    #[test]
    fn stopdown_matches_bruteforce_on_arbitrary_streams(
        stream in prop::collection::vec(tuple_strategy(), 1..30),
    ) {
        let schema = SchemaBuilder::new("p")
            .dimension("d0").dimension("d1").dimension("d2")
            .measure("m0", DIRS[0])
            .measure("m1", DIRS[1])
            .measure("m2", DIRS[2])
            .build().unwrap();
        let config = DiscoveryConfig::unrestricted();
        let mut table = Table::new(schema.clone());
        let mut subject = STopDown::new(&schema, config);
        let mut reference = BruteForce::new(&schema, config);
        for t in stream {
            let mut expected = reference.discover(&table, &t);
            let mut actual = subject.discover(&table, &t);
            canonical_sort(&mut expected);
            canonical_sort(&mut actual);
            prop_assert_eq!(expected, actual);
            table.append(t).unwrap();
        }
        deep_audit(&table)?;
    }

    /// The inverted-index context (posting-list intersection) returns exactly
    /// the same `(id, tuple)` sequence as a naive predicate scan, for random
    /// schema widths and random constraints — including the top constraint
    /// and constraints binding never-observed values.
    #[test]
    fn indexed_context_equals_naive_scan(
        n_dims in 1usize..5,
        n_measures in 1usize..3,
        rows in prop::collection::vec(
            (prop::collection::vec(0u32..5, 4), 0i32..9),
            0..60,
        ),
        constraint_seeds in prop::collection::vec(prop::collection::vec(0u32..8, 4), 1..16),
    ) {
        let mut builder = SchemaBuilder::new("p");
        for d in 0..n_dims {
            builder = builder.dimension(format!("d{d}"));
        }
        for m in 0..n_measures {
            builder = builder.measure(format!("m{m}"), Direction::HigherIsBetter);
        }
        let schema = builder.build().unwrap();
        let mut table = Table::new(schema);
        for (dims, measure) in &rows {
            let t = Tuple::new(
                dims[..n_dims].to_vec(),
                vec![*measure as f64; n_measures],
            );
            table.append(t).unwrap();
        }
        // Random constraints: seed values 0..5 are (potentially) observed,
        // 5 and 6 are never observed, 7 maps to `*`. The explicit top
        // constraint is always exercised too.
        let mut constraints: Vec<Constraint> = vec![Constraint::top(n_dims)];
        for seed in &constraint_seeds {
            let values = seed[..n_dims]
                .iter()
                .map(|&v| if v == 7 { sitfact_core::UNBOUND } else { v })
                .collect();
            constraints.push(Constraint::from_values(values));
        }
        for c in &constraints {
            let indexed: Vec<(TupleId, Tuple)> =
                table.context(c).map(|(id, t)| (id, t.to_tuple())).collect();
            let scanned: Vec<(TupleId, Tuple)> = table
                .context_scan(c)
                .map(|(id, t)| (id, t.to_tuple()))
                .collect();
            prop_assert_eq!(&indexed, &scanned);
            prop_assert_eq!(indexed.len(), table.context(c).count());
            // The probe bound brackets the result: the intersection can never
            // be larger than its smallest posting list, which in turn never
            // exceeds a full scan.
            prop_assert!(indexed.len() <= table.context_probe_bound(c));
            prop_assert!(table.context_probe_bound(c) <= table.len());
        }
        deep_audit(&table)?;
    }

    /// `append_batch` ≡ a loop of `append`: identical table contents (length,
    /// every row, heap-byte accounting), identical posting lists and
    /// identical probe bounds, for random schema widths and random windows —
    /// including value ids far outside the dense range (which push the batch
    /// path onto its sort-merge fallback) and a batch split at a random
    /// boundary (so batches compose with prior contents).
    #[test]
    fn append_batch_equals_append_loop(
        n_dims in 1usize..5,
        n_measures in 1usize..3,
        rows in prop::collection::vec(
            (prop::collection::vec(0u32..1000, 4), 0i32..9),
            0..60,
        ),
        split_seed in 0usize..64,
        constraint_seeds in prop::collection::vec(prop::collection::vec(0u32..8, 4), 1..8),
    ) {
        let mut builder = SchemaBuilder::new("p");
        for d in 0..n_dims {
            builder = builder.dimension(format!("d{d}"));
        }
        for m in 0..n_measures {
            builder = builder.measure(format!("m{m}"), Direction::HigherIsBetter);
        }
        let schema = builder.build().unwrap();
        // Mix dense ids with occasional huge ones so both the counting-sort
        // fast path and the sparse fallback are exercised.
        let tuples: Vec<Tuple> = rows
            .iter()
            .map(|(dims, measure)| {
                let dims = dims[..n_dims]
                    .iter()
                    .map(|&v| if v >= 995 { v * 100_000 } else { v % 6 })
                    .collect();
                Tuple::new(dims, vec![*measure as f64; n_measures])
            })
            .collect();

        let mut looped = Table::new(schema.clone());
        for t in &tuples {
            looped.append(t.clone()).unwrap();
        }
        let mut batched = Table::new(schema.clone());
        let split = if tuples.is_empty() { 0 } else { split_seed % (tuples.len() + 1) };
        let first = batched.append_batch(tuples[..split].to_vec()).unwrap();
        let second = batched.append_batch_slice(&tuples[split..]).unwrap();
        prop_assert_eq!(first, 0..split as TupleId);
        prop_assert_eq!(second, split as TupleId..tuples.len() as TupleId);

        prop_assert_eq!(batched.len(), looped.len());
        prop_assert_eq!(batched.approx_heap_bytes(), looped.approx_heap_bytes());
        for ((id_a, row_a), (id_b, row_b)) in batched.iter().zip(looped.iter()) {
            prop_assert_eq!(id_a, id_b);
            prop_assert_eq!(row_a, row_b);
        }
        // Every posting list agrees (checked through every value actually
        // observed, per attribute).
        for attr in 0..n_dims {
            for value in tuples.iter().map(|t| t.dim(attr)) {
                prop_assert_eq!(
                    batched.posting_list(attr, value),
                    looped.posting_list(attr, value)
                );
            }
        }
        // Context retrieval and its work bound agree for random constraints.
        for seed in &constraint_seeds {
            let values = seed[..n_dims]
                .iter()
                .map(|&v| if v == 7 { sitfact_core::UNBOUND } else { v })
                .collect();
            let c = Constraint::from_values(values);
            let a: Vec<TupleId> = batched.context(&c).map(|(id, _)| id).collect();
            let b: Vec<TupleId> = looped.context(&c).map(|(id, _)| id).collect();
            prop_assert_eq!(a, b);
            prop_assert_eq!(batched.context_probe_bound(&c), looped.context_probe_bound(&c));
        }
        deep_audit(&batched)?;
        deep_audit(&looped)?;
    }

    /// `FactMonitor::ingest_batch` ≡ a sequential `ingest` loop: identical
    /// `ArrivalReport`s — tuple ids, fact order, cardinalities, prominent
    /// counts — for random streams split into random windows.
    #[test]
    fn monitor_ingest_batch_equals_sequential(
        stream in prop::collection::vec(tuple_strategy(), 1..30),
        window_seed in 1usize..8,
    ) {
        let schema = SchemaBuilder::new("p")
            .dimension("d0").dimension("d1").dimension("d2")
            .measure("m0", DIRS[0])
            .measure("m1", DIRS[1])
            .measure("m2", DIRS[2])
            .build().unwrap();
        let config = MonitorConfig::default().with_tau(2.0);
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
        let expected = stream.clone().into_iter().map(|t| sequential.ingest(t)).collect::<Result<Vec<_>, _>>().unwrap();
        let mut actual = Vec::new();
        for window in stream.chunks(window_seed) {
            actual.extend(batched.ingest_batch_slice(window).unwrap());
        }
        for report in &actual {
            deep_audit(report)?;
        }
        prop_assert_eq!(actual, expected);
        prop_assert_eq!(batched.table().len(), sequential.table().len());
        deep_audit(&sequential)?;
        deep_audit(&batched)?;
    }

    /// A `ShardedMonitor` produces reports byte-identical to an unsharded
    /// `FactMonitor` running the same anchored config — for random schema
    /// widths, random routing attributes, random shard counts and random
    /// window splits. This is the routing-soundness theorem of the sharded
    /// design: anchoring the constraint space on the routing attribute
    /// confines every reported fact's context to a single shard, and the
    /// canonical ranking order (`RankedFact::ranking_cmp`) makes each report
    /// a pure function of that fact set, emission order be damned.
    #[test]
    fn sharded_monitor_equals_unsharded(
        n_dims in 1usize..4,
        routing_seed in 0usize..4,
        num_shards in 1usize..5,
        window_seed in 1usize..9,
        rows in prop::collection::vec(
            (prop::collection::vec(0u32..4, 3), 0i32..6, 0i32..6),
            1..35,
        ),
    ) {
        let routing_dim = routing_seed % n_dims;
        let mut builder = SchemaBuilder::new("p");
        for d in 0..n_dims {
            builder = builder.dimension(format!("d{d}"));
        }
        let schema = builder
            .measure("m0", DIRS[0])
            .measure("m1", DIRS[1])
            .build().unwrap();
        let stream: Vec<Tuple> = rows
            .iter()
            .map(|(dims, m0, m1)| {
                Tuple::new(dims[..n_dims].to_vec(), vec![*m0 as f64, *m1 as f64])
            })
            .collect();

        // keep_top exercises truncation at prominence ties, which must be
        // deterministic for the byte-equality below to hold.
        let config = MonitorConfig::default().with_tau(2.0).with_keep_top(4);
        let mut sharded = ShardedMonitor::new(
            schema.clone(),
            routing_dim,
            num_shards,
            config,
            STopDown::new,
        ).unwrap();
        // The reference runs the sharded monitor's own (anchored) config.
        let anchored = *sharded.config();
        prop_assert_eq!(anchored.discovery.anchor_dim, Some(routing_dim));
        let mut unsharded = FactMonitor::new(
            schema.clone(),
            STopDown::new(&schema, anchored.discovery),
            anchored,
        );

        let mut actual = Vec::new();
        for window in stream.chunks(window_seed) {
            actual.extend(sharded.ingest_batch_slice(window).unwrap());
        }
        let expected = stream.clone().into_iter().map(|t| unsharded.ingest(t)).collect::<Result<Vec<_>, _>>().unwrap();
        for report in &actual {
            deep_audit(report)?;
        }
        prop_assert_eq!(actual, expected);
        // Shard tables partition the stream exactly.
        let sharded_rows: usize = sharded.shards().iter().map(|s| s.table().len()).sum();
        prop_assert_eq!(sharded_rows, stream.len());
        prop_assert_eq!(sharded.len(), stream.len());
        deep_audit(&sharded)?;
        deep_audit(&unsharded)?;
    }

    /// `Table::audit()` holds after *every* prefix of an arbitrary mixed
    /// `append`/`append_batch` sequence — including batches whose huge value
    /// ids push the posting-list build onto its sparse sort-merge fallback.
    #[test]
    fn table_audit_passes_after_mixed_append_sequences(
        n_dims in 1usize..4,
        ops in prop::collection::vec(
            (
                prop::collection::vec(
                    (prop::collection::vec(0u32..1000, 3), 0i32..9),
                    0..8,
                ),
                0u32..2,
            ),
            1..8,
        ),
    ) {
        let mut builder = SchemaBuilder::new("p");
        for d in 0..n_dims {
            builder = builder.dimension(format!("d{d}"));
        }
        let schema = builder.measure("m0", Direction::HigherIsBetter).build().unwrap();
        let mut table = Table::new(schema);
        for (rows, mode) in &ops {
            let tuples: Vec<Tuple> = rows
                .iter()
                .map(|(dims, measure)| {
                    let dims = dims[..n_dims]
                        .iter()
                        .map(|&v| if v >= 995 { v * 100_000 } else { v % 6 })
                        .collect();
                    Tuple::new(dims, vec![*measure as f64])
                })
                .collect();
            if *mode == 0 {
                for t in tuples {
                    table.append(t).unwrap();
                }
            } else {
                table.append_batch(tuples).unwrap();
            }
            // The invariant must hold after every operation, not just at the
            // end of the sequence.
            deep_audit(&table)?;
        }
    }

    /// At scale (hundreds of rows over a handful of values, so posting lists
    /// hold a hundred ids and more), the galloping indexed context must equal
    /// the naive scan for every constraint shape — single-attribute streams,
    /// multi-attribute intersections, never-observed values — before and
    /// after a retraction and its compaction.
    #[test]
    fn indexed_context_equals_scan_at_block_scale(
        n_rows in 300usize..600,
        n_dims in 2usize..4,
        mults in prop::collection::vec(1usize..23, 3),
        constraint_seeds in prop::collection::vec(prop::collection::vec(0u32..8, 3), 1..10),
    ) {
        let mut builder = SchemaBuilder::new("p");
        for d in 0..n_dims {
            builder = builder.dimension(format!("d{d}"));
        }
        let schema = builder.measure("m0", Direction::HigherIsBetter).build().unwrap();
        let mut table = Table::new(schema);
        // Deterministic pseudo-random rows over tiny per-attribute domains:
        // every list collects n_rows / ~4 ids and seals multiple blocks.
        for i in 0..n_rows {
            let dims: Vec<u32> = (0..n_dims)
                .map(|d| ((i * mults[d]) % (3 + d)) as u32)
                .collect();
            table.append(Tuple::new(dims, vec![(i % 7) as f64])).unwrap();
        }

        let mut constraints: Vec<Constraint> = vec![Constraint::top(n_dims)];
        for seed in &constraint_seeds {
            let values = seed[..n_dims]
                .iter()
                .map(|&v| if v == 7 { sitfact_core::UNBOUND } else { v })
                .collect();
            constraints.push(Constraint::from_values(values));
        }
        for round in 0..3 {
            for c in &constraints {
                let ids: Vec<TupleId> = table.context(c).map(|(id, _)| id).collect();
                let scanned: Vec<TupleId> =
                    table.context_scan(c).map(|(id, _)| id).collect();
                prop_assert_eq!(&ids, &scanned);
                // Galloping work stays bounded by the shortest list touched.
                prop_assert!(ids.len() <= table.context_probe_bound(c));
            }
            // Later passes over the same constraints skip a tombstoned
            // prefix, then read lists drained of it.
            match round {
                0 => {
                    table.retract_prefix(n_rows / 3);
                }
                1 => {
                    table.compact_retracted();
                }
                _ => {}
            }
        }
        deep_audit(&table)?;
    }

    /// The load-bearing sliding-window property: **windowed ≡
    /// rebuild-from-scratch**. After any arrival sequence — random generator
    /// seed, random seeded shuffle of the arrival order, random window
    /// length, random batch partitioning — a windowed `ArrivalPipeline` must
    /// behave exactly like a fresh monitor (id space aligned via
    /// `FactMonitor::with_base`) fed only the surviving suffix: byte-identical
    /// reports for every subsequent arrival, and deep audits green on both.
    /// Along the way the eviction bookkeeping must reconcile after every
    /// batch: `live = min(len, window)` and `len = live + tombstones +
    /// evicted`.
    #[test]
    fn windowed_monitor_equals_rebuild_from_suffix(
        n_rows in 4usize..40,
        extra in 1usize..12,
        window in 1usize..9,
        window_seed in 1usize..7,
        gen_seed in 0u64..1024,
        shuffle_seed in 0u64..1024,
    ) {
        let shape = (vec![3, 4], 2, DiscoveryConfig::unrestricted());
        windowed_equals_rebuild(shape, n_rows, extra, window, window_seed, gen_seed, shuffle_seed)?;
    }

    /// The same property in the benchmark's shape: a capped lattice
    /// (`d̂ < d`) and `m̂ < m`, so the full measure space is maintained —
    /// and repaired on eviction — without being reported.
    #[test]
    fn windowed_monitor_equals_rebuild_from_suffix_capped(
        n_rows in 4usize..40,
        extra in 1usize..12,
        window in 1usize..9,
        window_seed in 1usize..7,
        gen_seed in 0u64..1024,
        shuffle_seed in 0u64..1024,
    ) {
        let shape = (vec![3, 2, 3], 3, DiscoveryConfig::capped(2, 2));
        windowed_equals_rebuild(shape, n_rows, extra, window, window_seed, gen_seed, shuffle_seed)?;
    }

    /// Bound-and-prune ranking ≡ full ranking: for random schema widths,
    /// caps on and off, every `keep_top` and several `τ`, each report of a
    /// `FactMonitor` equals the oracle's, which evaluates all pairs. Small
    /// integer measures and few dimension values make prominence ties at the
    /// cut the norm, and with `τ ≤ 1` the first arrival's facts all tie the
    /// maximum, so `keep.max(prominent_count)` overflows `keep_top`.
    #[test]
    fn pruned_ranking_equals_full_ranking(
        n_dims in 1usize..4,
        n_measures in 1usize..4,
        capped in 0usize..2,
        keep_seed in 0usize..4,
        tau_seed in 0usize..4,
        rows in prop::collection::vec(
            (prop::collection::vec(0u32..3, 3), prop::collection::vec(0i32..4, 3)),
            1..40,
        ),
    ) {
        let mut builder = SchemaBuilder::new("p");
        for d in 0..n_dims {
            builder = builder.dimension(format!("d{d}"));
        }
        for (m, direction) in DIRS.iter().take(n_measures).enumerate() {
            builder = builder.measure(format!("m{m}"), *direction);
        }
        let schema = builder.build().unwrap();
        let discovery = if capped == 1 {
            DiscoveryConfig::capped(2, 2)
        } else {
            DiscoveryConfig::unrestricted()
        };
        let config = MonitorConfig {
            discovery,
            tau: [0.0, 1.0, 2.0, 5.0][tau_seed],
            keep_top: [Some(1), Some(3), Some(8), None][keep_seed],
        };
        let mut monitor = FactMonitor::new(
            schema.clone(),
            STopDown::new(&schema, config.discovery),
            config,
        );
        let mut oracle = FullRankingOracle::new(schema, config);
        for (dims, measures) in rows {
            let tuple = Tuple::new(
                dims[..n_dims].to_vec(),
                measures[..n_measures].iter().map(|&m| m as f64).collect(),
            );
            let report = monitor.ingest(tuple.clone()).unwrap();
            prop_assert_eq!(&report, &oracle.ingest(tuple));
            deep_audit(&report)?;
        }
        deep_audit(&monitor)?;
    }

    /// Prominence is always ≥ 1 for facts pertinent to the newly added tuple,
    /// and the context is never smaller than its skyline.
    #[test]
    fn prominence_is_at_least_one(
        stream in prop::collection::vec(tuple_strategy(), 1..25),
    ) {
        let schema = SchemaBuilder::new("p")
            .dimension("d0").dimension("d1").dimension("d2")
            .measure("m0", DIRS[0])
            .measure("m1", DIRS[1])
            .measure("m2", DIRS[2])
            .build().unwrap();
        let algo = SBottomUp::new(&schema, DiscoveryConfig::unrestricted());
        let mut monitor = FactMonitor::new(schema, algo, MonitorConfig::default());
        for t in stream {
            let report = monitor.ingest(t).unwrap();
            for fact in &report.facts {
                prop_assert!(fact.skyline_size >= 1);
                prop_assert!(fact.context_size >= fact.skyline_size);
                prop_assert!(fact.prominence() >= 1.0);
            }
            deep_audit(&report)?;
        }
        deep_audit(&monitor)?;
    }
}
