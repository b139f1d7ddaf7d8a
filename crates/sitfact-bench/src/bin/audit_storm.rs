//! `audit_storm` — randomized deep `Audit` smoke binary for the CI `analyze`
//! step.
//!
//! Hammers every audited structure with seeded random workloads and runs its
//! deep [`Audit`](sitfact_core::Audit) after every step: `Table` under mixed
//! `append`/`append_batch_slice` sequences (with sparse value ids)
//! interleaved with `retract_prefix` and `compact_retracted`, so
//! the drained posting lists are checked against their rebuild from the
//! dims column, `KdTree` under random inserts, both `SkylineStore`
//! implementations under random insert/remove/read churn through row
//! handles (every round empties a row and creates one in its slot), and
//! `FactMonitor`/`ShardedMonitor` under batched ingest — the `FactMonitor`
//! over a sliding window, evicting down to its last rows (`evict_prefix`,
//! so `Discovery::retract`) before every audit; the `ShardedMonitor` stays
//! unwindowed, because it refuses `evict_prefix`. Any violation prints its
//! `explain()` and exits non-zero.
//!
//! Usage: `audit_storm [--seed N] [--rounds N]` — an unknown flag or an
//! unparsable value exits 1, naming the flag.

use sitfact_serve::cli::{parsed, reject_unknown};

fn main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    reject_unknown(&args, &["--seed", "--rounds"])?;
    let seed: u64 = parsed(&args, "--seed", 7)?;
    let rounds: usize = parsed(&args, "--rounds", 12)?;
    storm::run(seed, rounds);
    Ok(())
}

mod storm {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sitfact_algos::STopDown;
    use sitfact_core::{
        Audit, Constraint, Direction, Schema, SchemaBuilder, SubspaceMask, Tuple, UNBOUND,
    };
    use sitfact_prominence::{FactMonitor, MonitorConfig, ShardedMonitor};
    use sitfact_storage::{FileSkylineStore, KdTree, MemorySkylineStore, SkylineStore, Table};

    fn fail(what: &str, violation: sitfact_core::AuditViolation) -> ! {
        eprintln!("audit_storm: {what}: {}", violation.explain());
        std::process::exit(1);
    }

    fn schema(n_dims: usize) -> Schema {
        let mut builder = SchemaBuilder::new("storm");
        for d in 0..n_dims {
            builder = builder.dimension(format!("d{d}"));
        }
        builder
            .measure("m0", Direction::HigherIsBetter)
            .measure("m1", Direction::LowerIsBetter)
            .build()
            .expect("storm schema is valid")
    }

    fn random_tuple(rng: &mut StdRng, n_dims: usize) -> Tuple {
        let dims = (0..n_dims)
            .map(|_| {
                let v: u32 = rng.gen_range(0..1000);
                // Occasional huge, sparse value ids.
                if v >= 995 {
                    v * 100_000
                } else {
                    v % 5
                }
            })
            .collect();
        let measures = vec![rng.gen_range(0..8) as f64, rng.gen_range(0..8) as f64];
        Tuple::new(dims, measures)
    }

    /// Appends, retractions and compactions in random order, with the deep
    /// audit after each step.
    fn storm_table(rng: &mut StdRng, rounds: usize) {
        let mut table = Table::new(schema(3));
        for _ in 0..rounds * 3 {
            match rng.gen_range(0..4) {
                0 => {
                    for _ in 0..rng.gen_range(0..12) {
                        table
                            .append(random_tuple(rng, 3))
                            .expect("schema-valid tuple appends");
                    }
                }
                1 => {
                    let window: Vec<Tuple> = (0..rng.gen_range(0..12))
                        .map(|_| random_tuple(rng, 3))
                        .collect();
                    table
                        .append_batch_slice(&window)
                        .expect("schema-valid batch appends");
                }
                // Retract up to the whole live suffix, or compact.
                2 => {
                    let live = table.live_rows() as u32;
                    let up_to = table.watermark() as usize + rng.gen_range(0..live + 1) as usize;
                    table.retract_prefix(up_to);
                }
                _ => {
                    table.compact_retracted();
                }
            }
            if let Err(v) = table.audit() {
                fail("Table", v);
            }
        }
    }

    fn storm_kdtree(rng: &mut StdRng, rounds: usize) {
        let directions = [Direction::HigherIsBetter, Direction::LowerIsBetter];
        let mut tree = KdTree::new(&directions);
        for round in 0..rounds {
            for i in 0..rng.gen_range(1..10) {
                let t = random_tuple(rng, 1);
                tree.insert((round * 16 + i) as sitfact_core::TupleId, &t);
            }
            if let Err(v) = tree.audit() {
                fail("KdTree", v);
            }
        }
    }

    fn random_cell(rng: &mut StdRng) -> (Constraint, SubspaceMask) {
        let values = (0..2)
            .map(|_| {
                if rng.gen_range(0..3) == 0 {
                    UNBOUND
                } else {
                    rng.gen_range(0..3)
                }
            })
            .collect();
        let subspace = SubspaceMask((rng.gen_range(0..3) + 1) as u32);
        (Constraint::from_values(values), subspace)
    }

    /// Random insert / remove / read churn through row handles, and in
    /// every round one row emptied through a held handle and a new row
    /// created right after — which takes the freed slot when the store frees
    /// rows (`frees_rows`), so slot reuse is audited every round.
    fn storm_store(
        rng: &mut StdRng,
        rounds: usize,
        store: &mut (impl SkylineStore + Audit),
        what: &str,
        frees_rows: bool,
    ) {
        let mut next_id: sitfact_core::TupleId = 0;
        let mut live: Vec<(Constraint, SubspaceMask, sitfact_core::TupleId)> = Vec::new();
        let mut ids = Vec::new();
        for round in 0..rounds {
            for _ in 0..rng.gen_range(1..12) {
                let (constraint, subspace) = random_cell(rng);
                match rng.gen_range(0..5) {
                    // Insert a fresh entry most of the time.
                    0 | 1 => {
                        let mut row = store.find(constraint.values());
                        store.insert(&mut row, constraint.values(), subspace, next_id);
                        live.push((constraint, subspace, next_id));
                        next_id += 1;
                    }
                    // Store a live id in another subspace of its row, so one
                    // id sits in several cells and leaves them one by one.
                    4 => {
                        if let Some(entry) = live.get(rng.gen_range(0..live.len().max(1))) {
                            let (c, id) = (entry.0.clone(), entry.2);
                            if !live.contains(&(c.clone(), subspace, id)) {
                                let mut row = store.find(c.values());
                                store.insert(&mut row, c.values(), subspace, id);
                                live.push((c, subspace, id));
                            }
                        }
                    }
                    // Remove a previously inserted entry.
                    2 => {
                        if !live.is_empty() {
                            let at = rng.gen_range(0..live.len() as u32) as usize;
                            let (c, s, id) = live.swap_remove(at);
                            let mut row = store.find(c.values());
                            let removed = store.remove(&mut row, c.values(), s, id);
                            assert!(removed, "{what}: live entry removes");
                        }
                    }
                    // Read back a random cell (exercises caching paths).
                    _ => {
                        let row = store.find(constraint.values());
                        store.read(row, subspace, &mut ids);
                    }
                }
            }
            // Empty a whole row through one handle …
            let (constraint, subspace) = match live.first() {
                Some((c, _, _)) => (c.clone(), SubspaceMask(1)),
                None => random_cell(rng),
            };
            let mut row = store.find(constraint.values());
            if row.is_none() {
                store.insert(&mut row, constraint.values(), subspace, next_id);
                live.push((constraint.clone(), subspace, next_id));
                next_id += 1;
            }
            let held = row;
            for (c, s, id) in live.iter().filter(|entry| entry.0 == constraint) {
                assert!(store.remove(&mut row, c.values(), *s, *id), "{what}: drain");
            }
            live.retain(|entry| entry.0 != constraint);
            assert_eq!(
                row,
                store.find(constraint.values()),
                "{what}: drained handle"
            );
            assert_eq!(row.is_none(), frees_rows, "{what}: an emptied row");
            // … and create a row no earlier round used: it takes the slot.
            let fresh = Constraint::from_values(vec![100 + round as u32, UNBOUND]);
            let mut created = store.find(fresh.values());
            assert!(created.is_none(), "{what}: fresh constraint");
            store.insert(&mut created, fresh.values(), subspace, next_id);
            live.push((fresh, subspace, next_id));
            next_id += 1;
            if frees_rows {
                assert_eq!(created, held, "{what}: the freed slot is reused");
            }
            store.flush();
            if let Err(v) = store.check() {
                fail(what, v);
            }
        }
    }

    /// The rows the windowed `FactMonitor` keeps after each round.
    const MONITOR_WINDOW: usize = 10;

    /// Returns how many rows the windowed monitor retracted.
    fn storm_monitors(rng: &mut StdRng, rounds: usize) -> usize {
        let schema = schema(3);
        let config = MonitorConfig::default().with_tau(2.0).with_keep_top(4);
        let mut monitor = FactMonitor::new(
            schema.clone(),
            STopDown::new(&schema, config.discovery),
            config,
        );
        let mut sharded = ShardedMonitor::new(schema.clone(), 0, 3, config, STopDown::new)
            .expect("routing dim 0 of 3 is valid");
        let mut retracted = 0;
        for _ in 0..rounds {
            let window: Vec<Tuple> = (0..rng.gen_range(1..6))
                .map(|_| {
                    // Dense dimension values keep discovery fast.
                    let dims = (0..3).map(|_| rng.gen_range(0..4)).collect();
                    let measures = vec![rng.gen_range(0..6) as f64, rng.gen_range(0..6) as f64];
                    Tuple::new(dims, measures)
                })
                .collect();
            let reports = monitor
                .ingest_batch_slice(&window)
                .expect("schema-valid window ingests");
            for report in &reports {
                if let Err(v) = report.check() {
                    fail("ArrivalReport", v);
                }
            }
            sharded
                .ingest_batch_slice(&window)
                .expect("schema-valid window ingests");
            if monitor.len() > MONITOR_WINDOW {
                let up_to = (monitor.len() - MONITOR_WINDOW) as sitfact_core::TupleId;
                retracted += monitor
                    .evict_prefix(up_to)
                    .expect("STopDown retracts expired rows");
            }
            if let Err(v) = monitor.audit() {
                fail("FactMonitor", v);
            }
            if let Err(v) = sharded.audit() {
                fail("ShardedMonitor", v);
            }
        }
        retracted
    }

    pub fn run(seed: u64, rounds: usize) {
        let mut rng = StdRng::seed_from_u64(seed);

        storm_table(&mut rng, rounds);
        storm_kdtree(&mut rng, rounds);
        storm_store(
            &mut rng,
            rounds,
            &mut MemorySkylineStore::new(&SubspaceMask::enumerate(2, 2)),
            "MemorySkylineStore",
            true,
        );
        let dir = std::env::temp_dir().join(format!("sitfact_audit_storm_{seed}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut file_store = FileSkylineStore::new(&dir).expect("temp dir for the file store");
        storm_store(&mut rng, rounds, &mut file_store, "FileSkylineStore", false);
        drop(file_store);
        let _ = std::fs::remove_dir_all(&dir);
        let retracted = storm_monitors(&mut rng, rounds);

        println!(
            "audit_storm: all deep audits passed (seed {seed}, {rounds} rounds, \
             {retracted} rows retracted)"
        );
    }
}
