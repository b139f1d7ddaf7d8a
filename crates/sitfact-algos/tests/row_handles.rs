//! Handles ≡ keys ≡ oracle. The lattice kinds answer
//! `skyline_cardinality_at` for a constraint of the last arrival's `C^t`
//! through the store rows that arrival resolved, and for any other
//! constraint by hashing it; both must equal the skyline recomputed from the
//! table. Generated runs interleave per-arrival discovery, batched windows,
//! evictions (`retract_prefix`, then `retract` per id) and export →
//! `import_store_cells` into a fresh instance, over the four in-memory kinds
//! and the two file-backed twins, and check after every arrival:
//!
//! * each discovered pair (its rows resolved by the arrival),
//! * one constraint of an older live tuple — mostly outside `C^t`, so it
//!   takes the hashed fallback,
//!
//! and after every eviction every constraint of the last arrival's `C^t` in
//! every subspace: `retract` walks `C^x` of the expired rows, empties store
//! rows and creates others in their slots, and a row handle resolved by the
//! arrival before it must not be read afterwards.

mod common;

use common::{audit_cells, random_tuple, schema, shapes};
use proptest::prelude::*;
use rand::prelude::*;
use sitfact_algos::common::{skyline_cardinality_recompute, AlgoParams};
use sitfact_algos::{AlgorithmKind, Discovery};
use sitfact_core::{
    Constraint, DiscoveryConfig, Schema, SkylinePair, SubspaceMask, Tuple, TupleId,
};
use sitfact_storage::Table;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const KINDS: [AlgorithmKind; 6] = [
    AlgorithmKind::BottomUp,
    AlgorithmKind::TopDown,
    AlgorithmKind::SBottomUp,
    AlgorithmKind::STopDown,
    AlgorithmKind::FsBottomUp,
    AlgorithmKind::FsTopDown,
];

/// One step of a run: `(op, width)`; `op` 0 arrives `width` rows one by
/// one, 1 arrives them as one batched window, 2 evicts up to `width` rows,
/// 3 moves the store into a fresh instance.
type Step = (u32, usize);

/// A scratch directory for a file-backed store, unique per call.
fn scratch_dir() -> PathBuf {
    static CALL: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "sitfact-row-handles-{}-{}",
        std::process::id(),
        CALL.fetch_add(1, Ordering::Relaxed)
    ))
}

/// One algorithm, the table it is driven against, and what the checks need.
struct Run {
    kind: AlgorithmKind,
    schema: Schema,
    config: DiscoveryConfig,
    dir: PathBuf,
    params: AlgoParams,
    table: Table,
    algo: Box<dyn Discovery>,
    /// The last arrival.
    last: Option<TupleId>,
    rng: StdRng,
}

impl Run {
    fn new(kind: AlgorithmKind, m: usize, config: DiscoveryConfig, seed: u64) -> Self {
        let schema = schema(m);
        let dir = scratch_dir();
        let algo = kind.build(&schema, config, Some(&dir)).unwrap();
        Run {
            kind,
            params: AlgoParams::new(&schema, config),
            table: Table::new(schema.clone()),
            schema,
            config,
            dir,
            algo,
            last: None,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The store's answer for `(c, m)` against the recomputed skyline of the
    /// rows before `limit`.
    fn agree(&mut self, c: &Constraint, m: SubspaceMask, limit: TupleId) -> Result<(), String> {
        let got = self.algo.skyline_cardinality_at(&self.table, c, m, limit);
        let truth = skyline_cardinality_recompute(&self.table, c, m, limit);
        if got != truth {
            return Err(format!(
                "{}: |λ({c:?}, {m:?})| reads {got}, the table says {truth}",
                self.kind
            ));
        }
        Ok(())
    }

    /// After the arrival `id` discovered `pairs`: every pair through the
    /// arrival's rows, and one older live tuple's constraint by hashing.
    fn check_arrival(&mut self, id: TupleId, pairs: Vec<SkylinePair>) -> Result<(), String> {
        let limit = id + 1;
        for pair in &pairs {
            self.agree(&pair.constraint, pair.subspace, limit)?;
        }
        if !pairs.is_empty() {
            let pair = &pairs[self.rng.gen_range(0..pairs.len())];
            let older = self.rng.gen_range(self.table.watermark()..limit);
            if self.table.is_live(older) {
                let mask = pair.constraint.bound_mask();
                let other = Constraint::from_tuple_mask(self.table.tuple(older), mask);
                self.agree(&other, pair.subspace, limit)?;
            }
        }
        self.last = Some(id);
        Ok(())
    }

    fn arrive_one_by_one(&mut self, tuples: &[Tuple]) -> Result<(), String> {
        for t in tuples {
            let pairs = self.algo.discover(&self.table, t);
            let id = self.table.append(t.clone()).unwrap();
            self.check_arrival(id, pairs)?;
        }
        Ok(())
    }

    fn arrive_batched(&mut self, tuples: &[Tuple]) -> Result<(), String> {
        let ids = self.table.append_batch_slice(tuples).unwrap();
        self.algo.begin_batch(tuples.len());
        for (t, id) in tuples.iter().zip(ids) {
            let pairs = self.algo.discover_at(&self.table, t, id);
            self.check_arrival(id, pairs)?;
        }
        self.algo.end_batch();
        Ok(())
    }

    /// Evicts up to `width` rows, always keeping the last arrival, then asks
    /// for every constraint of its `C^t` in every subspace.
    fn evict(&mut self, width: usize) -> Result<(), String> {
        let live = self.table.live_rows();
        if live < 2 {
            return Ok(());
        }
        let start = self.table.watermark();
        let newly = self
            .table
            .retract_prefix(start as usize + width.min(live - 1));
        for id in start..start + newly as TupleId {
            self.algo.retract(&self.table, id).unwrap();
        }
        if width.is_multiple_of(2) {
            self.table.compact_retracted();
        }
        if let Some(cells) = self.algo.export_store_cells() {
            audit_cells(&cells, &self.table);
        }
        let (Some(last), limit) = (self.last, self.table.next_id()) else {
            return Ok(());
        };
        let mut subspaces = self.params.subspaces.clone();
        subspaces.push(self.params.full_space);
        for mask in self.params.top_down.clone() {
            let c = Constraint::from_tuple_mask(self.table.tuple(last), mask);
            for &m in &subspaces {
                self.agree(&c, m, limit)?;
            }
        }
        Ok(())
    }

    /// Exports the store into a fresh instance of the same kind, which
    /// carries on in its place (the file-backed kinds cannot export).
    fn move_store(&mut self) {
        let Some(cells) = self.algo.export_store_cells() else {
            return;
        };
        let mut fresh = self.kind.build(&self.schema, self.config, None).unwrap();
        fresh.import_store_cells(cells).unwrap();
        self.algo = fresh;
    }
}

impl Drop for Run {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn drive(kind: AlgorithmKind, shape: usize, seed: u64, steps: &[Step]) -> Result<(), String> {
    let (m, config) = shapes()[shape];
    let mut run = Run::new(kind, m, config, seed);
    let mut rows = StdRng::seed_from_u64(seed ^ 0x5eed);
    for &(op, width) in steps {
        let tuples: Vec<Tuple> = (0..width).map(|_| random_tuple(&mut rows, m)).collect();
        match op {
            0 => run.arrive_one_by_one(&tuples)?,
            1 => run.arrive_batched(&tuples)?,
            2 => run.evict(width)?,
            _ => run.move_store(),
        }
    }
    Ok(())
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((0u32..4, 1usize..9), 4..16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn handles_equal_keys_equal_the_oracle(
        seed in 0u64..1_000_000,
        shape in 0usize..3,
        steps in steps(),
    ) {
        for kind in KINDS {
            drive(kind, shape, seed, &steps)
                .map_err(|err| format!("shape {shape}, seed {seed}, {steps:?}: {err}"))?;
        }
    }
}
