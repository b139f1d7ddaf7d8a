//! # sitfact-datagen
//!
//! Synthetic workloads and data IO for situational-fact discovery.
//!
//! The paper evaluates on two real datasets (NBA box scores 1991–2004 and UK
//! Met Office forecasts) that are not redistributable here, so this crate
//! provides generators that reproduce their *shape*: the same schemas, similar
//! attribute cardinalities, skewed dimension-value popularity, and correlated
//! measures. The discovery algorithms only ever see dictionary-encoded
//! dimension ids and numeric measures, so these are the properties that drive
//! their cost and output volume — the whole substitution argument, until
//! item 7 of `ROADMAP.md` writes it down next to the experiments.
//!
//! * [`nba`] — synthetic basketball box scores (Table V / Table VI schemas);
//! * [`weather`] — synthetic daily forecasts (7 dimension / 7 measure attributes);
//! * [`stocks`] — a small stock-tick generator used by the examples;
//! * [`generic`] — classic correlated / independent / anti-correlated skyline
//!   workloads with configurable dimensionality and cardinalities;
//! * [`zipf`] — Zipf-skewed high-cardinality dimensions, the adversarial
//!   shape for the compressed context index;
//! * [`csv`] — plain-text import/export so users can run the library on their
//!   own data.

#![warn(missing_docs)]

pub mod csv;
pub mod generic;
pub mod nba;
pub mod rand_util;
pub mod stocks;
pub mod weather;
pub mod zipf;

use sitfact_core::{RawRow, Result, Schema};
use sitfact_storage::Table;

/// A source of synthetic rows under a fixed schema.
pub trait DataGenerator {
    /// The schema the generated rows conform to.
    fn schema(&self) -> &Schema;

    /// Generates the next row. Generators are infinite streams.
    fn next_row(&mut self) -> RawRow;

    /// Generates `n` rows.
    fn take_rows(&mut self, n: usize) -> Vec<RawRow> {
        (0..n).map(|_| self.next_row()).collect()
    }

    /// Generates `n` rows and loads them into a fresh [`Table`].
    fn table_of(&mut self, n: usize) -> Result<Table> {
        let mut table = Table::with_capacity(self.schema().clone(), n);
        let tuples = table.schema_mut().encode_rows(&self.take_rows(n))?;
        table.append_batch_slice(&tuples)?;
        Ok(table)
    }
}

/// Applies a seeded Fisher–Yates permutation to `rows` in place. The same
/// seed always yields the same permutation, so shuffled workloads replay
/// deterministically across runs and machines.
pub fn shuffle_rows(rows: &mut [RawRow], seed: u64) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.gen_range(0..=i));
    }
}

/// Replays a seeded permutation of another generator's output — the
/// order-shuffled adversarial workload.
///
/// The base generators emit rows in a fixed stochastic order (hot players
/// early and often, measures drifting with the season clock), which can mask
/// order-sensitive bugs: a sliding-window monitor's report stream is a
/// function of *arrival order*, not just the row multiset. Wrapping a
/// generator in `ShuffledReplay` drives the same rows through an arbitrary
/// seeded order, so the windowed property tests can check that eviction
/// bookkeeping holds under any permutation. The replay cycles once the
/// permutation is exhausted, keeping the [`DataGenerator`] contract of an
/// infinite stream.
#[derive(Debug, Clone)]
pub struct ShuffledReplay {
    schema: Schema,
    rows: Vec<RawRow>,
    next: usize,
}

impl ShuffledReplay {
    /// Materialises `n` rows from `gen` and shuffles them with `seed`.
    pub fn new<G: DataGenerator + ?Sized>(gen: &mut G, n: usize, seed: u64) -> Self {
        assert!(n > 0, "ShuffledReplay requires at least one row");
        let mut rows = gen.take_rows(n);
        shuffle_rows(&mut rows, seed);
        ShuffledReplay {
            schema: gen.schema().clone(),
            rows,
            next: 0,
        }
    }

    /// The shuffled rows, in replay order.
    pub fn rows(&self) -> &[RawRow] {
        &self.rows
    }
}

impl DataGenerator for ShuffledReplay {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_row(&mut self) -> RawRow {
        let row = self.rows[self.next % self.rows.len()].clone();
        self.next += 1;
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic::{Correlation, GenericConfig, GenericGenerator};

    #[test]
    fn table_of_and_encode_rows_round_trip() {
        let mut gen = GenericGenerator::new(GenericConfig {
            dim_cardinalities: vec![3, 4],
            measures: 2,
            correlation: Correlation::Independent,
            seed: 1,
        });
        let mut table = gen.table_of(50).unwrap();
        assert_eq!(table.len(), 50);
        let rows = gen.take_rows(1);
        let tuple = &table.schema_mut().encode_rows(&rows).unwrap()[0];
        assert_eq!(tuple.num_dims(), 2);
        assert_eq!(tuple.num_measures(), 2);
    }

    fn generator(seed: u64) -> GenericGenerator {
        GenericGenerator::new(GenericConfig {
            dim_cardinalities: vec![4, 3],
            measures: 2,
            correlation: Correlation::Independent,
            seed,
        })
    }

    #[test]
    fn shuffled_replay_is_a_deterministic_permutation() {
        let baseline = generator(7).take_rows(40);
        let mut replay_a = ShuffledReplay::new(&mut generator(7), 40, 11);
        let mut replay_b = ShuffledReplay::new(&mut generator(7), 40, 11);
        let rows_a = replay_a.take_rows(40);
        assert_eq!(rows_a, replay_b.take_rows(40), "same seed, same order");

        // A permutation of the base output: same multiset, different order.
        let mut sorted_base: Vec<String> = baseline.iter().map(|r| format!("{r:?}")).collect();
        let mut sorted_shuffled: Vec<String> = rows_a.iter().map(|r| format!("{r:?}")).collect();
        sorted_base.sort();
        sorted_shuffled.sort();
        assert_eq!(sorted_base, sorted_shuffled);
        assert_ne!(baseline, rows_a, "seed 11 must actually reorder 40 rows");

        // A different seed yields a different order over the same rows.
        let other = ShuffledReplay::new(&mut generator(7), 40, 12);
        assert_ne!(rows_a, other.rows());

        // The replay cycles: row n equals row 0 of the permutation.
        assert_eq!(replay_a.next_row(), rows_a[0]);
        assert_eq!(replay_a.schema().num_dimensions(), 2);
    }
}
