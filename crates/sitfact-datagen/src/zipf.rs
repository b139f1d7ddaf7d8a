//! Zipf-skewed high-cardinality workload (the ROADMAP's "adversarial
//! workload diversity" item).
//!
//! Every dimension draws its value from an independent Zipf distribution over
//! a configurable domain: a handful of head values dominate the stream while
//! a long tail of values appears once or twice. That is the adversarial shape
//! for the context index — posting lists range from table-sized (head values,
//! highly compressible small gaps) to singletons (tail values, pure per-entry
//! overhead) — and for discovery, because high-cardinality columns spawn many
//! one-off contexts. The benchmark's `zipf_paced` workload (`bench_e2e`)
//! streams this generator.

use crate::rand_util::ZipfSampler;
use crate::DataGenerator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sitfact_core::{Direction, RawRow, Schema, SchemaBuilder};

/// Configuration of a [`ZipfGenerator`].
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfConfig {
    /// Domain size of each dimension attribute. High cardinalities (thousands
    /// of values) make the workload adversarial: most values map to tiny
    /// posting lists.
    pub dim_cardinalities: Vec<usize>,
    /// Zipf exponent shared by all dimensions; larger is more skewed. The
    /// default 1.2 concentrates roughly half the draws on the top ~1% of a
    /// 5000-value domain.
    pub exponent: f64,
    /// Number of measure attributes (independent uniform integers, all
    /// higher-is-better).
    pub measures: usize,
    /// RNG seed (generation is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for ZipfConfig {
    fn default() -> Self {
        ZipfConfig {
            dim_cardinalities: vec![5000, 500, 32, 8],
            exponent: 1.2,
            measures: 3,
            seed: 42,
        }
    }
}

/// Generator of Zipf-skewed rows; see the [module docs](self).
#[derive(Debug)]
pub struct ZipfGenerator {
    schema: Schema,
    samplers: Vec<ZipfSampler>,
    measures: usize,
    rng: StdRng,
}

impl ZipfGenerator {
    /// Creates the generator; the schema's dimensions are named `d0, d1, …`
    /// and its measures `m0, m1, …`. Dimension value `i` of attribute `a` is
    /// rendered as `d{a}_v{i}`, so value popularity ranks are stable across
    /// runs and seeds.
    pub fn new(config: ZipfConfig) -> Self {
        let mut builder = SchemaBuilder::new("zipf");
        for i in 0..config.dim_cardinalities.len() {
            builder = builder.dimension(format!("d{i}"));
        }
        for i in 0..config.measures {
            builder = builder.measure(format!("m{i}"), Direction::HigherIsBetter);
        }
        #[expect(
            clippy::expect_used,
            reason = "schema built from loop-generated unique names, cannot collide"
        )]
        let schema = builder.build().expect("zipf schema is valid");
        let samplers = config
            .dim_cardinalities
            .iter()
            .map(|&card| ZipfSampler::new(card.max(1), config.exponent))
            .collect();
        ZipfGenerator {
            schema,
            samplers,
            measures: config.measures,
            rng: StdRng::seed_from_u64(config.seed),
        }
    }
}

impl DataGenerator for ZipfGenerator {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_row(&mut self) -> RawRow {
        let dims = self
            .samplers
            .iter()
            .enumerate()
            .map(|(a, sampler)| format!("d{a}_v{}", sampler.sample(&mut self.rng)))
            .collect();
        let measures = (0..self.measures)
            .map(|_| self.rng.gen_range(0.0..1000.0f64).round())
            .collect();
        RawRow { dims, measures }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = ZipfConfig::default();
        let mut a = ZipfGenerator::new(cfg.clone());
        let mut b = ZipfGenerator::new(cfg);
        assert_eq!(a.take_rows(50), b.take_rows(50));
    }

    #[test]
    fn dims_respect_cardinality_and_schema_shape() {
        let mut gen = ZipfGenerator::new(ZipfConfig {
            dim_cardinalities: vec![10, 3],
            exponent: 1.0,
            measures: 2,
            seed: 5,
        });
        let table = gen.table_of(300).unwrap();
        assert_eq!(table.schema().num_dimensions(), 2);
        assert_eq!(table.schema().num_measures(), 2);
        assert!(table.schema().dictionary(0).len() <= 10);
        assert!(table.schema().dictionary(1).len() <= 3);
    }

    #[test]
    fn head_values_dominate_the_stream() {
        let mut gen = ZipfGenerator::new(ZipfConfig {
            dim_cardinalities: vec![1000],
            exponent: 1.2,
            measures: 1,
            seed: 11,
        });
        let rows = gen.take_rows(2000);
        let head = rows.iter().filter(|r| r.dims[0] == "d0_v0").count();
        let mid = rows.iter().filter(|r| r.dims[0] == "d0_v100").count();
        // The rank-0 value must be drawn far more often than a mid-rank one.
        assert!(
            head > 100 && head > 10 * mid.max(1),
            "head {head}, mid {mid}"
        );
    }
}
