//! Generic skyline workloads: correlated, independent and anti-correlated
//! measures with configurable dimension cardinalities.
//!
//! These are the standard synthetic workload families of the skyline
//! literature (Börzsönyi et al., ICDE 2001); they are used by the ablation
//! benches and by tests that need workloads with a controllable number of
//! skyline tuples.

use crate::rand_util::normal;
use crate::DataGenerator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sitfact_core::{Direction, RawRow, Schema, SchemaBuilder};

/// Correlation structure of the generated measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Correlation {
    /// Measures rise and fall together (few skyline tuples).
    Correlated,
    /// Measures are independent.
    Independent,
    /// Good values on one measure imply bad values on the others (many
    /// skyline tuples — the hardest case for skyline maintenance).
    AntiCorrelated,
}

/// Configuration of a [`GenericGenerator`].
#[derive(Debug, Clone, PartialEq)]
pub struct GenericConfig {
    /// Cardinality of each dimension attribute (its active domain size).
    pub dim_cardinalities: Vec<usize>,
    /// Number of measure attributes.
    pub measures: usize,
    /// Correlation family of the measures.
    pub correlation: Correlation,
    /// RNG seed (generation is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for GenericConfig {
    fn default() -> Self {
        GenericConfig {
            dim_cardinalities: vec![10, 10, 10],
            measures: 3,
            correlation: Correlation::Independent,
            seed: 42,
        }
    }
}

/// Generator of generic skyline workloads.
#[derive(Debug)]
pub struct GenericGenerator {
    schema: Schema,
    config: GenericConfig,
    rng: StdRng,
}

impl GenericGenerator {
    /// Creates the generator; the schema's dimensions are named `d0, d1, …`
    /// and its measures `m0, m1, …` (all higher-is-better).
    pub fn new(config: GenericConfig) -> Self {
        let mut builder = SchemaBuilder::new("generic");
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
        let schema = builder.build().expect("generic schema is valid");
        let rng = StdRng::seed_from_u64(config.seed);
        GenericGenerator {
            schema,
            config,
            rng,
        }
    }

    fn measures(&mut self) -> Vec<f64> {
        let m = self.config.measures;
        match self.config.correlation {
            Correlation::Independent => (0..m)
                .map(|_| (self.rng.gen_range(0.0..1000.0f64)).round())
                .collect(),
            Correlation::Correlated => {
                let base: f64 = self.rng.gen_range(0.0..1000.0);
                (0..m)
                    .map(|_| {
                        (base + normal(&mut self.rng, 0.0, 50.0))
                            .clamp(0.0, 1000.0)
                            .round()
                    })
                    .collect()
            }
            Correlation::AntiCorrelated => {
                // Points near a hyperplane x0 + x1 + … = constant: being good
                // somewhere forces being bad elsewhere.
                let mut values: Vec<f64> = (0..m).map(|_| self.rng.gen_range(0.0..1.0)).collect();
                let sum: f64 = values.iter().sum();
                let scale = if sum > 0.0 { 1000.0 / sum } else { 0.0 };
                for v in &mut values {
                    *v = (*v * scale * (m as f64) / 2.0 + normal(&mut self.rng, 0.0, 20.0))
                        .clamp(0.0, 2000.0)
                        .round();
                }
                values
            }
        }
    }
}

impl DataGenerator for GenericGenerator {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_row(&mut self) -> RawRow {
        let dims = self
            .config
            .dim_cardinalities
            .iter()
            .enumerate()
            .map(|(i, &card)| format!("d{i}_v{}", self.rng.gen_range(0..card.max(1))))
            .collect();
        RawRow {
            dims,
            measures: self.measures(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitfact_core::{dominance, SubspaceMask};

    fn skyline_size(correlation: Correlation) -> usize {
        let mut gen = GenericGenerator::new(GenericConfig {
            dim_cardinalities: vec![2],
            measures: 3,
            correlation,
            seed: 7,
        });
        let table = gen.table_of(600).unwrap();
        let dirs = table.schema().directions().to_vec();
        dominance::skyline_of(table.iter(), SubspaceMask::full(3), &dirs).len()
    }

    #[test]
    fn correlation_controls_skyline_size() {
        let correlated = skyline_size(Correlation::Correlated);
        let independent = skyline_size(Correlation::Independent);
        let anti = skyline_size(Correlation::AntiCorrelated);
        assert!(
            correlated < independent && independent < anti,
            "expected correlated ({correlated}) < independent ({independent}) < anti ({anti})"
        );
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = GenericConfig::default();
        let mut a = GenericGenerator::new(cfg.clone());
        let mut b = GenericGenerator::new(cfg);
        assert_eq!(a.take_rows(20), b.take_rows(20));
    }

    #[test]
    fn dims_respect_cardinality() {
        let mut gen = GenericGenerator::new(GenericConfig {
            dim_cardinalities: vec![2, 3],
            measures: 1,
            correlation: Correlation::Independent,
            seed: 9,
        });
        let table = gen.table_of(200).unwrap();
        assert!(table.schema().dictionary(0).len() <= 2);
        assert!(table.schema().dictionary(1).len() <= 3);
        assert_eq!(table.schema().num_measures(), 1);
    }
}
