//! The workload the integration tests of the lattice kinds share.

use rand::prelude::*;
use sitfact_core::{Direction, DiscoveryConfig, Schema, SchemaBuilder, Tuple};

/// Three dimensions, `m` measures of mixed direction.
pub fn schema(m: usize) -> Schema {
    let mut b = SchemaBuilder::new("s")
        .dimension("d1")
        .dimension("d2")
        .dimension("d3");
    for i in 0..m {
        let dir = if i % 3 == 1 {
            Direction::LowerIsBetter
        } else {
            Direction::HigherIsBetter
        };
        b = b.measure(format!("m{i}"), dir);
    }
    b.build().unwrap()
}

/// `(measures, config)`: two measures unrestricted, the benchmark's shape
/// (`d̂ < d`, and `m̂ < m`: the sharing kinds maintain the full space without
/// reporting it), and three measures unrestricted.
pub fn shapes() -> [(usize, DiscoveryConfig); 3] {
    [
        (2, DiscoveryConfig::unrestricted()),
        (3, DiscoveryConfig::capped(2, 2)),
        (3, DiscoveryConfig::unrestricted()),
    ]
}

pub fn random_tuple(rng: &mut StdRng, m: usize) -> Tuple {
    let dims = vec![
        rng.gen_range(0..3u32),
        rng.gen_range(0..2u32),
        rng.gen_range(0..3u32),
    ];
    Tuple::new(dims, (0..m).map(|_| rng.gen_range(0..5) as f64).collect())
}
