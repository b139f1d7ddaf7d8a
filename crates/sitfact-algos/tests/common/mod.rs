//! The workload the integration tests of the lattice kinds share.

use rand::prelude::*;
use sitfact_core::dominance::dominates;
use sitfact_core::{Direction, DiscoveryConfig, Schema, SchemaBuilder, SubspaceMask, Tuple};
use sitfact_storage::{StoreCell, Table};

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

/// Holds exported skyline cells to the table they index: every stored id is
/// a live row, and every cell is its own skyline by the table's measures —
/// no stored tuple dominates another in the cell's subspace.
pub fn audit_cells(cells: &[StoreCell], table: &Table) {
    let directions = table.schema().directions();
    for cell in cells {
        let subspace = SubspaceMask(cell.subspace);
        for &id in &cell.entries {
            assert!(
                table.is_live(id),
                "cell ({:?}, {subspace:?}) stores {id}, not a live row",
                cell.constraint
            );
        }
        for &a in &cell.entries {
            for &b in &cell.entries {
                assert!(
                    !dominates(table.tuple(a), table.tuple(b), subspace, directions),
                    "cell ({:?}, {subspace:?}): stored {a} dominates stored {b}",
                    cell.constraint
                );
            }
        }
    }
}
