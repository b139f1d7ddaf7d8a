//! The cell-order contract of `SkylineStore`, held directly: seeded random
//! sequences of `insert` / `remove` / `contains` / `read` / `flush` drive
//! both backends next to a per-cell `Vec<TupleId>` model that appends on
//! insert and swap-removes on remove, and after every step every cell must
//! read back exactly as the model says, in the model's order.

use proptest::prelude::*;
use sitfact_core::{Constraint, SubspaceMask, TupleId, UNBOUND};
use sitfact_storage::{FileSkylineStore, MemorySkylineStore, SkylineStore};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A few constraints sharing value ids, so rows and file names collide the
/// way real lattices do.
fn constraints() -> [Constraint; 3] {
    [
        Constraint::from_values(vec![1, UNBOUND]),
        Constraint::from_values(vec![1, 2]),
        Constraint::from_values(vec![UNBOUND, UNBOUND]),
    ]
}

/// Subspaces that interleave within one row.
const SUBSPACES: [SubspaceMask; 3] = [
    SubspaceMask(0b001),
    SubspaceMask(0b011),
    SubspaceMask(0b110),
];

/// `(op, constraint, subspace, id)`; `op` 0–1 insert, 2 remove, 3 contains,
/// 4 read, 5 flush.
type Op = (u32, usize, usize, TupleId);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u32..6, 0usize..3, 0usize..3, 0u32..10), 1..150)
}

/// Applies `ops` to `store` and to the model, comparing after every step.
fn drive(store: &mut impl SkylineStore, ops: &[Op]) -> Result<(), String> {
    let constraints = constraints();
    let mut model: Vec<Vec<TupleId>> = vec![Vec::new(); constraints.len() * SUBSPACES.len()];
    let mut ids = Vec::new();
    for (step, &(op, c, m, id)) in ops.iter().enumerate() {
        let (constraint, subspace) = (constraints[c].values(), SUBSPACES[m]);
        let mut row = store.find(constraint);
        let cell = &mut model[c * SUBSPACES.len() + m];
        match op {
            0 | 1 => {
                // Callers never insert an id a cell already holds.
                if !cell.contains(&id) {
                    store.insert(&mut row, constraint, subspace, id);
                    cell.push(id);
                }
            }
            2 => {
                let expected = match cell.iter().position(|&x| x == id) {
                    Some(pos) => {
                        cell.swap_remove(pos);
                        true
                    }
                    None => false,
                };
                let removed = store.remove(&mut row, constraint, subspace, id);
                prop_assert_eq!(removed, expected);
            }
            3 => {
                let contained = store.contains(row, subspace, id);
                prop_assert_eq!(contained, cell.contains(&id));
            }
            4 => {
                store.read(row, subspace, &mut ids);
                prop_assert_eq!(&ids, cell);
            }
            _ => store.flush(),
        }
        for (at, expected) in model.iter().enumerate() {
            let (c, m) = (at / SUBSPACES.len(), at % SUBSPACES.len());
            let row = store.find(constraints[c].values());
            store.read(row, SUBSPACES[m], &mut ids);
            prop_assert!(
                ids == *expected,
                "step {step}: cell ({c}, {m}) reads {ids:?}, the model holds {expected:?}"
            );
        }
    }
    store.flush();
    let stats = store.stats();
    let entries: usize = model.iter().map(Vec::len).sum();
    let cells = model.iter().filter(|cell| !cell.is_empty()).count();
    prop_assert_eq!(stats.stored_entries, entries as u64);
    prop_assert_eq!(stats.non_empty_cells, cells as u64);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memory_store_keeps_cell_order(ops in ops()) {
        drive(&mut MemorySkylineStore::new(), &ops)?;
    }

    #[test]
    fn file_store_keeps_cell_order(ops in ops()) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sitfact-store-order-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = FileSkylineStore::new(&dir).map_err(|err| err.to_string())?;
        let outcome = drive(&mut store, &ops);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        outcome?;
    }
}
