//! `MemorySkylineStore::stats().approx_bytes` against what the process
//! really pays for the store: a fresh child process (this test binary, run
//! again on the ignored test below) fills a store with a seeded population
//! shaped like a long-running monitor's, and the estimate must fall within
//! ±15 % of the growth of its resident set. A child keeps the measurement
//! clear of whatever the other tests of this binary allocate, and needs no
//! allocator hook. Linux only: the resident set is read from
//! `/proc/self/status`.
#![allow(
    clippy::unwrap_used,
    reason = "test code: a failed unwrap is a failed test"
)]

use rand::prelude::*;
use sitfact_core::{DimValueId, SubspaceMask, TupleId, UNBOUND};
use sitfact_storage::{MemorySkylineStore, SkylineStore};

/// Constraints in the population; about 3.2 ids each.
const CONSTRAINTS: u32 = 40_000;

/// The 15 subspaces a four-measure schema keeps at `m̂ = 3`, plus the full
/// space.
const SUBSPACES: u32 = 15;

/// `(constraint, subspace, id)` for every stored id, in a seeded random
/// order: each constraint has one to three non-empty cells, 69 % of the
/// cells hold one id and the rest two to four — the shape of the end state
/// of a long NBA stream at `d̂ = m̂ = 3`.
fn population() -> Vec<(u32, SubspaceMask, TupleId)> {
    let mut rng = StdRng::seed_from_u64(2_026);
    let mut entries = Vec::new();
    let mut next_id: TupleId = 0;
    for constraint in 0..CONSTRAINTS {
        let first = rng.gen_range(0..SUBSPACES);
        for cell in 0..rng.gen_range(1..4u32) {
            let subspace = SubspaceMask(1 + (first + 5 * cell) % SUBSPACES);
            let ids = if rng.gen_range(0..100) < 69 {
                1
            } else {
                rng.gen_range(2..5)
            };
            for _ in 0..ids {
                entries.push((constraint, subspace, next_id));
                next_id += 1;
            }
        }
    }
    // Fisher–Yates: rows grow interleaved, as they do under a stream.
    for i in (1..entries.len()).rev() {
        entries.swap(i, rng.gen_range(0..=i));
    }
    entries
}

/// Five dimensions, at most three bound: the keys of a `d̂ = 3` lattice.
fn constraint(k: u32) -> [DimValueId; 5] {
    [k, UNBOUND, k % 97, UNBOUND, k % 13]
}

/// This process's resident set in bytes.
fn resident_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status
        .lines()
        .find(|line| line.starts_with("VmRSS:"))
        .unwrap();
    let kib: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    kib * 1024
}

/// Run in the child: fills a store and prints the estimate next to the
/// resident-set growth.
#[test]
#[ignore = "measured in a child process by estimate_reconciles_with_resident_set"]
fn fill_and_measure() {
    let entries = population();
    assert!(entries.len() >= 100_000, "{} ids", entries.len());
    let before = resident_bytes();
    let mut store = MemorySkylineStore::new();
    for &(k, subspace, id) in &entries {
        let key = constraint(k);
        let mut row = store.find(&key);
        store.insert(&mut row, &key, subspace, id);
    }
    let grown = resident_bytes() - before;
    let stats = store.stats();
    assert_eq!(stats.stored_entries, entries.len() as u64);
    println!(
        "store-memory estimate={} resident={grown} entries={} cells={}",
        stats.approx_bytes, stats.stored_entries, stats.non_empty_cells
    );
}

#[cfg(target_os = "linux")]
#[test]
fn estimate_reconciles_with_resident_set() {
    let output = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["fill_and_measure", "--exact", "--ignored", "--nocapture"])
        .args(["--test-threads", "1"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "child failed:\n{stdout}");
    // The harness prints the test's name on the same line.
    let line = stdout
        .lines()
        .find_map(|line| line.split_once("store-memory ").map(|(_, fields)| fields))
        .unwrap_or_else(|| panic!("no measurement in:\n{stdout}"));
    let field = |name: &str| -> f64 {
        let prefix = format!("{name}=");
        line.split_whitespace()
            .find_map(|field| field.strip_prefix(prefix.as_str()))
            .unwrap()
            .parse()
            .unwrap()
    };
    let (estimate, resident) = (field("estimate"), field("resident"));
    let error = estimate / resident - 1.0;
    assert!(
        error.abs() <= 0.15,
        "estimate {estimate} vs resident growth {resident}: {:+.1} %",
        error * 100.0
    );
}
