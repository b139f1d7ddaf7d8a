//! `ContextCounter::approx_heap_bytes` against what the process really pays
//! for the counter: a fresh child process (this test binary, run again on
//! the ignored test below) observes a seeded stream shaped like the NBA
//! workload's, and the estimate must fall within ±15 % of the growth of its
//! resident set. The child keeps the measurement clear of whatever the other
//! tests of this binary allocate, and needs no allocator hook. Linux only:
//! the resident set is read from `/proc/self/status`.

use rand::prelude::*;
use sitfact_core::Tuple;
use sitfact_storage::ContextCounter;

/// Tuples observed.
const TUPLES: usize = 30_000;

/// Distinct values per dimension: player, team, opponent, season, month —
/// the five dimensions of the NBA workload, counted at `d̂ = 3`.
const CARDINALITIES: [u32; 5] = [600, 30, 30, 12, 8];

/// The seeded stream: every dimension drawn with a skew towards low values,
/// so some contexts grow large while most stay small.
fn stream() -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(2_028);
    (0..TUPLES)
        .map(|_| {
            let dims = CARDINALITIES
                .iter()
                .map(|&n| {
                    let a = rng.gen_range(0..n);
                    let b = rng.gen_range(0..n);
                    a.min(b)
                })
                .collect();
            Tuple::new(dims, vec![0.0])
        })
        .collect()
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

/// Run in the child: observes the stream and prints the estimate next to
/// the resident-set growth.
#[test]
#[ignore = "measured in a child process by estimate_reconciles_with_resident_set"]
fn observe_and_measure() {
    let tuples = stream();
    let before = resident_bytes();
    let mut counter = ContextCounter::new(CARDINALITIES.len(), 3);
    for tuple in &tuples {
        counter.observe(tuple);
    }
    let grown = resident_bytes() - before;
    assert_eq!(counter.observed_tuples(), TUPLES as u64);
    println!(
        "counter-memory estimate={} resident={grown} constraints={}",
        counter.approx_heap_bytes(),
        counter.tracked_constraints()
    );
}

#[cfg(target_os = "linux")]
#[test]
fn estimate_reconciles_with_resident_set() {
    let output = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["observe_and_measure", "--exact", "--ignored", "--nocapture"])
        .args(["--test-threads", "1"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "child failed:\n{stdout}");
    // The harness prints the test's name on the same line.
    let line = stdout
        .lines()
        .find_map(|line| line.split_once("counter-memory ").map(|(_, fields)| fields))
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
    assert!(field("constraints") >= 100_000.0, "{line}");
    let error = estimate / resident - 1.0;
    assert!(
        error.abs() <= 0.15,
        "estimate {estimate} vs resident growth {resident}: {:+.1} %",
        error * 100.0
    );
}
