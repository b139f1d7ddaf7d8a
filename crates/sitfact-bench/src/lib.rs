//! # sitfact-bench
//!
//! Experiment harness of the workspace. It holds two things:
//!
//! * the reproduction of the evaluation section of *Incremental Discovery of
//!   Prominent Situational Facts* (ICDE 2014): the `figures` binary, one
//!   table row per figure (Figs. 7–15 and the §VII case study), plus the
//!   criterion micro-benchmarks under `benches/`;
//! * `bench_e2e`, the repository's end-to-end benchmark (`src/bin/bench_e2e/`,
//!   also a package of its own).
//!
//! `audit_storm` rides along as the randomized deep-audit smoke binary of the
//! CI `analyze` step. Usage and the record of the retired experiments are in
//! `crates/sitfact-bench/README.md`. This library holds the shared plumbing:
//!
//! * [`params`] — the paper's parameter grids (Table V/VI dimension and
//!   measure spaces, default `d̂`/`m̂`, sweep ranges) scaled to laptop sizes;
//! * [`harness`] — streaming drivers that measure per-tuple latency, work
//!   counters and storage growth for any
//!   [`AlgorithmKind`](sitfact_algos::AlgorithmKind), and the prominence
//!   study behind Figs. 14–15;
//! * [`report`] — plain-text/CSV emission of the series each figure plots.
//!
//! The absolute numbers differ from the paper's (Java on 2009-era hardware vs
//! native Rust, and smaller default stream sizes); the *relationships* between
//! algorithms are what `figures` reproduces. Nothing checks or records them
//! yet: item 7 of `ROADMAP.md` is the plan for that.

#![warn(missing_docs)]

pub mod harness;
pub mod params;
pub mod report;

pub use harness::{
    generate_rows, run_prominence_study, run_stream, sweep_dimensions, sweep_measures, DatasetKind,
    ProminenceStudy, SeriesPoint, StreamOutcome,
};
pub use params::ExperimentParams;
pub use report::{print_series_csv, print_table, Series};
