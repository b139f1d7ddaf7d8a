//! # sitfact-bench
//!
//! Experiment harness reproducing every figure of the evaluation section of
//! *Incremental Discovery of Prominent Situational Facts* (ICDE 2014).
//!
//! Each figure has a dedicated binary under `src/bin/` (`fig07_baselines` …
//! `fig15_distribution`, `run_all`, `case_study`; the other experiments and
//! their result schemas are in `crates/sitfact-bench/README.md`); this
//! library holds the shared plumbing:
//!
//! * [`params`] — the paper's parameter grids (Table V/VI dimension and
//!   measure spaces, default `d̂`/`m̂`, sweep ranges) scaled to laptop sizes;
//! * [`harness`] — streaming drivers that measure per-tuple latency, work
//!   counters and storage growth for any
//!   [`AlgorithmKind`](sitfact_algos::AlgorithmKind);
//! * [`report`] — plain-text/CSV emission of the series each figure plots.
//!
//! The absolute numbers differ from the paper's (Java on 2009-era hardware vs
//! native Rust, and smaller default stream sizes); the *relationships* between
//! algorithms are what the binaries reproduce. Nothing checks or records
//! them yet: item 7 of `ROADMAP.md` is the plan for that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod params;
pub mod report;

pub use harness::{
    drive_windows, drive_windows_count, generate_rows, run_prominence_study, run_stream,
    sweep_dimensions, sweep_measures, DatasetKind, ProminenceStudy, SeriesPoint, StreamOutcome,
};
pub use params::ExperimentParams;
pub use report::{print_series_csv, print_table, Series};
