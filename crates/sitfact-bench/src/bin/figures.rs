//! Reproduces the paper's evaluation (Sultana et al., ICDE 2014, §VI
//! Figs. 7–15) and its §VII case study in one process. Each figure is one
//! row of [`FIGURES`]: dataset, seed, stream length, algorithm kinds, sweeps,
//! store backing, and the panels it prints — an aligned table per panel plus
//! `csv,<panel>,<series>,<x>,<y>` rows for `grep ^csv`.
//!
//! Usage: `figures [--fig 7|8|…|15|case|all] [--n N] [--seed S]`
//!
//! `--fig` defaults to `all`. `--n` replaces each selected figure's stream
//! length; its `d` / `m` sweeps keep their ratio to `n`, and its prominence
//! thresholds τ scale linearly from their values at the row's `n`. `--seed`
//! replaces the row's dataset seed. An unknown flag exits 1 and an unparsable
//! value panics, both naming the flag; a figure that panics ends the process
//! with a non-zero status too. The row defaults run for minutes: pass a small
//! `--n` for a quick pass.

use sitfact_algos::AlgorithmKind::{self, *};
use sitfact_bench::params::{D_SWEEP, M_SWEEP};
use sitfact_bench::DatasetKind::{self, Nba, Weather};
use sitfact_bench::{
    generate_rows, print_series_csv, print_table, run_prominence_study, run_stream,
    sweep_dimensions, sweep_measures, ExperimentParams, ProminenceStudy, Series, SeriesPoint,
    StreamOutcome,
};
use sitfact_core::DiscoveryConfig;
use sitfact_serve::cli::{flag_value, parsed, reject_unknown};
use std::path::Path;
use Data::*;
use Panel::*;

/// Arrivals per window of the prominence study (the x step of Fig. 14).
const WINDOW: usize = 1_000;
const PAPER_SEED: u64 = 20_140_331;
const WEATHER_SEED: u64 = 2_012;
/// The y label of Fig. 15.
const FACTS: &str = "prominent facts";
/// The algorithm kinds of Figs. 8–10.
const SHARING: &[AlgorithmKind] = &[CCsc, BottomUp, TopDown, SBottomUp, STopDown];
/// The file-backed kinds of Figs. 12–13.
const FILE_BACKED: &[AlgorithmKind] = &[FsBottomUp, FsTopDown];

/// One figure of the paper.
struct Figure {
    /// The `--fig` value, also the number in panel titles and `csv,` ids.
    name: &'static str,
    dataset: DatasetKind,
    /// Default dataset seed.
    seed: u64,
    /// Default stream length; `sweep` and `taus` are given at this `n`.
    n: usize,
    /// The parameter grid (`d`, `m`, `d̂`, `m̂`) at a stream length.
    params: fn(usize) -> ExperimentParams,
    /// Sample points along each stream.
    samples: usize,
    /// The algorithm kinds streamed, one series each.
    kinds: &'static [AlgorithmKind],
    /// Stream length and sample points of the `d` / `m` sweeps.
    sweep: Option<(usize, usize)>,
    /// Whether the skyline stores are files under a temporary directory.
    file_backed: bool,
    /// Prominence thresholds τ; the study runs when there is at least one.
    taus: &'static [f64],
    /// Narrated facts the study keeps.
    examples: usize,
    panels: &'static [Panel],
}

/// What one panel of a figure prints.
enum Panel {
    /// A table and its `csv,` rows: the panel letter, the title after
    /// `Fig <name><letter>: ` (`{n}` stands for the sweep length, `{tau}`
    /// for the first τ), and the series.
    Plot(&'static str, &'static str, Data),
    /// The study's narrated facts under a heading.
    Examples(&'static str),
    /// The case study's totals.
    Summary,
}

/// A `d` or `m` sweep driver of the harness.
type SweepFn = fn(
    DatasetKind,
    &[AlgorithmKind],
    ExperimentParams,
    &[usize],
    Option<&Path>,
) -> Vec<(String, Vec<(usize, f64)>)>;

/// The series of a [`Panel::Plot`].
#[derive(Clone, Copy)]
enum Data {
    /// A [`SeriesPoint`] field (y label, accessor) against the tuple id, one
    /// series per algorithm kind.
    Stream(&'static str, fn(&SeriesPoint) -> f64),
    /// The final µs per tuple of a fresh stream per swept value (x label,
    /// driver, values), one series per algorithm kind.
    Sweep(&'static str, SweepFn, &'static [usize]),
    /// Prominent facts per [`WINDOW`] arrivals at the first τ.
    PerWindow,
    /// Prominent facts by the number of bound attributes, one series per τ.
    ByBound,
    /// Prominent facts by measure-subspace size, one series per τ.
    ByMeasureDims,
}

const MICROS: Data = Stream("µs per tuple", |p| p.micros_per_tuple);
const STORE_MIB: Data = Stream("MiB (approx)", |p| {
    p.store.approx_bytes as f64 / (1024.0 * 1024.0)
});
const ENTRIES: Data = Stream("stored entries", |p| p.store.stored_entries as f64);
const COMPARISONS: Data = Stream("comparisons", |p| p.work.comparisons as f64);
const TRAVERSED: Data = Stream("constraints", |p| p.work.traversed_constraints as f64);
const BY_D: Data = Sweep("d", sweep_dimensions, &D_SWEEP);
const BY_M: Data = Sweep("m", sweep_measures, &M_SWEEP);

/// What a row does not say: NBA on the paper's default grid, ten sample
/// points, in-memory stores, no sweep and no prominence study.
const PAPER: Figure = Figure {
    name: "",
    dataset: Nba,
    seed: PAPER_SEED,
    n: 10_000,
    params: ExperimentParams::paper_default,
    samples: 10,
    kinds: &[],
    sweep: None,
    file_backed: false,
    taus: &[],
    examples: 0,
    panels: &[],
};

/// The prominence-study rows' defaults: the case-study grid at `n` = 15 000.
const STUDY: Figure = Figure {
    n: 15_000,
    params: ExperimentParams::case_study,
    ..PAPER
};

/// The paper's figures, in order.
static FIGURES: [Figure; 10] = [
    Figure {
        name: "7",
        kinds: &[BaselineSeq, BaselineIdx, CCsc, BottomUp, TopDown],
        sweep: Some((3_000, 10)),
        panels: &[
            Plot("a", "execution time per tuple, NBA, d=5 m=7, varying n", MICROS),
            Plot("b", "execution time per tuple, NBA, n={n} m=7, varying d", BY_D),
            Plot("c", "execution time per tuple, NBA, n={n} d=5, varying m", BY_M),
        ],
        ..PAPER
    },
    Figure {
        name: "8",
        kinds: SHARING,
        sweep: Some((3_000, 10)),
        panels: &[
            Plot("a", "execution time per tuple, NBA, d=5 m=7, varying n", MICROS),
            Plot("b", "execution time per tuple, NBA, n={n} m=7, varying d", BY_D),
            Plot("c", "execution time per tuple, NBA, n={n} d=5, varying m", BY_M),
        ],
        ..PAPER
    },
    Figure {
        name: "9",
        dataset: Weather,
        seed: WEATHER_SEED,
        n: 15_000,
        kinds: SHARING,
        panels: &[Plot("", "execution time per tuple, weather, d=5 m=7, varying n", MICROS)],
        ..PAPER
    },
    Figure {
        name: "10",
        kinds: SHARING,
        panels: &[
            Plot("a", "size of consumed skyline-store memory, NBA, d=5 m=7", STORE_MIB),
            Plot("b", "number of skyline tuples stored, NBA, d=5 m=7", ENTRIES),
        ],
        ..PAPER
    },
    Figure {
        name: "11",
        kinds: &[BottomUp, TopDown, SBottomUp, STopDown],
        panels: &[
            Plot("a", "cumulative number of tuple comparisons, NBA, d=5 m=7", COMPARISONS),
            Plot("b", "cumulative number of traversed constraints, NBA, d=5 m=7", TRAVERSED),
        ],
        ..PAPER
    },
    Figure {
        name: "12",
        n: 1_500,
        samples: 6,
        kinds: FILE_BACKED,
        sweep: Some((800, 4)),
        file_backed: true,
        panels: &[
            Plot("a", "execution time per tuple, file-based stores, NBA, d=5 m=7", MICROS),
            Plot("b", "file-based stores, NBA, n={n} m=7, varying d", BY_D),
            Plot("c", "file-based stores, NBA, n={n} d=5, varying m", BY_M),
        ],
        ..PAPER
    },
    Figure {
        name: "13",
        dataset: Weather,
        seed: WEATHER_SEED,
        n: 2_000,
        samples: 6,
        kinds: FILE_BACKED,
        file_backed: true,
        panels: &[Plot("", "execution time per tuple, file-based stores, weather, d=5 m=7", MICROS)],
        ..PAPER
    },
    Figure {
        name: "14",
        taus: &[50.0],
        examples: 6,
        panels: &[
            Plot("", "prominent facts per 1000-tuple window, NBA, d̂=3 m̂=3, τ={tau}", PerWindow),
            Examples("\nExample prominent facts (cf. the Section VII bullet list):"),
        ],
        ..STUDY
    },
    Figure {
        name: "15",
        taus: &[10.0, 50.0, 250.0],
        panels: &[
            Plot("a", "prominent facts by number of bound dimension attributes", ByBound),
            Plot("b", "prominent facts by dimensionality of the measure subspace", ByMeasureDims),
        ],
        ..STUDY
    },
    Figure {
        name: "case",
        taus: &[100.0],
        examples: 12,
        panels: &[
            Summary,
            Examples("Narrated prominent facts (cf. the paper's Lamar Odom / Allen Iverson / Damon Stoudamire examples):"),
        ],
        ..STUDY
    },
];

/// One series per τ of a per-τ histogram, from bucket `skip` on.
fn per_tau(taus: &[f64], histograms: &[Vec<u64>], skip: usize) -> Vec<Series> {
    let points = |counts: &Vec<u64>| {
        let buckets = counts.iter().enumerate().skip(skip);
        buckets
            .map(|(x, &count)| (x as f64, count as f64))
            .collect()
    };
    let series = taus.iter().zip(histograms);
    series
        .map(|(tau, counts)| Series::new(format!("tau={tau}"), points(counts)))
        .collect()
}

/// Runs `f` on a fresh store directory when the figure is file-backed, and
/// removes the directory afterwards: the file stores keep one file per
/// skyline cell, gigabytes at a few hundred rows.
fn with_store<T>(fig: &Figure, tag: &str, f: impl FnOnce(Option<&Path>) -> T) -> T {
    let dir = fig.file_backed.then(|| {
        let dir = format!("sitfact-figures-{}-{tag}-{}", fig.name, std::process::id());
        std::env::temp_dir().join(dir)
    });
    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let out = f(dir.as_deref());
    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    out
}

/// Runs one figure at stream length `n` and dataset seed `seed`, printing
/// its panels in order.
fn run(fig: &Figure, n: usize, seed: u64) {
    let mut params = (fig.params)(n);
    (params.seed, params.sample_points) = (seed, fig.samples);
    // Multiplied before dividing, so a whole τ at `n` is exact.
    let at_n = |tau: &f64| tau * n as f64 / fig.n as f64;
    let taus: Vec<f64> = fig.taus.iter().map(at_n).collect();

    let mut outcomes: Vec<StreamOutcome> = Vec::new();
    if !fig.kinds.is_empty() {
        let (schema, rows) = generate_rows(fig.dataset, &params);
        let discovery = DiscoveryConfig::capped(params.d_hat, params.m_hat);
        for &kind in fig.kinds {
            let outcome = with_store(fig, kind.name(), |dir| {
                run_stream(kind, &schema, &rows, discovery, fig.samples, dir)
            });
            let seconds = outcome.total_seconds;
            eprintln!("  {kind} done in {seconds:.1}s of discovery time");
            outcomes.push(outcome);
        }
    }
    let study = if taus.is_empty() {
        ProminenceStudy::default()
    } else {
        run_prominence_study(params, &taus, WINDOW, fig.examples)
    };

    for panel in fig.panels {
        let (letter, title, data) = match *panel {
            Plot(letter, title, data) => (letter, title, data),
            Examples(heading) => {
                println!("{heading}");
                for example in &study.examples {
                    println!("  • {example}");
                }
                continue;
            }
            Summary => {
                let tau = taus[0];
                println!("Case study: {n} synthetic box scores, d=5 m=7 d̂=3 m̂=3, τ={tau} (paper: τ=500 at n=317K)\n");
                let total: u64 = study.per_window.iter().sum();
                println!("prominent facts discovered: {total}");
                println!("per 1K-tuple window:        {:?}", study.per_window);
                println!("by bound(C):                {:?}", study.by_bound[0]);
                let by_m = &study.by_measure_dims[0];
                println!("by |M|:                     {by_m:?}\n");
                continue;
            }
        };
        let mut title = format!("Fig {}{letter}: {title}", fig.name);
        let (x_label, y_label, series) = match data {
            Stream(y_label, field) => {
                let series = outcomes.iter().map(|o| Series::from_outcome(o, field));
                ("tuple id", y_label, series.collect())
            }
            Sweep(x_label, sweep, values) => {
                let (len, samples) = fig.sweep.expect("a sweep panel's row has a sweep");
                let len = len * n / fig.n;
                title = title.replace("{n}", &len.to_string());
                let mut base = (fig.params)(len);
                (base.seed, base.sample_points) = (seed, samples);
                let swept = with_store(fig, x_label, |dir| {
                    sweep(fig.dataset, fig.kinds, base, values, dir)
                });
                let series = swept.into_iter().map(|(label, points)| {
                    Series::new(
                        label,
                        points.into_iter().map(|(x, y)| (x as f64, y)).collect(),
                    )
                });
                (x_label, "µs per tuple", series.collect())
            }
            PerWindow => {
                title = title.replace("{tau}", &taus[0].to_string());
                let windows = study.per_window.iter().enumerate();
                let points = windows.map(|(i, &count)| (((i + 1) * WINDOW) as f64, count as f64));
                let series = vec![Series::new(format!("tau={}", taus[0]), points.collect())];
                ("tuples seen", "prominent facts in window", series)
            }
            ByBound => ("bound(C)", FACTS, per_tau(&taus, &study.by_bound, 0)),
            ByMeasureDims => ("|M|", FACTS, per_tau(&taus, &study.by_measure_dims, 1)),
        };
        print_table(&title, x_label, y_label, &series);
        print_series_csv(&format!("fig{}{letter}", fig.name), &series);
    }
}

fn main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    reject_unknown(&args, &["--fig", "--n", "--seed"])?;
    let which: String = parsed(&args, "--fig", "all".to_string())?;
    let n: Option<usize> = flag_value(&args, "--n")
        .map(|_| parsed(&args, "--n", 0))
        .transpose()?;
    let seed: Option<u64> = flag_value(&args, "--seed")
        .map(|_| parsed(&args, "--seed", 0))
        .transpose()?;
    let selected: Vec<&Figure> = FIGURES
        .iter()
        .filter(|fig| which == "all" || fig.name == which)
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = FIGURES.iter().map(|fig| fig.name).collect();
        return Err(format!(
            "--fig: no figure {which:?}; known: {} all",
            names.join(" ")
        ));
    }
    for fig in selected {
        run(fig, n.unwrap_or(fig.n), seed.unwrap_or(fig.seed));
    }
    Ok(())
}
